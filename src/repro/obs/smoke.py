"""End-to-end observability smoke check (used as a CI job).

Boots a real TCP name server node with its HTTP metrics endpoint, runs a
small scripted workload through a traced RPC client, then verifies the
two tentpole observability claims against the *running* system:

1. the Prometheus scrape contains live series from every instrumented
   layer — core database, RPC, replication and storage; and
2. one traced update assembles into a single cross-process trace tree
   containing the client call, the server dispatch, the log append and
   the fsync/commit barrier.

Run it directly::

    PYTHONPATH=src python -m repro.obs.smoke

Exit status 0 means both checks passed; failures print what was missing
and exit 1.  No third-party dependencies: the scrape uses urllib.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import urllib.request
from typing import TextIO

#: One series per instrumented layer that a freshly exercised node must
#: export.  Kept deliberately small and stable: this is a liveness check
#: of the pipeline, not a catalogue test (tests/obs does that).
REQUIRED_METRICS = (
    "db_updates_total",            # core database
    "db_log_fsyncs_total",         # commit path
    "db_update_seconds",           # core latency histogram
    "rpc_server_calls_total",      # RPC server
    "rpc_server_dispatch_total",   # event loop: which thread ran a frame
    "rpc_reply_cache_misses_total",  # at-most-once machinery
    "replication_records_propagated_total",  # replication layer
    "replication_history_records",  # its bounded retransmission window
    "replication_history_truncated_total",  # ...and peers that fell behind it
    "storage_write_bytes_total",   # storage layer (LocalFS meter)
    "storage_fsync_seconds",       # storage latency histogram
)

#: Span names that must appear in the assembled client+server trace tree.
REQUIRED_SPANS = (
    "rpc.client.bind",   # client stub
    "rpc.server.bind",   # server dispatch (child via header propagation)
    "db.update",         # database update
    "db.log_append",     # log write
    "db.commit_barrier",  # durability wait
    "commit.fsync",      # the group-commit leader's fsync
)


def run_smoke(out: TextIO = sys.stdout) -> int:
    from repro.nameserver.client import RemoteNameServer
    from repro.nameserver.management import RemoteManagement
    from repro.nameserver.serve import NodeOptions, build_node
    from repro.obs import MetricsRegistry, Tracer, build_tree, merge_trees, span_names
    from repro.rpc import TcpTransport

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as directory:
        node = build_node(NodeOptions(directory=directory, metrics_port=0))
        client_registry = MetricsRegistry()
        client_tracer = Tracer()
        transport = TcpTransport("127.0.0.1", node.port)
        try:
            server = RemoteNameServer(
                transport, registry=client_registry, tracer=client_tracer
            )
            management = RemoteManagement(transport)

            # -- scripted workload -------------------------------------------
            for i in range(5):
                server.bind(f"hosts/h{i}", {"addr": f"10.0.0.{i}"})
            for i in range(5):
                assert server.lookup(f"hosts/h{i}")["addr"] == f"10.0.0.{i}"
            server.unbind("hosts/h4")

            # -- check 1: the Prometheus scrape covers every layer ------------
            url = f"http://127.0.0.1:{node.metrics_exporter.port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                scrape = response.read().decode("utf-8")
            for name in REQUIRED_METRICS:
                if f"\n{name}" not in f"\n{scrape}":
                    failures.append(f"metric {name!r} missing from {url}")
            updates = _sample(scrape, "db_updates_total")
            if updates is not None and updates < 6:  # 5 binds + 1 unbind
                failures.append(f"db_updates_total={updates}, expected >= 6")
            on_loop = _sample(scrape, 'rpc_server_dispatch_total{path="loop"}')
            if on_loop is None or on_loop < 5:  # the 5 lookups
                failures.append(
                    f'rpc_server_dispatch_total{{path="loop"}}={on_loop}: the '
                    "lookups did not run on the event loop"
                )

            # -- check 2: one update is one cross-process trace tree ----------
            trace_id = client_tracer.last_trace_id()
            if not trace_id:
                failures.append("client tracer recorded no spans")
            else:
                client_spans = [
                    span.to_dict()
                    for span in client_tracer.finished_spans(trace_id)
                ]
                server_spans = management.trace_spans(trace_id)
                tree = merge_trees(client_spans, server_spans)
                names = set(span_names(tree))
                for name in REQUIRED_SPANS:
                    # The last client call was unbind, not bind; accept the
                    # method actually traced.
                    wanted = name.replace(".bind", ".unbind")
                    if wanted not in names:
                        failures.append(
                            f"span {wanted!r} missing from trace {trace_id} "
                            f"(got {sorted(names)})"
                        )
                if tree is None or tree["name"] == "<trace>":
                    failures.append(
                        f"trace {trace_id} did not assemble into a single "
                        f"rooted tree (root {tree and tree['name']!r})"
                    )
                else:
                    from repro.obs import format_tree

                    out.write(f"trace {trace_id}:\n")
                    out.write(format_tree(tree) + "\n")
        finally:
            transport.close()
            node.shutdown()

    if failures:
        for failure in failures:
            out.write(f"FAIL: {failure}\n")
        return 1
    out.write(
        f"observability smoke OK: {len(REQUIRED_METRICS)} metrics across "
        f"4 layers, one complete client-to-fsync trace\n"
    )
    return 0


#: Span names that must appear in the assembled *cluster* trace: router
#: retry loop, client stub, primary dispatch, durability, and the eager
#: propagation to a follower — one update traced end to end.
REQUIRED_CLUSTER_SPANS = (
    "router.bind",
    "rpc.client.bind",
    "rpc.server.bind",
    "db.update",
    "db.log_append",
    "rpc.server.apply_remote",  # the follower's half of eager propagation
)


def run_cluster_smoke(out: TextIO = sys.stdout) -> int:
    """The cluster-plane smoke: 2 shards × 2 replicas, real processes.

    Verifies the cluster observability claims end to end:

    1. one routed update assembles into a single cross-node trace tree
       (router → primary → follower) with a non-empty critical-path
       breakdown, pulled by the coordinator's trace collector; and
    2. the coordinator's ``/cluster/metrics`` rollups equal the sum of
       the per-node scrapes they were derived from, and serve over HTTP.
    """
    from repro.cluster.serve import ClusterSupervisor
    from repro.obs import Tracer, span_names

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="obs-cluster-smoke-") as base:
        with ClusterSupervisor(
            base, num_shards=2, replicas=2, metrics_port=0
        ) as supervisor:
            coordinator = supervisor.coordinator
            router_tracer = Tracer()
            router = supervisor.router(tracer=router_tracer)
            try:
                # -- scripted workload ------------------------------------
                # Heads h0..h7 spread across both shards' hash ranges.
                for i in range(8):
                    router.bind(f"h{i}/addr", {"addr": f"10.0.0.{i}"})
                # The newest trace at this point is the last *update* —
                # the one that must reconstruct router -> primary ->
                # follower.  The lookups below only add more traffic.
                trace_id = router_tracer.last_trace_id()
                for i in range(8):
                    assert router.lookup(f"h{i}/addr")["addr"] == (
                        f"10.0.0.{i}"
                    )

                # -- check 1: one cross-node trace tree -------------------
                if not trace_id:
                    failures.append("router tracer recorded no spans")
                router_spans = [
                    span.to_dict() for span in router_tracer.finished_spans()
                ]
                collector = coordinator.trace_collector
                collector.ingest("router", router_spans)
                poll = collector.poll()
                unreachable = [
                    node
                    for node, info in poll["nodes"].items()
                    if not info.get("reachable")
                ]
                if unreachable:
                    failures.append(f"unreachable replicas: {unreachable}")
                assembled = collector.assemble(trace_id) if trace_id else {}
                nodes = assembled.get("nodes", [])
                if len(nodes) < 3:
                    failures.append(
                        f"trace {trace_id} spans {len(nodes)} node(s) "
                        f"({nodes}), expected router + primary + follower"
                    )
                names = set(span_names(assembled.get("tree")))
                for name in REQUIRED_CLUSTER_SPANS:
                    if name not in names:
                        failures.append(
                            f"span {name!r} missing from cluster trace "
                            f"{trace_id} (got {sorted(names)})"
                        )
                path = assembled.get("critical_path") or {}
                if not path.get("steps"):
                    failures.append(
                        f"trace {trace_id} produced no critical path"
                    )
                elif not path.get("total_s", 0) > 0:
                    failures.append(
                        f"critical path total is {path.get('total_s')}"
                    )
                else:
                    out.write(f"cluster trace {trace_id}:\n")
                    for step in path["steps"]:
                        out.write(
                            f"  {step['stage']:<12} {step['name']:<28} "
                            f"node={step['node']} "
                            f"self={step['self_s'] * 1000:.3f}ms\n"
                        )

                # -- check 2: rollups equal the sum of per-node scrapes ---
                scrape = coordinator.cluster_metrics_snapshot()
                per_node = _counter_sum(scrape["per_replica"], "db_updates_total")
                rolled = _counter_sum(scrape["cluster"], "db_updates_total")
                if per_node <= 0:
                    failures.append("no db_updates_total in per-node scrapes")
                if abs(per_node - rolled) > 1e-9:
                    failures.append(
                        f"cluster rollup db_updates_total={rolled} != "
                        f"sum of per-node scrapes {per_node}"
                    )

                # -- check 3: the rollups serve over HTTP -----------------
                port = supervisor.metrics_exporter.port
                url = f"http://127.0.0.1:{port}/cluster/metrics"
                with urllib.request.urlopen(url, timeout=10) as response:
                    text = response.read().decode("utf-8")
                if "db_updates_total" not in text:
                    failures.append(f"db_updates_total missing from {url}")

                # -- check 4: the SLO monitor evaluates -------------------
                slo = coordinator.cluster_slo()
                if not slo.get("targets"):
                    failures.append("cluster_slo() reported no targets")
            finally:
                router.close()

    if failures:
        for failure in failures:
            out.write(f"FAIL: {failure}\n")
        return 1
    out.write(
        "cluster observability smoke OK: one update traced router -> "
        "primary -> follower with a critical path, rollups = sum of "
        "per-node scrapes, SLOs evaluated\n"
    )
    return 0


def _counter_sum(snapshot: dict, family: str) -> float:
    """Sum of every series value of one counter family in a snapshot."""
    entry = snapshot.get(family)
    if not entry:
        return 0.0
    return sum(
        float(series.get("value", 0.0)) for series in entry.get("series", [])
    )


def _sample(scrape: str, name: str) -> float | None:
    """The value of one sample (name plus any labels) in Prometheus text."""
    for line in scrape.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[-1])
    return None


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.smoke",
        description="End-to-end observability smoke checks.",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="run the cluster-plane smoke (2 shards x 2 replicas) "
        "instead of the single-node one",
    )
    args = parser.parse_args(argv)
    if args.cluster:
        return run_cluster_smoke(out)
    return run_smoke(out)


if __name__ == "__main__":  # pragma: no cover - exercised via run_smoke()
    sys.exit(main())
