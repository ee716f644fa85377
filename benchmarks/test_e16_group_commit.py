"""E16 — automatic group commit under concurrent updaters.

The paper: "the only schemes that will perform better than this involve
arranging to record multiple commit records in a single log entry".
E5c measures the *manual* form (``append_many``); this experiment measures
the *automatic* one: concurrent ``update()`` callers batched into shared
fsyncs by the commit coordinator, with no API change.

Two configurations, both in simulated 1987 time:

* **commit-bound** (no CPU cost model): modelled time is the log's disk
  traffic only — the quantity group commit actually attacks.  This is
  where the headline speedup lives.
* **end-to-end** (MicroVAX II CPU charges included): Amdahl's law caps
  the gain, since explore+pickle+apply still run once per update; the
  table reports it so the headline is not oversold.
"""

from __future__ import annotations

import threading

from conftest import once
from repro.baselines.threaded import ThreadPerConnectionServer
from repro.core import CommitPolicy, Database, OperationRegistry
from repro.nameserver import NameServer, RemoteNameServer
from repro.nameserver.server import NAMESERVER_INTERFACE
from repro.obs.regress import metric
from repro.rpc import EventLoopServer, NO_RETRY, RpcServer, TcpTransport
from repro.sim import MICROVAX_II, SimClock
from repro.storage import SimFS

THREAD_COUNTS = (1, 4, 16)
UPDATES_PER_THREAD = 25
REQUIRED_SPEEDUP_AT_16 = 2.0


def _kv_ops() -> OperationRegistry:
    ops = OperationRegistry()

    @ops.operation("set")
    def op_set(root, key, value):
        root[key] = value

    return ops


def run_mode(nthreads: int, durability: str, cost_model=None):
    """Modelled seconds to commit the load, plus the stats snapshot."""
    clock = SimClock()
    fs = SimFS(clock=clock)
    db = Database(
        fs,
        operations=_kv_ops(),
        cost_model=cost_model,
        durability=durability,
        # Absorb joiners for up to 50 ms of *real* time; simulated time
        # only advances on charges, so without a hold window the leader
        # would fsync before concurrent stagers arrive.
        commit_policy=CommitPolicy(
            max_batch=nthreads,
            max_hold_seconds=0.05 if nthreads > 1 else 0.0,
        ),
    )
    start = clock.now()
    gate = threading.Barrier(nthreads)
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        try:
            gate.wait(timeout=30.0)
            for i in range(UPDATES_PER_THREAD):
                db.update("set", f"k{t}-{i}", i)
        except BaseException as exc:  # surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    return clock.now() - start, db.stats.snapshot()


def test_e16_group_commit_throughput(benchmark, report):
    def run():
        commit_bound = {}
        for nthreads in THREAD_COUNTS:
            per_update, _ = run_mode(nthreads, "immediate")
            grouped, snap = run_mode(nthreads, "group")
            commit_bound[nthreads] = (per_update, grouped, snap)
        end_to_end = (
            run_mode(16, "immediate", cost_model=MICROVAX_II)[0],
            *run_mode(16, "group", cost_model=MICROVAX_II),
        )
        return commit_bound, end_to_end

    commit_bound, end_to_end = once(benchmark, run)

    lines = []
    for nthreads, (per_update, grouped, snap) in commit_bound.items():
        total = nthreads * UPDATES_PER_THREAD
        lines.append(
            f"{nthreads:3d} updaters x {UPDATES_PER_THREAD}: "
            f"per-update fsync {per_update:6.2f} s   "
            f"group commit {grouped:6.2f} s   "
            f"speedup {per_update / grouped:5.1f}x   "
            f"fsyncs {snap['log_fsyncs']:3d}/{total}   "
            f"mean batch {snap['mean_commit_batch']:4.1f}"
        )
    e2e_immediate, e2e_grouped, e2e_snap = end_to_end
    lines.append(
        f" 16 updaters, end-to-end with MicroVAX II CPU charges: "
        f"{e2e_immediate:6.2f} s -> {e2e_grouped:6.2f} s "
        f"(speedup {e2e_immediate / e2e_grouped:4.1f}x, Amdahl-capped; "
        f"fsyncs {e2e_snap['log_fsyncs']}/400)"
    )
    report(
        "E16 automatic group commit (concurrent updaters)",
        lines,
        data={
            "commit_bound": {
                nthreads: {
                    "per_update_seconds": per_update,
                    "group_seconds": grouped,
                    "speedup": per_update / grouped,
                    "log_fsyncs": snap["log_fsyncs"],
                    "mean_commit_batch": snap["mean_commit_batch"],
                }
                for nthreads, (per_update, grouped, snap) in commit_bound.items()
            },
            "end_to_end_16_threads": {
                "immediate_seconds": e2e_immediate,
                "group_seconds": e2e_grouped,
                "log_fsyncs": e2e_snap["log_fsyncs"],
            },
        },
        metrics={
            "e16_speedup_16_threads": metric(
                commit_bound[16][0] / commit_bound[16][1],
                "x",
                direction="higher",
            ),
            "e16_fsyncs_16_threads": metric(
                commit_bound[16][2]["log_fsyncs"], "fsyncs"
            ),
            "e16_e2e_speedup_16_threads": metric(
                e2e_immediate / e2e_grouped, "x", direction="higher"
            ),
        },
    )

    # Single-threaded there is nothing to batch: modes must roughly tie.
    solo_per_update, solo_grouped, solo_snap = commit_bound[1]
    assert solo_snap["log_fsyncs"] == UPDATES_PER_THREAD
    assert solo_grouped <= solo_per_update * 1.1

    # At 16 updaters the coordinator must at least halve the commit time.
    per_update, grouped, snap = commit_bound[16]
    total = 16 * UPDATES_PER_THREAD
    assert per_update / grouped >= REQUIRED_SPEEDUP_AT_16
    # The batch/fsync instrumentation backs the claim up.
    assert snap["log_fsyncs"] < total
    assert snap["mean_commit_batch"] > 1.0
    assert snap["max_commit_batch"] <= 16
    assert (
        sum(size * count for size, count in snap["commit_batch_histogram"].items())
        == total
    )
    assert snap["commit_wait_seconds"] >= 0.0
    # Even CPU-bound, sharing fsyncs must not be a regression.
    assert e2e_grouped < e2e_immediate


# -- group commit through the TCP front ends -----------------------------------

TCP_UPDATERS = 16
TCP_UPDATES_PER_CLIENT = 12


def run_tcp_mode(model: str):
    """Group-commit stats for concurrent updaters arriving over real TCP.

    The in-process E16 above proves the commit coordinator batches; this
    variant proves the batching still engages when the concurrency comes
    through a socket front end — i.e. that neither the event loop nor the
    thread-per-connection baseline serialises updates before they reach
    the coordinator.
    """
    clock = SimClock()
    ns = NameServer(
        SimFS(clock=clock),
        durability="group",
        commit_policy=CommitPolicy(
            max_batch=TCP_UPDATERS, max_hold_seconds=0.05
        ),
    )
    rpc = RpcServer()
    rpc.export(NAMESERVER_INTERFACE, ns)
    front_type = ThreadPerConnectionServer if model == "threaded" else EventLoopServer
    kw = {"workers": TCP_UPDATERS} if model == "eventloop" else {}
    errors: list[BaseException] = []
    with front_type(rpc, **kw) as srv:
        gate = threading.Barrier(TCP_UPDATERS)

        def worker(t: int) -> None:
            transport = TcpTransport(srv.host, srv.port)
            remote = RemoteNameServer(
                transport, retry=NO_RETRY, clock=SimClock()
            )
            try:
                gate.wait(timeout=30.0)
                for i in range(TCP_UPDATES_PER_CLIENT):
                    remote.bind(f"bench/t{t}/k{i}", i)
            except BaseException as exc:
                errors.append(exc)
            finally:
                remote.close()

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(TCP_UPDATERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors, errors[0]
    snap = ns.stats.snapshot()
    ns.close()
    return snap


def test_e16_group_commit_over_tcp(benchmark, report):
    def run():
        return {
            model: run_tcp_mode(model) for model in ("threaded", "eventloop")
        }

    snaps = once(benchmark, run)

    total = TCP_UPDATERS * TCP_UPDATES_PER_CLIENT
    lines = [
        f"{model:9s}: fsyncs {snap['log_fsyncs']:3d}/{total}   "
        f"mean batch {snap['mean_commit_batch']:4.1f}   "
        f"max batch {snap['max_commit_batch']:2d}"
        for model, snap in snaps.items()
    ]
    report(
        "E16b group commit through the TCP front ends "
        f"({TCP_UPDATERS} remote updaters)",
        lines,
        data={
            model: {
                "log_fsyncs": snap["log_fsyncs"],
                "mean_commit_batch": snap["mean_commit_batch"],
                "max_commit_batch": snap["max_commit_batch"],
            }
            for model, snap in snaps.items()
        },
        metrics={
            "e16_tcp_mean_batch_threaded": metric(
                snaps["threaded"]["mean_commit_batch"], "updates/fsync",
                direction="higher",
            ),
            "e16_tcp_mean_batch_eventloop": metric(
                snaps["eventloop"]["mean_commit_batch"], "updates/fsync",
                direction="higher",
            ),
        },
    )

    for model, snap in snaps.items():
        # Concurrency survived the front end: fsyncs were genuinely shared.
        assert snap["mean_commit_batch"] > 1.0, model
        assert snap["log_fsyncs"] < total, model
        assert snap["max_commit_batch"] <= TCP_UPDATERS, model
