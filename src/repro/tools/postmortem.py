"""Postmortem: reconstruct a merged timeline from black-box dumps.

A SIGTERMed node leaves a flight-recorder dump, ``blackbox.json``, in
its data directory (see :mod:`repro.nameserver.serve`); the cluster
supervisor writes the same file before it kills a shard.  A degraded
node keeps its ring in memory, served by the ``flight_events``
management RPC that the ``--cluster`` mode reads.  This tool renders
that dump as a human-readable timeline, and can *merge* it with the two
other memories a node exports: trace spans (``/trace.json`` or the
``trace_spans`` management RPC, saved to a file) and the slow-op log
(``/slowops.json``).  All three carry times from the same node clock,
so sorting their entries together reconstructs the causal story::

    python -m repro.tools.postmortem /var/lib/ns/blackbox.json \
        --trace trace.json --slowops slowops.json

The *cluster* mode builds one merged incident timeline for a whole
cluster — every replica's flight events, slow ops and spans plus the
coordinator's own ring (promotions, map epochs, SLO burn alerts)::

    python -m repro.tools.postmortem --cluster 127.0.0.1:9800   # live
    python -m repro.tools.postmortem --cluster-dir /var/lib/cluster

Node wall clocks are never compared raw: per-node clock offsets are
estimated from cross-node parent/child span pairs (a child RPC span is
contained in its parent's interval, so midpoint differences estimate
the skew), and flight events that carry a map ``epoch`` anchor the
ordering — an event at epoch 5 can never sort before one at epoch 4,
whatever the clocks claim.  See docs/FORMATS.md for the item schema.

Exit status: 0 on a rendered timeline, 2 on an unreadable or invalid
dump.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import sys

from repro.obs.flight import FLIGHT_FORMAT, load_blackbox

#: kinds whose appearance usually *explains* the dump; highlighted first
#: in the summary so an operator reads the punchline before the log.
NOTEWORTHY_KINDS = (
    "fault_injected",
    "storage_fault",
    "health_transition",
    "checkpoint_aborted",
    "log_tail_damaged",
    "commit_barrier_poisoned",
    "rpc_call_failed",
    "replica_killed",
    "replica_lost",
    "primary_promoted",
    "slo_burn_alert",
)


def build_timeline(
    dump: dict,
    spans: list[dict] | None = None,
    slow_ops: list[dict] | None = None,
) -> list[dict]:
    """Merge flight events, trace spans and slow ops into one timeline.

    Every item becomes ``{"time", "source", "what", "detail"}``; the
    list is sorted by time (stable, so equal-time flight events keep
    their ring order).  Spans and slow ops contribute their *start*
    time, with the duration in the detail.
    """
    items: list[dict] = []
    for event in dump.get("events", []):
        fields = event.get("fields") or {}
        detail = " ".join(
            f"{key}={value!r}" for key, value in sorted(fields.items())
        )
        items.append(
            {
                "time": float(event.get("time", 0.0)),
                "source": "flight",
                "what": str(event.get("kind", "?")),
                "detail": detail,
            }
        )
    for span in spans or []:
        attrs = span.get("attrs") or {}
        extra = " ".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
        duration = span.get("duration")
        if duration is not None:
            extra = f"{duration * 1000:.3f}ms {extra}".rstrip()
        items.append(
            {
                "time": float(span.get("start", 0.0)),
                "source": "trace",
                "what": str(span.get("name", "?")),
                "detail": extra,
            }
        )
    for entry in slow_ops or []:
        attrs = entry.get("attrs") or {}
        extra = " ".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
        duration = entry.get("duration")
        if duration is not None:
            extra = f"{duration * 1000:.3f}ms {extra}".rstrip()
        items.append(
            {
                "time": float(entry.get("start", 0.0)),
                "source": "slowop",
                "what": str(entry.get("name", "?")),
                "detail": extra,
            }
        )
    items.sort(key=lambda item: item["time"])
    return items


def summarize(dump: dict) -> list[str]:
    """The dump's headline: counts per kind, noteworthy kinds first."""
    counts: dict[str, int] = {}
    for event in dump.get("events", []):
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    lines = [
        f"format {dump.get('format')}, "
        f"{len(dump.get('events', []))} events retained "
        f"({dump.get('recorded', '?')} recorded, "
        f"{dump.get('dropped', 0)} dropped), "
        f"dumped at t={dump.get('dumped_at', '?')}"
    ]
    noteworthy = [k for k in NOTEWORTHY_KINDS if k in counts]
    if noteworthy:
        lines.append(
            "noteworthy: "
            + ", ".join(f"{kind}×{counts[kind]}" for kind in noteworthy)
        )
    routine = sorted(set(counts) - set(noteworthy))
    if routine:
        lines.append(
            "routine:    "
            + ", ".join(f"{kind}×{counts[kind]}" for kind in routine)
        )
    return lines


def render_timeline(items: list[dict]) -> str:
    """One line per item: time, source, what, detail."""
    if not items:
        return "(empty timeline)"
    lines = []
    for item in items:
        lines.append(
            f"t={item['time']:<14g} {item['source']:<7} "
            f"{item['what']:<26} {item['detail']}".rstrip()
        )
    return "\n".join(lines)


# -- cluster mode ---------------------------------------------------------------


def gather_cluster(address: str) -> dict:
    """Pull every node's memories from a *live* cluster.

    Dials the coordinator at ``host:port`` for the shard map and its own
    flight ring, then every replica's management RPC for flight events,
    slow ops and the whole span ring.  Unreachable replicas are recorded
    as such rather than failing the gather — a postmortem usually runs
    *because* something is down.
    """
    from repro.cluster.coordinator import RemoteCoordinator
    from repro.cluster.shardmap import ShardMap
    from repro.nameserver.management import RemoteManagement
    from repro.rpc import TcpTransport

    host, _, port = address.rpartition(":")
    nodes: dict[str, dict] = {}
    coordinator = RemoteCoordinator(TcpTransport(host, int(port)))
    try:
        shard_map = ShardMap.from_wire(coordinator.get_map())
        try:
            events = coordinator.flight_events()
        except Exception:
            events = []  # an older coordinator without the obs plane
        nodes["coordinator"] = {
            "dump": _envelope(events, node="coordinator", cause="gather"),
            "spans": [],
            "slow_ops": [],
        }
        for shard in shard_map.shards:
            for replica in shard.replica_set:
                rid = replica.replica_id
                rhost, _, rport = replica.address.rpartition(":")
                try:
                    mgmt = RemoteManagement(TcpTransport(rhost, int(rport)))
                    try:
                        nodes[rid] = {
                            "dump": _envelope(
                                mgmt.flight_events(), node=rid, cause="gather"
                            ),
                            "spans": mgmt.trace_spans(""),
                            "slow_ops": mgmt.slow_ops(),
                        }
                    finally:
                        mgmt.close()
                except Exception as exc:
                    nodes[rid] = {"unreachable": f"{exc}"}
    finally:
        coordinator.close()
    return {"nodes": nodes}


def gather_cluster_dir(base_dir: str) -> dict:
    """Collect the black boxes a cluster left on disk (no live nodes).

    Scans ``data/<replica>/blackbox.json`` (SIGTERM dumps and the
    supervisor's pre-kill dumps) and ``postmortem/*blackbox.json`` (the
    boxes salvaged from replicas that died unexpectedly).
    """
    nodes: dict[str, dict] = {}
    for path in sorted(
        globmod.glob(os.path.join(base_dir, "data", "*", "blackbox.json"))
    ):
        rid = os.path.basename(os.path.dirname(path))
        try:
            with open(path, "rb") as f:
                dump = load_blackbox(f.read())
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            nodes[rid] = {"unreachable": f"{exc}"}
            continue
        nodes[rid] = {"dump": dump, "spans": [], "slow_ops": []}
    for path in sorted(
        globmod.glob(os.path.join(base_dir, "postmortem", "*blackbox.json"))
    ):
        rid = os.path.basename(path).split("-")[0]
        if rid in nodes:
            continue  # the live directory's box is newer
        try:
            with open(path, "rb") as f:
                dump = load_blackbox(f.read())
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            nodes[rid] = {"unreachable": f"{exc}"}
            continue
        nodes[rid] = {"dump": dump, "spans": [], "slow_ops": []}
    return {"nodes": nodes}


def _envelope(events: list, node: str, cause: str) -> dict:
    """Wrap a live flight ring in the standard black-box envelope."""
    return {
        "format": FLIGHT_FORMAT,
        "dumped_at": max(
            [float(e.get("time", 0.0)) for e in events], default=0.0
        ),
        "recorded": len(events),
        "dropped": 0,
        "events": events,
        "node": node,
        "cause": cause,
    }


def estimate_clock_offsets(spans_by_node: dict[str, list[dict]]) -> dict:
    """Per-node clock offsets from cross-node parent/child span pairs.

    A child RPC span recorded on node B is contained (in true time)
    inside its parent's interval on node A, so the difference of the two
    interval midpoints estimates B's clock relative to A's.  Offsets are
    averaged per node pair and propagated breadth-first from a reference
    node; a node with no span link to the rest keeps offset 0.0.

    Returns ``{node: seconds to ADD to that node's times}``.
    """
    index: dict[tuple[str, str], tuple[str, float]] = {}
    for node, spans in spans_by_node.items():
        for span in spans:
            mid = float(span.get("start", 0.0)) + (
                float(span.get("duration") or 0.0) / 2.0
            )
            index[(span.get("trace_id", ""), span.get("span_id", ""))] = (
                node,
                mid,
            )
    # edge (a, b) -> list of (b's clock - a's clock) estimates
    edges: dict[tuple[str, str], list[float]] = {}
    for node, spans in spans_by_node.items():
        for span in spans:
            parent_id = span.get("parent_id")
            if not parent_id:
                continue
            parent = index.get((span.get("trace_id", ""), parent_id))
            if parent is None or parent[0] == node:
                continue
            parent_node, parent_mid = parent
            mid = float(span.get("start", 0.0)) + (
                float(span.get("duration") or 0.0) / 2.0
            )
            edges.setdefault((parent_node, node), []).append(mid - parent_mid)
    offsets = {node: 0.0 for node in spans_by_node}
    if not edges:
        return offsets
    neighbours: dict[str, list[tuple[str, float]]] = {}
    for (a, b), skews in edges.items():
        skew = sum(skews) / len(skews)
        neighbours.setdefault(a, []).append((b, skew))
        neighbours.setdefault(b, []).append((a, -skew))
    root = sorted(neighbours)[0]
    seen = {root}
    frontier = [root]
    while frontier:
        here = frontier.pop()
        for there, skew in neighbours.get(here, []):
            if there in seen:
                continue
            seen.add(there)
            # there's clock reads `skew` ahead of here's: subtract it.
            offsets[there] = offsets.get(here, 0.0) - skew
            frontier.append(there)
    return offsets


def build_cluster_timeline(gathered: dict) -> list[dict]:
    """One merged incident timeline across every gathered node.

    Each item is the single-node shape plus ``node``, ``epoch`` and
    ``aligned`` (the offset-corrected time actually sorted on).  The
    sort key is ``(epoch, aligned)``: flight events carrying a map
    ``epoch`` anchor causality, and every item inherits the last epoch
    its node had seen — cross-node ordering never contradicts the map's
    own history, however skewed the wall clocks.
    """
    nodes = gathered.get("nodes", {})
    spans_by_node = {
        node: info.get("spans", [])
        for node, info in nodes.items()
        if "dump" in info
    }
    offsets = estimate_clock_offsets(spans_by_node)
    items: list[dict] = []
    for node, info in sorted(nodes.items()):
        if "dump" not in info:
            continue
        offset = offsets.get(node, 0.0)
        node_items = build_timeline(
            info["dump"], info.get("spans"), info.get("slow_ops")
        )
        # Carry each node's last-seen epoch forward onto later items.
        epoch = 0
        for item, event in _with_events(node_items, info["dump"]):
            if event is not None:
                fields = event.get("fields") or {}
                if "epoch" in fields:
                    epoch = int(fields["epoch"])
            item["node"] = node
            item["epoch"] = epoch
            item["aligned"] = item["time"] + offset
            items.append(item)
    items.sort(key=lambda item: (item["epoch"], item["aligned"]))
    return items


def _with_events(items: list[dict], dump: dict):
    """Pair timeline items back with the flight events they came from."""
    events = list(dump.get("events", []))
    used = 0
    for item in items:
        if item["source"] == "flight" and used < len(events):
            yield item, events[used]
            used += 1
        else:
            yield item, None


def render_cluster_timeline(items: list[dict]) -> str:
    """One line per item: epoch, aligned time, node, source, what."""
    if not items:
        return "(empty timeline)"
    lines = []
    for item in items:
        lines.append(
            f"e{item.get('epoch', 0):<3} "
            f"t={item.get('aligned', item['time']):<14g} "
            f"{item.get('node', '?'):<12} {item['source']:<7} "
            f"{item['what']:<26} {item['detail']}".rstrip()
        )
    return "\n".join(lines)


def _load_json_file(path: str) -> object:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.postmortem",
        description="Render a flight-recorder black box (optionally "
        "merged with trace spans and the slow-op log) as a timeline.",
    )
    parser.add_argument(
        "blackbox", nargs="?", default=None,
        help="path to blackbox.json (single-node mode)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="SPANS_JSON",
        help="span dicts saved from /trace.json or the trace_spans RPC",
    )
    parser.add_argument(
        "--slowops", default=None, metavar="SLOWOPS_JSON",
        help="entries saved from /slowops.json or the slow_ops RPC",
    )
    parser.add_argument(
        "--kind", default=None,
        help="show only flight events of this kind",
    )
    parser.add_argument(
        "--cluster", default=None, metavar="HOST:PORT",
        help="gather from a live cluster's coordinator and merge every "
        "node's memories into one incident timeline",
    )
    parser.add_argument(
        "--cluster-dir", default=None, metavar="PATH",
        help="merge the black boxes a (dead) cluster left under its "
        "base directory instead of dialing live nodes",
    )
    args = parser.parse_args(argv)

    if args.cluster is not None or args.cluster_dir is not None:
        return _cluster_main(args)
    if args.blackbox is None:
        parser.error("a blackbox path, --cluster or --cluster-dir required")

    try:
        with open(args.blackbox, "rb") as f:
            dump = load_blackbox(f.read())
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"postmortem: cannot read black box: {exc}", file=sys.stderr)
        return 2

    spans = slow_ops = None
    try:
        if args.trace is not None:
            spans = _load_json_file(args.trace)
        if args.slowops is not None:
            slow_ops = _load_json_file(args.slowops)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"postmortem: cannot read sidecar: {exc}", file=sys.stderr)
        return 2

    if args.kind is not None:
        dump = dict(dump)
        dump["events"] = [
            e for e in dump.get("events", []) if e.get("kind") == args.kind
        ]

    for line in summarize(dump):
        print(line)
    print()
    print(render_timeline(build_timeline(dump, spans, slow_ops)))
    return 0


def _cluster_main(args) -> int:
    try:
        if args.cluster is not None:
            gathered = gather_cluster(args.cluster)
        else:
            gathered = gather_cluster_dir(args.cluster_dir)
    except Exception as exc:
        print(f"postmortem: cluster gather failed: {exc}", file=sys.stderr)
        return 2
    nodes = gathered.get("nodes", {})
    if not any("dump" in info for info in nodes.values()):
        print("postmortem: no black boxes gathered", file=sys.stderr)
        return 2
    for node, info in sorted(nodes.items()):
        if "dump" in info:
            dump = info["dump"]
            print(
                f"{node}: {len(dump.get('events', []))} events, "
                f"{len(info.get('spans', []))} spans, "
                f"{len(info.get('slow_ops', []))} slow ops"
            )
        else:
            print(f"{node}: UNREACHABLE ({info.get('unreachable')})")
    print()
    items = build_cluster_timeline(gathered)
    if args.kind is not None:
        items = [
            item
            for item in items
            if item["source"] == "flight" and item["what"] == args.kind
        ]
    print(render_cluster_timeline(items))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
