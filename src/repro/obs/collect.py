"""Cluster trace collection: cross-node trees and critical paths.

Per-node tracers keep their finished spans in bounded rings, exported
over the ``trace_spans`` management RPC.  That answers "what did *this*
process do" — but one cluster update touches a router, a shard primary
and its followers, and the paper-style question ("54 msecs = 6 + 22 +
20 + 6") needs the whole journey.  :class:`ClusterTraceCollector` is the
coordinator-side puller that closes the gap: it drains every replica's
ring, groups span dicts by the propagated trace id (tagging each with
the node it came from), and assembles per-trace trees on demand.

:func:`critical_path` then walks one assembled tree along its
longest-duration child chain, attributing *self time* (a span's duration
minus the child it descended into) to pipeline stages::

    router queue → transport → shard dispatch → log append →
        group-commit fsync → replica ack

so an operator reads "this update spent 1.2 ms in transport and 18 ms in
the group-commit fsync" straight off the coordinator.

Head-based sampling keeps collection cheap under load: with
``sample_1_in=N`` only traces whose id hashes into the 1/N bucket are
*retained* by the collector (a deterministic crc32 decision, so repeated
polls agree), independent of any sampling the nodes themselves do.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from zlib import crc32

from repro.obs.aggregate import dial_each
from repro.obs.export import merge_trees

__all__ = [
    "ClusterTraceCollector",
    "critical_path",
    "stage_of",
]

#: ordered pipeline stages a critical path is attributed to
STAGES = (
    "router",
    "transport",
    "dispatch",
    "log_append",
    "fsync",
    "replica_ack",
    "db",
    "other",
)

#: prefix → stage, first match wins (checked in order)
_STAGE_RULES = (
    ("router.", "router"),
    ("rpc.client.apply_remote", "replica_ack"),
    ("rpc.client.updates_since", "replica_ack"),
    ("rpc.client.", "transport"),
    ("rpc.transport", "transport"),
    ("rpc.server.apply_remote", "replica_ack"),
    ("rpc.server.", "dispatch"),
    ("db.log_append", "log_append"),
    ("db.commit_barrier", "fsync"),
    ("commit.fsync", "fsync"),
    ("db.", "db"),
)


def stage_of(span_name: str) -> str:
    """Map one span name onto its pipeline stage (``"other"`` unknown)."""
    for prefix, stage in _STAGE_RULES:
        if span_name.startswith(prefix):
            return stage
    return "other"


def critical_path(tree: dict | None) -> dict:
    """The longest-duration chain through one assembled trace tree.

    Walks from the root, at each node descending into the child with the
    largest duration (ties broken toward the later-starting child —
    closer to where the time actually went), with one cross-node rule: a
    child recorded on a *different* node is the operation continuing on
    the remote side, and its wall time is contained inside the local
    transport wait — so the walk prefers the remote child (server
    dispatch, log append, fsync, replica ack all live under it) and
    charges the transport sibling only the remainder (the wire time).
    Each step's *self time* is otherwise the node's duration minus the
    descended child's; the leaf keeps its whole duration.  Returns::

        {"trace_id": ..., "total_s": root duration,
         "steps": [{"name", "node", "stage", "self_s", "duration_s"}...],
         "breakdown": {stage: summed self seconds, largest first}}

    An empty dict for ``tree is None``; the synthetic ``<trace>`` holder
    node (multi-root assembly) is skipped, starting at its longest child.
    """
    if tree is None:
        return {}
    node = tree
    if node.get("name") == "<trace>" and node.get("children"):
        node = max(
            node["children"], key=lambda c: (c["duration"], c["start"])
        )
    total = float(node["duration"])
    steps: list[dict] = []
    breakdown: dict[str, float] = {}

    def emit(span: dict, self_s: float) -> None:
        stage = stage_of(str(span["name"]))
        steps.append(
            {
                "name": span["name"],
                "node": span.get("node", ""),
                "stage": stage,
                "self_s": self_s,
                "duration_s": float(span["duration"]),
            }
        )
        breakdown[stage] = breakdown.get(stage, 0.0) + self_s

    while node is not None:
        children = node.get("children") or []
        here = node.get("node", "")
        remote = [c for c in children if c.get("node", here) != here]
        child = None
        if remote:
            child = max(remote, key=lambda c: (c["duration"], c["start"]))
        elif children:
            child = max(children, key=lambda c: (c["duration"], c["start"]))
        self_s = float(node["duration"])
        if child is not None:
            self_s = max(0.0, self_s - float(child["duration"]))
        emit(node, self_s)
        if remote and child is not None:
            # The wire's own share: the longest local sibling (the
            # transport span) minus the remote time it contains.
            local = [c for c in children if c not in remote]
            if local:
                wire = max(local, key=lambda c: (c["duration"], c["start"]))
                emit(
                    wire,
                    max(
                        0.0,
                        float(wire["duration"]) - float(child["duration"]),
                    ),
                )
        node = child
    ordered = dict(
        sorted(breakdown.items(), key=lambda kv: kv[1], reverse=True)
    )
    return {
        "trace_id": tree.get("trace_id", ""),
        "total_s": total,
        "steps": steps,
        "breakdown": ordered,
    }


class ClusterTraceCollector:
    """Drain every node's span ring; assemble cross-node trace trees.

    ``targets`` is a zero-argument callable returning the nodes to poll
    as ``[(node_id, address), ...]`` (the coordinator derives it from the
    current shard map, so promotions and splits are picked up on the
    next poll).  ``management_factory(address)`` dials one node's
    management RPC — injectable, so loopback tests need no sockets.

    ``capacity`` bounds retained traces (oldest evicted first);
    ``sample_1_in`` head-samples by trace id as described in the module
    docstring.  All methods are thread-safe.
    """

    def __init__(
        self,
        targets,
        management_factory,
        *,
        sample_1_in: int = 1,
        capacity: int = 512,
    ) -> None:
        if sample_1_in < 1:
            raise ValueError("sample_1_in counts from 1 (1 = keep all)")
        if capacity < 1:
            raise ValueError("collector capacity counts from 1")
        self.targets = targets
        self.management_factory = management_factory
        self.sample_1_in = sample_1_in
        self.capacity = capacity
        self._lock = threading.Lock()
        #: {trace_id: {span_id: span dict}} — insertion-ordered for LRU
        self._traces: OrderedDict[str, dict[str, dict]] = OrderedDict()
        self.spans_collected = 0
        self.spans_sampled_out = 0
        self.polls = 0

    # -- sampling ------------------------------------------------------------

    def keeps(self, trace_id: str) -> bool:
        """Whether this collector's head sample retains ``trace_id``."""
        if self.sample_1_in == 1:
            return True
        return crc32(trace_id.encode("ascii", "replace")) % self.sample_1_in == 0

    # -- collection ----------------------------------------------------------

    def poll(self) -> dict:
        """One sweep over every node's ring; returns a scrape report.

        Nodes are drained with ``trace_spans("")`` (the whole ring) and
        deduplicated by span id, so repeated polls converge instead of
        double-counting.  An unreachable node is reported, not fatal —
        its spans arrive on a later poll or never (a crashed node's ring
        died with it; the tree assembles from the survivors).
        """
        report: dict = {"nodes": {}, "spans": 0, "new_traces": 0}
        for (node_id, _address), spans, error in dial_each(
            self.targets(), self.management_factory,
            lambda mgmt: mgmt.trace_spans(""),
        ):
            if error is not None:
                report["nodes"][node_id] = {"reachable": False, "error": error}
                continue
            added = self._ingest(node_id, spans)
            report["nodes"][node_id] = {
                "reachable": True, "spans": len(spans), "added": added,
            }
            report["spans"] += added
        with self._lock:
            self.polls += 1
            report["traces"] = len(self._traces)
        return report

    def ingest(self, node_id: str, spans: list[dict]) -> int:
        """Feed span dicts directly (router-side spans live in-process)."""
        return self._ingest(node_id, spans)

    def _ingest(self, node_id: str, spans: list[dict]) -> int:
        added = 0
        with self._lock:
            for span in spans:
                trace_id = str(span.get("trace_id", ""))
                if not trace_id:
                    continue
                if not self.keeps(trace_id):
                    self.spans_sampled_out += 1
                    continue
                bucket = self._traces.get(trace_id)
                if bucket is None:
                    bucket = self._traces[trace_id] = {}
                    while len(self._traces) > self.capacity:
                        self._traces.popitem(last=False)
                    if trace_id not in self._traces:
                        continue  # the new trace itself was the eviction
                span_id = str(span.get("span_id", ""))
                if span_id in bucket:
                    continue
                tagged = dict(span)
                tagged.setdefault("node", node_id)
                bucket[span_id] = tagged
                added += 1
                self.spans_collected += 1
        return added

    # -- assembly ------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def spans_of(self, trace_id: str) -> list[dict]:
        with self._lock:
            bucket = self._traces.get(trace_id)
            return [dict(span) for span in bucket.values()] if bucket else []

    def nodes_of(self, trace_id: str) -> list[str]:
        """Distinct node ids that contributed spans to one trace."""
        seen: dict[str, None] = {}
        for span in self.spans_of(trace_id):
            seen.setdefault(str(span.get("node", "")), None)
        return list(seen)

    def tree(self, trace_id: str, extra_spans: list[dict] | None = None):
        """The assembled cross-node tree (optionally + caller-side spans)."""
        return merge_trees(self.spans_of(trace_id), extra_spans or [])

    def assemble(
        self, trace_id: str, extra_spans: list[dict] | None = None
    ) -> dict:
        """Everything about one trace: spans, tree, critical path, nodes."""
        spans = self.spans_of(trace_id)
        tree = merge_trees(spans, extra_spans or [])
        return {
            "trace_id": trace_id,
            "nodes": self.nodes_of(trace_id),
            "spans": spans,
            "tree": tree,
            "critical_path": critical_path(tree),
        }

