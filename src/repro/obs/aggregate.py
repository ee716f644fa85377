"""Cluster metrics aggregation: merge per-node scrapes into one view.

Every node exports its own :class:`~repro.obs.metrics.MetricsRegistry`
snapshot over the ``metrics`` management RPC.  This module turns a set
of those snapshots into cluster-level series:

* :func:`merge_snapshots` — relabel each node's series with its replica
  and shard ids, so per-node series coexist in one snapshot;
* :func:`rollup` — drop labels and *merge* the colliding series:
  counters and gauges sum, histograms merge bucket-by-bucket (cumulative
  counts are step functions, so the merged cumulative count at any bound
  is the sum of each series' count at that bound) and re-estimate the
  p50/p90/p99 from the merged buckets — a true cluster p99, not an
  average of per-node p99s;
* :class:`MetricsAggregator` — scrape all replicas (via the injectable
  management factory), producing ``per_replica`` / ``per_shard`` /
  ``cluster`` snapshots from one consistent sweep;
* :func:`cluster_routes` — the coordinator's routes for the one
  :class:`~repro.obs.export.MetricsExporter`: ``/cluster/metrics``
  (Prometheus text) and ``/cluster/metrics.json`` (plus
  ``/cluster/slo.json`` when an SLO monitor is wired).

All outputs use the registry ``snapshot()`` schema, so every existing
renderer (``top``, the shell) works on them unchanged.
"""

from __future__ import annotations

import json

from repro.obs.export import JSON_TYPE, PROMETHEUS_TYPE, to_prometheus
from repro.obs.metrics import bucket_quantile, cumulative_at

__all__ = [
    "MetricsAggregator",
    "cluster_routes",
    "merge_snapshots",
    "rollup",
]


def merge_snapshots(
    snapshots: dict[str, dict],
    node_labels: dict[str, dict] | None = None,
) -> dict:
    """One snapshot holding every node's series, node-labelled.

    ``snapshots`` maps node id → ``registry.snapshot()`` dict.  Each
    series gains ``{"replica": node_id}`` plus any extra labels from
    ``node_labels[node_id]`` (the aggregator adds ``shard``).  Families
    keep the kind/help of their first appearance; a node whose family
    kind disagrees (mixed versions mid-upgrade) is skipped for that
    family rather than corrupting the merge.
    """
    merged: dict[str, dict] = {}
    for node_id in sorted(snapshots):
        extra = {"replica": node_id}
        extra.update((node_labels or {}).get(node_id, {}))
        for name, family in snapshots[node_id].items():
            target = merged.get(name)
            if target is None:
                target = merged[name] = {
                    "kind": family["kind"],
                    "help": family.get("help", ""),
                    "series": [],
                }
            elif target["kind"] != family["kind"]:
                continue
            for series in family["series"]:
                entry = dict(series)
                labels = dict(series.get("labels") or {})
                labels.update(extra)
                entry["labels"] = labels
                target["series"].append(entry)
    return merged


def rollup(snapshot: dict, drop: tuple[str, ...] = ("replica",)) -> dict:
    """Merge series that collide once ``drop`` labels are removed.

    Counters and gauges sum; histograms merge cumulative buckets and
    recompute count/sum/mean and quantile estimates.  The result is
    again snapshot-schema, so it nests (roll per-replica up to
    per-shard, then to cluster).
    """
    out: dict[str, dict] = {}
    for name, family in snapshot.items():
        groups: dict[tuple, list[dict]] = {}
        order: list[tuple] = []
        for series in family["series"]:
            labels = {
                k: v
                for k, v in (series.get("labels") or {}).items()
                if k not in drop
            }
            key = tuple(sorted(labels.items()))
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(series)
        merged_series = []
        for key in order:
            members = groups[key]
            entry: dict = {"labels": dict(key)}
            if family["kind"] == "histogram":
                entry.update(_merge_histograms(members))
            else:
                entry["value"] = sum(
                    float(m.get("value", 0.0)) for m in members
                )
            merged_series.append(entry)
        out[name] = {
            "kind": family["kind"],
            "help": family.get("help", ""),
            "series": merged_series,
        }
    return out


def _merge_histograms(members: list[dict]) -> dict:
    bounds: set[float] = set()
    for member in members:
        for b, _count in member.get("buckets") or []:
            bounds.add(float(b))
    ordered = sorted(bounds)
    merged = [
        [b, sum(cumulative_at(m.get("buckets") or [], b) for m in members)]
        for b in ordered
    ]
    count = sum(int(m.get("count", 0)) for m in members)
    total = sum(float(m.get("sum", 0.0)) for m in members)
    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "p50": bucket_quantile(merged, 0.50),
        "p90": bucket_quantile(merged, 0.90),
        "p99": bucket_quantile(merged, 0.99),
        "buckets": merged,
    }


class MetricsAggregator:
    """Scrape every replica's registry; merge into cluster rollups.

    ``targets`` is a zero-argument callable returning
    ``[(replica_id, shard_id, address), ...]`` — the coordinator derives
    it from the current map so the aggregator follows promotions and
    splits without replumbing.  ``management_factory(address)`` dials a
    node's management RPC (injectable for loopback tests).
    """

    def __init__(self, targets, management_factory) -> None:
        self.targets = targets
        self.management_factory = management_factory
        self.scrapes = 0
        self.unreachable = 0

    def scrape(self) -> dict:
        """One consistent sweep: per-replica, per-shard and cluster views.

        Returns ``{"nodes": {replica_id: {shard, address, reachable}},
        "per_replica": ..., "per_shard": ..., "cluster": ...}`` — the
        three snapshots are all derived from the *same* set of per-node
        scrapes, so their totals agree by construction (what the cluster
        smoke check asserts).
        """
        snapshots: dict[str, dict] = {}
        node_labels: dict[str, dict] = {}
        nodes: dict[str, dict] = {}
        for (replica_id, shard_id, address), snapshot, error in dial_each(
            self.targets(), self.management_factory, lambda mgmt: mgmt.metrics()
        ):
            info: dict = {"shard": shard_id, "address": address}
            if error is None:
                snapshots[replica_id] = snapshot
                info["reachable"] = True
            else:
                info["reachable"] = False
                info["error"] = error
                self.unreachable += 1
            node_labels[replica_id] = {"shard": shard_id}
            nodes[replica_id] = info
        per_replica = merge_snapshots(snapshots, node_labels)
        self.scrapes += 1
        return {
            "nodes": nodes,
            "per_replica": per_replica,
            "per_shard": rollup(per_replica, drop=("replica",)),
            "cluster": rollup(per_replica, drop=("replica", "shard")),
        }

    def prometheus_text(self, scrape: dict | None = None) -> str:
        """Cluster rollup + per-shard series as one Prometheus page.

        Each family appears once; its series are the per-shard rollups
        (labelled ``shard="..."``) followed by the shard-less cluster
        total, so both "sum by shard" and the grand total scrape clean.
        """
        if scrape is None:
            scrape = self.scrape()
        combined = {
            name: dict(family, series=list(family["series"]))
            for name, family in scrape["per_shard"].items()
        }
        for name, family in scrape["cluster"].items():
            combined.setdefault(name, dict(family, series=[]))["series"].extend(
                family["series"]
            )
        return to_prometheus(combined)


def cluster_routes(aggregator: MetricsAggregator, slo_status=None) -> dict:
    """The coordinator's HTTP routes for the one metrics exporter.

    ``/cluster/metrics`` (also ``/metrics`` and ``/``) serves the
    Prometheus page, ``/cluster/metrics.json`` (also ``/metrics.json``)
    one whole scrape; ``slo_status``, an optional zero-argument callable,
    serves ``/cluster/slo.json`` (also ``/slo.json``).
    """

    def page():
        return PROMETHEUS_TYPE, aggregator.prometheus_text()

    def scrape():
        return JSON_TYPE, json.dumps(aggregator.scrape(), sort_keys=True)

    routes = {
        "/cluster/metrics": page, "/metrics": page, "/": page,
        "/cluster/metrics.json": scrape, "/metrics.json": scrape,
    }
    if slo_status is not None:
        routes["/cluster/slo.json"] = routes["/slo.json"] = lambda: (
            JSON_TYPE, json.dumps(slo_status(), sort_keys=True)
        )
    return routes


def dial_each(targets, management_factory, call):
    """Dial every target's management RPC, ``call`` it once, close it.

    ``targets`` holds tuples whose last item is the node's address.
    Yields ``(target, result, None)`` per reachable node and ``(target,
    None, error_text)`` per node that could not be dialled or answered:
    an unreachable node is reported, never fatal to the sweep.
    """
    for target in targets:
        try:
            mgmt = management_factory(target[-1])
            try:
                result = call(mgmt)
            finally:
                _close_quietly(mgmt)
        except Exception as exc:
            yield target, None, f"{exc}"
            continue
        yield target, result, None


def _close_quietly(client) -> None:
    try:
        client.close()
    except Exception:
        pass
