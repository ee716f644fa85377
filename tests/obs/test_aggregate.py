"""Metrics aggregation: node-labelled merges, rollups, cluster scrapes."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.aggregate import (
    MetricsAggregator,
    cluster_routes,
    merge_snapshots,
    rollup,
)
from repro.obs.export import MetricsExporter, to_prometheus
from repro.obs.metrics import MetricsRegistry, bucket_quantile


def node_registry(updates: int, latency: float) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("db_updates_total", "updates").inc(updates)
    histogram = registry.histogram(
        "db_update_seconds", "latency", buckets=(0.01, 0.1, 1.0)
    )
    for _ in range(updates):
        histogram.observe(latency)
    registry.gauge("db_health_state", "health").set(0)
    return registry


class FakeManagement:
    def __init__(self, registry, fail=False):
        self.registry = registry
        self.fail = fail

    def metrics(self):
        if self.fail:
            raise ConnectionError("scrape refused")
        return self.registry.snapshot()


def aggregator_over(nodes: dict) -> MetricsAggregator:
    """``nodes`` maps replica_id -> (shard_id, FakeManagement)."""
    return MetricsAggregator(
        lambda: [
            (rid, shard, f"addr:{rid}") for rid, (shard, _m) in nodes.items()
        ],
        lambda address: nodes[address.split(":", 1)[1]][1],
    )


class TestMergeAndRollup:
    def test_merge_labels_every_series_with_its_node(self):
        merged = merge_snapshots(
            {
                "r1": node_registry(3, 0.05).snapshot(),
                "r2": node_registry(5, 0.05).snapshot(),
            },
            node_labels={"r1": {"shard": "s0"}, "r2": {"shard": "s1"}},
        )
        series = merged["db_updates_total"]["series"]
        assert {s["labels"]["replica"] for s in series} == {"r1", "r2"}
        assert {s["labels"]["shard"] for s in series} == {"s0", "s1"}

    def test_kind_conflicts_are_skipped_not_merged(self):
        bad = MetricsRegistry()
        bad.gauge("db_updates_total", "imposter").set(99)
        merged = merge_snapshots(
            {
                "r1": node_registry(3, 0.05).snapshot(),
                "r2": bad.snapshot(),
            }
        )
        family = merged["db_updates_total"]
        assert family["kind"] == "counter"
        assert len(family["series"]) == 1

    def test_rollup_sums_counters_across_replicas(self):
        merged = merge_snapshots(
            {
                "r1": node_registry(3, 0.05).snapshot(),
                "r2": node_registry(5, 0.05).snapshot(),
            }
        )
        total = rollup(merged, drop=("replica",))
        series = total["db_updates_total"]["series"]
        assert len(series) == 1
        assert series[0]["value"] == 8

    def test_rollup_merges_histogram_buckets_pointwise(self):
        merged = merge_snapshots(
            {
                "fast": node_registry(10, 0.005).snapshot(),
                "slow": node_registry(10, 0.5).snapshot(),
            }
        )
        rolled = rollup(merged, drop=("replica",))
        entry = rolled["db_update_seconds"]["series"][0]
        assert entry["count"] == 20
        assert entry["mean"] == pytest.approx((10 * 0.005 + 10 * 0.5) / 20)
        # cumulative: 10 observations <= 0.01, all 20 <= 1.0
        buckets = dict(
            (float(b), c) for b, c in entry["buckets"]
        )
        assert buckets[0.01] == 10
        assert buckets[1.0] == 20
        # the merged p99 lands in the slow half — a true cluster p99
        assert entry["p99"] > 0.1

    def test_rollup_preserves_remaining_labels(self):
        merged = merge_snapshots(
            {"r1": node_registry(2, 0.05).snapshot()},
            node_labels={"r1": {"shard": "s0"}},
        )
        per_shard = rollup(merged, drop=("replica",))
        assert per_shard["db_updates_total"]["series"][0]["labels"] == {
            "shard": "s0"
        }
        cluster = rollup(merged, drop=("replica", "shard"))
        assert cluster["db_updates_total"]["series"][0]["labels"] == {}


class TestQuantiles:
    def test_interpolates_within_the_rank_bucket(self):
        buckets = [[0.1, 0.0], [0.2, 100.0]]
        assert bucket_quantile(buckets, 0.5) == pytest.approx(0.15)

    def test_inf_bucket_reports_its_lower_bound(self):
        buckets = [[1.0, 0.0], [float("inf"), 10.0]]
        assert bucket_quantile(buckets, 0.99) == pytest.approx(1.0)

    def test_empty_histogram_reports_zero(self):
        assert bucket_quantile([], 0.99) == 0.0
        assert bucket_quantile([[1.0, 0.0]], 0.99) == 0.0


class TestAggregator:
    def test_scrape_views_agree_by_construction(self):
        aggregator = aggregator_over(
            {
                "r1": ("s0", FakeManagement(node_registry(3, 0.01))),
                "r2": ("s0", FakeManagement(node_registry(4, 0.01))),
                "r3": ("s1", FakeManagement(node_registry(5, 0.01))),
            }
        )
        scrape = aggregator.scrape()
        per_node = sum(
            s["value"]
            for s in scrape["per_replica"]["db_updates_total"]["series"]
        )
        per_shard = sum(
            s["value"]
            for s in scrape["per_shard"]["db_updates_total"]["series"]
        )
        cluster = scrape["cluster"]["db_updates_total"]["series"][0]["value"]
        assert per_node == per_shard == cluster == 12
        assert len(scrape["per_shard"]["db_updates_total"]["series"]) == 2

    def test_unreachable_replicas_are_reported(self):
        aggregator = aggregator_over(
            {
                "r1": ("s0", FakeManagement(node_registry(3, 0.01))),
                "r2": ("s0", FakeManagement(None, fail=True)),
            }
        )
        scrape = aggregator.scrape()
        assert scrape["nodes"]["r1"]["reachable"]
        assert not scrape["nodes"]["r2"]["reachable"]
        assert aggregator.unreachable == 1
        assert (
            scrape["cluster"]["db_updates_total"]["series"][0]["value"] == 3
        )

    def test_prometheus_text_has_shard_series_and_cluster_total(self):
        aggregator = aggregator_over(
            {
                "r1": ("s0", FakeManagement(node_registry(3, 0.01))),
                "r2": ("s1", FakeManagement(node_registry(4, 0.01))),
            }
        )
        text = aggregator.prometheus_text()
        assert 'db_updates_total{shard="s0"} 3' in text
        assert 'db_updates_total{shard="s1"} 4' in text
        assert "\ndb_updates_total 7" in text
        # histograms render cumulative buckets with le labels
        assert 'db_update_seconds_bucket{shard="s0",le="+Inf"}' in text


class TestSnapshotToPrometheus:
    def test_round_trips_the_snapshot_schema(self):
        snapshot = merge_snapshots(
            {"r1": node_registry(2, 0.05).snapshot()}
        )
        text = to_prometheus(snapshot)
        assert "# TYPE db_updates_total counter" in text
        assert 'db_updates_total{replica="r1"} 2' in text
        assert 'db_update_seconds_count{replica="r1"} 2' in text


class TestClusterExporterHttp:
    def make(self, slo_status=None):
        aggregator = aggregator_over(
            {"r1": ("s0", FakeManagement(node_registry(3, 0.01)))}
        )
        return MetricsExporter(cluster_routes(aggregator, slo_status=slo_status))

    def get(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        ) as response:
            return response.read().decode()

    def test_serves_cluster_metrics_text_and_json(self):
        with self.make() as exporter:
            text = self.get(exporter.port, "/cluster/metrics")
            assert "db_updates_total" in text
            parsed = json.loads(
                self.get(exporter.port, "/cluster/metrics.json")
            )
            assert parsed["nodes"]["r1"]["reachable"]

    def test_slo_route_404s_without_a_monitor(self):
        with self.make() as exporter:
            with pytest.raises(urllib.error.HTTPError) as info:
                self.get(exporter.port, "/cluster/slo.json")
            assert info.value.code == 404

    def test_slo_route_serves_the_status_callable(self):
        with self.make(slo_status=lambda: {"alerting": []}) as exporter:
            parsed = json.loads(self.get(exporter.port, "/cluster/slo.json"))
            assert parsed == {"alerting": []}
