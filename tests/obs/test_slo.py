"""SLO targets and the multi-window burn-rate monitor."""

from __future__ import annotations

import pytest

from repro.nameserver import RemoteNameServer
from repro.nameserver.serve import NodeOptions, build_node
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SloMonitor,
    SloTarget,
    default_slo_targets,
    load_slo_config,
)
from repro.rpc import TcpTransport
from repro.sim.clock import SimClock


def latency_target(**overrides) -> SloTarget:
    options = dict(
        name="update_latency",
        kind="latency",
        objective=0.99,
        metric="db_update_seconds",
        threshold_s=0.25,
        fast_window_s=60.0,
        slow_window_s=300.0,
        burn_threshold=6.0,
    )
    options.update(overrides)
    return SloTarget(**options)


def snapshot_with(updates_fast: int, updates_slow: int) -> dict:
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "db_update_seconds", "latency", buckets=(0.25, 1.0)
    )
    for _ in range(updates_fast):
        histogram.observe(0.01)
    for _ in range(updates_slow):
        histogram.observe(0.9)
    return registry.snapshot()


class TestSloTarget:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            SloTarget(name="x", kind="vibes", objective=0.9)

    def test_objective_must_be_a_ratio(self):
        with pytest.raises(ValueError, match="objective"):
            latency_target(objective=1.0)

    def test_windows_must_be_ordered(self):
        with pytest.raises(ValueError, match="window"):
            latency_target(fast_window_s=600.0, slow_window_s=60.0)

    def test_latency_counts_within_threshold_as_good(self):
        good, total = latency_target().count(snapshot_with(9, 1))
        assert (good, total) == (9.0, 10.0)

    def test_latency_filters_by_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "rpc_server_method_seconds",
            "per-method",
            labelnames=("method",),
            buckets=(0.1, 1.0),
        )
        histogram.labels("lookup").observe(0.01)
        histogram.labels("bind").observe(0.9)
        target = latency_target(
            metric="rpc_server_method_seconds",
            labels={"method": "lookup"},
            threshold_s=0.1,
        )
        assert target.count(registry.snapshot()) == (1.0, 1.0)

    def test_error_ratio_counts_bad_against_totals(self):
        registry = MetricsRegistry()
        registry.counter("db_updates_total", "").inc(95)
        registry.counter("db_updates_rejected_total", "").inc(5)
        target = SloTarget(
            name="error_rate",
            kind="error_ratio",
            objective=0.999,
            bad_metric="db_updates_rejected_total",
            total_metrics=("db_updates_total", "db_updates_rejected_total"),
        )
        assert target.count(registry.snapshot()) == (95.0, 100.0)

    def test_gauge_max_is_one_trial_per_count(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("db_health_state", "", labelnames=("r",))
        gauge.labels("a").set(0)
        gauge.labels("b").set(2)  # one failed replica fails the slice
        target = SloTarget(
            name="write_availability",
            kind="gauge_max",
            objective=0.999,
            metric="db_health_state",
            bound=0.5,
        )
        assert target.count(registry.snapshot()) == (0.0, 1.0)
        gauge.labels("b").set(0)
        assert target.count(registry.snapshot()) == (1.0, 1.0)


class TestConfig:
    def test_defaults_cover_the_issue_targets(self):
        names = {t.name for t in default_slo_targets()}
        assert names == {
            "update_latency",
            "enquire_latency",
            "error_rate",
            "write_availability",
        }

    def test_every_stock_target_reads_a_family_a_node_exports(
        self, tmp_path
    ):
        """A target over a metric no node registers can never burn."""
        options = NodeOptions(directory=str(tmp_path))
        with build_node(options) as node:
            remote = RemoteNameServer(TcpTransport("127.0.0.1", node.port))
            try:
                remote.bind("svc/web", 1)
                assert remote.lookup("svc/web") == 1
            finally:
                remote.close()
            exported = set(node.registry.snapshot())
        for target in default_slo_targets():
            named = {target.metric, target.bad_metric, *target.total_metrics}
            missing = named - {""} - exported
            assert not missing, f"{target.name} reads {sorted(missing)}"

    def test_loads_json_and_rejects_unknown_fields(self):
        targets = load_slo_config(
            '{"slos": [{"name": "u", "kind": "latency", "objective": 0.9,'
            ' "metric": "db_update_seconds", "threshold_s": 0.5}]}'
        )
        assert targets[0].name == "u"
        with pytest.raises(ValueError, match="unknown fields"):
            load_slo_config({"slos": [{"name": "u", "kind": "latency",
                                       "objective": 0.9, "typo": 1}]})
        with pytest.raises(ValueError, match="slos"):
            load_slo_config("[]")


class TestBurnRates:
    def monitor(self, flight=None):
        clock = SimClock()
        monitor = SloMonitor(
            targets=[latency_target()], clock=clock, flight=flight
        )
        return monitor, clock

    def feed(self, monitor, clock, fast, slow, ticks, step=10.0,
             registry=None):
        """Cumulative traffic: reuse ``registry`` across feeds so the
        counters keep rising like a real node's would."""
        if registry is None:
            registry = MetricsRegistry()
        histogram = registry.histogram(
            "db_update_seconds", "latency", buckets=(0.25, 1.0)
        )
        for _ in range(ticks):
            for _ in range(fast):
                histogram.observe(0.01)
            for _ in range(slow):
                histogram.observe(0.9)
            clock.advance(step)
            monitor.observe(registry.snapshot())
        return registry

    def test_healthy_traffic_does_not_alert(self):
        monitor, clock = self.monitor()
        self.feed(monitor, clock, fast=100, slow=0, ticks=40)
        status = monitor.status()
        assert status["alerting"] == []
        assert status["targets"][0]["burn_fast"] == 0.0

    def test_sustained_burn_alerts_and_clears_with_flight_events(self):
        flight = FlightRecorder()
        monitor, clock = self.monitor(flight=flight)
        # 10% bad against a 1% budget: burn rate 10 over both windows.
        registry = self.feed(monitor, clock, fast=90, slow=10, ticks=40)
        statuses = monitor.evaluate()
        assert statuses[0]["alerting"]
        assert statuses[0]["burn_fast"] == pytest.approx(10.0, rel=0.2)
        kinds = [e["kind"] for e in flight.snapshot()]
        assert kinds.count("slo_burn_alert") == 1
        # recovery: clean traffic cools the fast window first
        self.feed(monitor, clock, fast=100, slow=0, ticks=10,
                  registry=registry)
        assert not monitor.evaluate()[0]["alerting"]
        kinds = [e["kind"] for e in flight.snapshot()]
        assert kinds.count("slo_burn_clear") == 1

    def test_a_fast_only_spike_does_not_alert(self):
        monitor, clock = self.monitor()
        # long healthy history, then one bad minute: the slow window
        # still holds the budget, so no alert (spike-resistant).
        registry = self.feed(monitor, clock, fast=100, slow=0, ticks=30)
        self.feed(monitor, clock, fast=20, slow=80, ticks=1, step=10.0,
                  registry=registry)
        status = monitor.status()
        target = status["targets"][0]
        assert target["burn_fast"] > target["burn_slow"]
        assert not target["alerting"] or target["burn_slow"] < 6.0

    def test_gauge_trials_accumulate_across_observations(self):
        clock = SimClock()
        target = SloTarget(
            name="write_availability",
            kind="gauge_max",
            objective=0.9,
            metric="db_health_state",
            bound=0.5,
            fast_window_s=30.0,
            slow_window_s=60.0,
            burn_threshold=2.0,
        )
        monitor = SloMonitor(targets=[target], clock=clock)
        registry = MetricsRegistry()
        gauge = registry.gauge("db_health_state", "")
        gauge.set(2)  # failed the whole time: burn = 1/budget = 10
        for _ in range(10):
            clock.advance(5.0)
            monitor.observe(registry.snapshot())
        status = monitor.evaluate()[0]
        assert status["burn_fast"] == pytest.approx(10.0)
        assert status["alerting"]

    def test_duplicate_target_names_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloMonitor(targets=[latency_target(), latency_target()])

    def test_status_counts_samples(self):
        monitor, clock = self.monitor()
        self.feed(monitor, clock, fast=10, slow=0, ticks=3)
        assert monitor.status()["samples"] == 3

    def test_format_renders_a_table(self):
        monitor, clock = self.monitor()
        self.feed(monitor, clock, fast=10, slow=0, ticks=3)
        table = monitor.format()
        assert "update_latency" in table
        assert "ok" in table
