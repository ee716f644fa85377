"""Exporters: Prometheus text, JSON, the slow-op log, and the HTTP endpoint."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.export import (
    MetricsExporter,
    SlowOpLog,
    merge_trees,
    node_routes,
    to_json,
    to_prometheus,
    trace_payload,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, child_span, span_names
from repro.sim.clock import SimClock


class TestPrometheusText:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Total hits.").inc(3)
        text = to_prometheus(registry.snapshot())
        assert "# HELP hits_total Total hits.\n" in text
        assert "# TYPE hits_total counter\n" in text
        assert "\nhits_total 3\n" in text

    def test_labels_and_escaping(self):
        registry = MetricsRegistry()
        family = registry.gauge("lag", "Lag.", labelnames=("peer",))
        family.labels('we"st\\1\n').set(2)
        text = to_prometheus(registry.snapshot())
        assert 'lag{peer="we\\"st\\\\1\\n"} 2' in text

    def test_histogram_cumulative_buckets_and_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(50.0)
        text = to_prometheus(registry.snapshot())
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text
        assert "h_seconds_sum 50.55" in text

    def test_float_values_keep_precision(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc(0.125)
        assert "\nx_total 0.125\n" in to_prometheus(registry.snapshot())


class TestJson:
    def test_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.histogram("h", buckets=(1.0,)).observe(2.0)
        decoded = json.loads(to_json(registry))
        assert decoded["c_total"]["series"][0]["value"] == 1.0
        # +Inf is not valid strict JSON; the snapshot keeps it as the
        # Python float and json emits "Infinity", which loads back.
        assert decoded["h"]["series"][0]["buckets"][-1][0] == float("inf")


class TestSlowOpLog:
    def _span(self, seconds: float, name: str = "op"):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_span(name)
        clock.advance(seconds)
        span.end()
        return span

    def test_threshold_filters(self):
        log = SlowOpLog(threshold_seconds=0.1)
        assert log.offer(self._span(0.05)) is False
        assert log.offer(self._span(0.2)) is True
        assert log.offered == 2
        assert log.retained == 1
        assert [e["name"] for e in log.entries()] == ["op"]

    def test_capacity_ring(self):
        log = SlowOpLog(threshold_seconds=0.0, capacity=2)
        for name in ("a", "b", "c"):
            log.offer(self._span(0.01, name))
        assert [e["name"] for e in log.entries()] == ["b", "c"]

    def test_format_slowest_recent_first(self):
        log = SlowOpLog(threshold_seconds=0.0)
        log.offer(self._span(0.01, "older"))
        log.offer(self._span(0.02, "newer"))
        lines = log.format().splitlines()
        assert "newer" in lines[1]
        assert "older" in lines[2]

    def test_format_when_empty(self):
        assert "no operations over" in SlowOpLog(threshold_seconds=0.25).format()

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowOpLog(threshold_seconds=-1)
        with pytest.raises(ValueError):
            SlowOpLog(capacity=0)

    def test_clear(self):
        log = SlowOpLog(threshold_seconds=0.0)
        log.offer(self._span(0.01))
        log.clear()
        assert log.entries() == []


class TestTracePayloadAndMerge:
    def test_trace_payload_defaults_to_latest(self):
        tracer = Tracer(clock=SimClock())
        tracer.start_span("first").end()
        tracer.start_span("second").end()
        assert [s["name"] for s in trace_payload(tracer)] == ["second"]
        assert trace_payload(Tracer(clock=SimClock())) == []

    def test_merge_trees_joins_processes_and_dedups(self):
        client = Tracer(clock=SimClock())
        server = Tracer(clock=SimClock())
        with client.span("rpc.client.bind") as client_side:
            remote = server.start_span(
                "rpc.server.bind", parent=client_side.context()
            )
            with remote:
                with child_span("db.update"):
                    pass
        client_spans = [s.to_dict() for s in client.finished_spans()]
        server_spans = [s.to_dict() for s in server.finished_spans()]
        tree = merge_trees(client_spans, server_spans, server_spans)
        assert span_names(tree) == [
            "rpc.client.bind",
            "rpc.server.bind",
            "db.update",
        ]


class TestHttpEndpoint:
    def _get(self, exporter, path):
        url = f"http://127.0.0.1:{exporter.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read().decode()

    def test_serves_all_routes(self):
        registry = MetricsRegistry()
        registry.counter("up_total").inc()
        clock = SimClock()
        slow_log = SlowOpLog(threshold_seconds=0.0)
        tracer = Tracer(clock=clock, slow_log=slow_log)
        with tracer.span("op"):
            clock.advance(0.01)
        with MetricsExporter(
            node_routes(registry, tracer=tracer, slow_log=slow_log)
        ) as exporter:
            assert "up_total 1" in self._get(exporter, "/metrics")
            assert "up_total 1" in self._get(exporter, "/")
            decoded = json.loads(self._get(exporter, "/metrics.json"))
            assert decoded["up_total"]["series"][0]["value"] == 1.0
            spans = json.loads(self._get(exporter, "/trace.json"))
            assert [s["name"] for s in spans] == ["op"]
            assert "op" in self._get(exporter, "/trace")
            slow = json.loads(self._get(exporter, "/slowops.json"))
            assert [s["name"] for s in slow] == ["op"]

    def test_unknown_path_is_404(self):
        with MetricsExporter(node_routes(MetricsRegistry())) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(exporter, "/nope")
            assert excinfo.value.code == 404

    def test_trace_routes_404_without_tracer(self):
        with MetricsExporter(node_routes(MetricsRegistry())) as exporter:
            with pytest.raises(urllib.error.HTTPError):
                self._get(exporter, "/trace")
