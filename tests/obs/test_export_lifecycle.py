"""Exporter lifecycle: repeated start/stop cycles leak nothing."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

from repro.obs.aggregate import MetricsAggregator, cluster_routes
from repro.obs.export import MetricsExporter, node_routes
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler


def _scrape(exporter: MetricsExporter, path: str) -> bytes:
    url = f"http://{exporter.host}:{exporter.port}{path}"
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read()


class TestLifecycle:
    def test_repeated_cycles_keep_port_and_leak_no_threads(self):
        registry = MetricsRegistry()
        registry.counter("ticks_total").inc()
        exporter = MetricsExporter(node_routes(registry))
        port = exporter.port
        baseline_threads = threading.active_count()

        for _ in range(5):
            exporter.start()
            assert exporter.port == port
            assert b"ticks_total" in _scrape(exporter, "/metrics")
            exporter.stop()
            # The serving thread is joined, not abandoned.
            assert not any(
                t.name == "obs-metrics-http" for t in threading.enumerate()
            )
            # The port is actually released: we can bind it ourselves.
            probe = socket.socket()
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind((exporter.host, port))
            finally:
                probe.close()

        assert threading.active_count() <= baseline_threads + 1

    def test_stop_without_start_is_safe_and_releases_the_socket(self):
        exporter = MetricsExporter(node_routes(MetricsRegistry()))
        exporter.stop()
        exporter.stop()  # idempotent
        probe = socket.socket()
        try:
            probe.bind((exporter.host, exporter.port))
        finally:
            probe.close()

    def test_concurrent_scrapes_race_stop_without_torn_responses(self):
        """Scrapers hammering /metrics while stop() runs either get a
        whole response or a connection error — never a truncated body —
        and the server thread and port are fully released after."""
        registry = MetricsRegistry()
        registry.counter("ticks_total").inc()
        exporter = MetricsExporter(node_routes(registry))
        exporter.start()
        self._race_stop(exporter, "/metrics", b"ticks_total")
        assert not any(
            t.name == "obs-metrics-http" for t in threading.enumerate()
        )

    def test_cluster_exporter_survives_the_same_race(self):
        registry = MetricsRegistry()
        registry.counter("db_updates_total").inc(3)

        class OneNode:
            def metrics(self):
                return registry.snapshot()

        aggregator = MetricsAggregator(
            lambda: [("r1", "s0", "sim:r1")], lambda address: OneNode()
        )
        exporter = MetricsExporter(cluster_routes(aggregator))
        exporter.start()
        self._race_stop(exporter, "/cluster/metrics", b"db_updates_total")
        assert not any(
            t.name == "obs-metrics-http" for t in threading.enumerate()
        )

    def _race_stop(self, exporter, path, marker):
        url = f"http://{exporter.host}:{exporter.port}{path}"
        port = exporter.port
        done = threading.Event()
        bodies: list[bytes] = []

        def hammer():
            while not done.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=5) as response:
                        bodies.append(response.read())
                except Exception:
                    pass  # refused/reset once the listener is gone

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        for _ in range(200):  # let a few scrapes land first
            if len(bodies) >= 4:
                break
            time.sleep(0.01)
        exporter.stop()
        done.set()
        for worker in workers:
            worker.join(timeout=5)
        assert not any(worker.is_alive() for worker in workers)
        # every scrape that succeeded carries the complete render
        assert bodies
        assert all(marker in body for body in bodies)
        # the port is actually released: we can bind it ourselves
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((exporter.host, port))
        finally:
            probe.close()

    def test_profile_routes_served_when_profiler_attached(self):
        profiler = SamplingProfiler()
        profiler.sample_once()
        exporter = MetricsExporter(node_routes(MetricsRegistry(), profiler=profiler))
        with exporter:
            text = _scrape(exporter, "/profile").decode()
            assert text.strip()  # collapsed flame stacks
            snap = json.loads(_scrape(exporter, "/profile.json"))
            assert snap["samples"] == 1
        # Without a profiler the routes 404 rather than crash the server.
        bare = MetricsExporter(node_routes(MetricsRegistry()))
        with bare:
            try:
                _scrape(bare, "/profile")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
            else:  # pragma: no cover - the request must not succeed
                raise AssertionError("expected 404 without a profiler")

    def test_a_route_that_raises_answers_503_and_keeps_serving(self):
        class BrokenProfiler:
            def collapsed(self):
                raise RuntimeError("sampler gone, 5 € lost")

            def snapshot(self):
                return {"samples": 0}

        exporter = MetricsExporter(
            node_routes(MetricsRegistry(), profiler=BrokenProfiler())
        )
        with exporter:
            try:
                _scrape(exporter, "/profile")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                # non-Latin-1 error text is escaped, not fatal to the reply
                assert exc.reason == (
                    "scrape failed: RuntimeError('sampler gone, 5 \\u20ac lost')"
                )
            else:  # pragma: no cover - the request must not succeed
                raise AssertionError("expected 503 from a raising route")
            # the endpoint survives: the next scrape is served
            assert json.loads(_scrape(exporter, "/profile.json")) == {"samples": 0}
