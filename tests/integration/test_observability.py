"""End-to-end observability over real TCP: scrape, trace, console.

The finer-grained behaviour lives in tests/obs; this file checks the
assembled system — a deployed node exporting HTTP metrics, a traced
client whose update assembles into one cross-process tree, and the
``repro.obs.smoke`` module CI runs.
"""

from __future__ import annotations

import io
import json
import urllib.request

from repro.nameserver import RemoteNameServer
from repro.nameserver.management import RemoteManagement
from repro.nameserver.serve import NodeOptions, build_node
from repro.obs import MetricsRegistry, Tracer, merge_trees, span_names
from repro.obs.smoke import run_smoke
from repro.rpc import TcpTransport
from repro.tools.top import render, run as top_run


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


class TestNodeMetricsEndpoint:
    def test_scrape_covers_all_layers(self, tmp_path):
        options = NodeOptions(str(tmp_path / "db"), metrics_port=0)
        with build_node(options) as node:
            client = RemoteNameServer(TcpTransport("127.0.0.1", node.port))
            client.bind("svc/a", 1)
            client.lookup("svc/a")
            base = f"http://127.0.0.1:{node.metrics_exporter.port}"
            scrape = _get(base + "/metrics")
            for name in (
                "db_updates_total 1",
                "rpc_server_calls_total",
                "replication_records_propagated_total",
                "storage_write_bytes_total",
            ):
                assert name in scrape
            decoded = json.loads(_get(base + "/metrics.json"))
            assert decoded["db_updates_total"]["series"][0]["value"] == 1.0
            client.close()

    def test_metrics_disabled_by_default(self, tmp_path):
        with build_node(NodeOptions(str(tmp_path / "db"))) as node:
            assert node.metrics_exporter is None


class TestCrossProcessTrace:
    def test_update_assembles_one_tree(self, tmp_path):
        options = NodeOptions(str(tmp_path / "db"))
        with build_node(options) as node:
            client_tracer = Tracer()
            transport = TcpTransport("127.0.0.1", node.port)
            client = RemoteNameServer(
                transport, registry=MetricsRegistry(), tracer=client_tracer
            )
            client.bind("svc/traced", {"x": 1})
            trace_id = client_tracer.last_trace_id()
            manager = RemoteManagement(transport)
            tree = merge_trees(
                [s.to_dict() for s in client_tracer.finished_spans(trace_id)],
                manager.trace_spans(trace_id),
            )
            names = span_names(tree)
            assert names[0] == "rpc.client.bind"
            for required in (
                "rpc.server.bind",
                "db.update",
                "db.log_append",
                "db.commit_barrier",
                "commit.fsync",
            ):
                assert required in names
            client.close()


class TestTopConsole:
    def test_one_shot_frame(self, tmp_path):
        with build_node(NodeOptions(str(tmp_path / "db"))) as node:
            client = RemoteNameServer(TcpTransport("127.0.0.1", node.port))
            client.bind("k", 1)
            manager = RemoteManagement(TcpTransport("127.0.0.1", node.port))
            out = io.StringIO()
            status = top_run(manager, out, interval=0.01, iterations=2)
            assert status == 0
            text = out.getvalue()
            assert "name server 'primary'" in text
            assert "db_updates_total" in text
            assert "HISTOGRAM" in text
            manager.close()
            client.close()

    def test_render_rates_from_deltas(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(10)
        before = registry.snapshot()
        registry.counter("hits_total").inc(5)
        after = registry.snapshot()
        frame = render({"replica_id": "r"}, after, before, interval=1.0)
        assert "hits_total" in frame
        assert "5.0" in frame  # 5 increments over 1 s


    def test_replay_progress_line_only_while_below_one(self):
        registry = MetricsRegistry()
        registry.gauge("recovery_log_bytes").set(2000)
        registry.gauge("recovery_replay_bytes").set(500)
        registry.gauge("recovery_replay_entries").set(7)
        frame = render({"replica_id": "r"}, registry.snapshot())
        assert "replaying log: 25%" in frame and "7 entries" in frame
        registry.gauge("recovery_replay_bytes").set(2000)
        assert "replaying log" not in render({"replica_id": "r"}, registry.snapshot())


class TestSmokeModule:
    def test_smoke_passes_against_a_live_node(self):
        out = io.StringIO()
        assert run_smoke(out) == 0, out.getvalue()
        assert "observability smoke OK" in out.getvalue()
