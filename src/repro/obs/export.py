"""Exporters: Prometheus text, JSON snapshots, the slow-op log, and HTTP.

Everything here reads the registry/tracer and formats; nothing mutates.
The HTTP server is stdlib-only (``http.server``) so a node can expose
``/metrics`` without any new dependency.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer, build_tree, format_tree


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(pairs) -> str:
    text = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs
    )
    return "{" + text + "}" if text else ""


def to_prometheus(snapshot: dict) -> str:
    """A ``registry.snapshot()``-schema dict in Prometheus text format.

    Families render in name order, labels in the order each series holds
    them.  Histograms expose the standard cumulative ``_bucket{le=...}``
    series plus ``_sum`` and ``_count``; the terminal bucket is
    ``le="+Inf"``.  The node page renders its registry's snapshot, the
    coordinator its merged cluster rollups — one renderer for both.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        lines.append(f"# HELP {name} {family.get('help', '')}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for series in family["series"]:
            labels = list((series.get("labels") or {}).items())
            text = _format_labels(labels)
            if family["kind"] == "histogram":
                for bound, count in series.get("buckets") or []:
                    le = _format_labels(labels + [("le", _format_value(float(bound)))])
                    lines.append(f"{name}_bucket{le} {_format_value(float(count))}")
                lines.append(f"{name}_sum{text} {_format_value(float(series.get('sum', 0.0)))}")
                lines.append(f"{name}_count{text} {int(series.get('count', 0))}")
            else:
                lines.append(f"{name}{text} {_format_value(float(series.get('value', 0.0)))}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, indent: int | None = None) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


class SlowOpLog:
    """A bounded ring of the slowest-recent spans: ops over ``threshold``.

    Tracers ``offer()`` every finished span; only those at least
    ``threshold_seconds`` long are kept.  ``entries()`` returns the
    retained spans newest-last as plain dicts, ready for JSON or the
    shell's ``slowops`` command.
    """

    def __init__(self, threshold_seconds: float = 0.1, capacity: int = 256) -> None:
        if threshold_seconds < 0:
            raise ValueError("slow-op threshold must be >= 0")
        if capacity < 1:
            raise ValueError("slow-op capacity counts from 1")
        self.threshold_seconds = threshold_seconds
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.offered = 0
        self.retained = 0

    def offer(self, span: Span) -> bool:
        duration = span.duration()
        with self._lock:
            self.offered += 1
            if duration < self.threshold_seconds:
                return False
            self.retained += 1
            self._entries.append(span.to_dict())
            return True

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def format(self, limit: int = 20) -> str:
        entries = self.entries()[-limit:]
        if not entries:
            return (
                f"(no operations over {self.threshold_seconds * 1000:.0f} ms; "
                f"{self.offered} observed)"
            )
        lines = [f"{'duration':>12}  {'span':<32} attrs"]
        for entry in reversed(entries):  # slowest-recent first
            attrs = entry.get("attrs") or {}
            extra = " ".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
            lines.append(
                f"{entry['duration'] * 1000:10.3f}ms  {entry['name']:<32} {extra}"
            )
        return "\n".join(lines)


def trace_payload(tracer: Tracer, trace_id: str | None = None) -> list[dict]:
    """Span dicts for one trace (or the latest), for management export."""
    if trace_id is None:
        trace_id = tracer.last_trace_id()
    if trace_id is None:
        return []
    return [span.to_dict() for span in tracer.finished_spans(trace_id)]


PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
TEXT_TYPE = "text/plain; charset=utf-8"
JSON_TYPE = "application/json"


def node_routes(
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    slow_log: SlowOpLog | None = None,
    profiler=None,
) -> dict:
    """One node's HTTP routes for :class:`MetricsExporter`.

    ``/metrics`` (also ``/``, Prometheus text) and ``/metrics.json``
    always; ``/trace`` (latest trace rendered) and ``/trace.json`` (its
    span dicts) with a tracer; ``/slowops.json`` with a slow-op log;
    ``/profile`` (collapsed flame stacks) and ``/profile.json`` with a
    profiler.  A route whose source is absent is left out, so it 404s.
    """

    def metrics():
        return PROMETHEUS_TYPE, to_prometheus(registry.snapshot())

    def latest_tree():
        trace_id = tracer.last_trace_id()
        return TEXT_TYPE, format_tree(tracer.tree(trace_id) if trace_id else None) + "\n"

    routes = {
        "/": metrics,
        "/metrics": metrics,
        "/metrics.json": lambda: (JSON_TYPE, to_json(registry, indent=2)),
    }
    if tracer is not None:
        routes["/trace"] = latest_tree
        routes["/trace.json"] = lambda: (JSON_TYPE, json.dumps(trace_payload(tracer)))
    if slow_log is not None:
        routes["/slowops.json"] = lambda: (JSON_TYPE, json.dumps(slow_log.entries()))
    if profiler is not None:
        routes["/profile"] = lambda: (TEXT_TYPE, profiler.collapsed() + "\n")
        routes["/profile.json"] = lambda: (JSON_TYPE, json.dumps(profiler.snapshot()))
    return routes


class _RouteHandler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        routes = self.server.routes  # type: ignore[attr-defined]
        route = routes.get(self.path.split("?", 1)[0])
        if route is None:
            self.send_error(404, "unknown path")
            return
        try:
            content_type, text = route()
        except Exception as exc:  # noqa: BLE001 - e.g. a scrape racing shutdown
            # !a: the reason goes out in the Latin-1 status line, and a
            # character outside it would drop the reply instead
            self.send_error(503, f"scrape failed: {exc!a}")
            return
        body = text.encode()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: object) -> None:
        pass  # keep scrapes out of stderr


class MetricsExporter:
    """A background HTTP endpoint serving a table of routes.

    ``routes`` maps a path to a zero-argument callable returning
    ``(content_type, body_text)`` — :func:`node_routes` builds a node's,
    :func:`repro.obs.aggregate.cluster_routes` the coordinator's.  An
    unknown path answers 404; a route that raises answers 503 ``scrape
    failed: ...``.  Binds ``host:port`` (port 0 picks a free port — read
    it back from :attr:`port`).

    The lifecycle is deterministic and reusable: the socket is bound at
    construction (so the port is known before :meth:`start`),
    :meth:`stop` joins the server thread and closes the socket — leaking
    neither — and a stopped exporter can :meth:`start` again, rebinding
    the *same* port it served before.
    """

    def __init__(
        self, routes: dict, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.routes = routes
        self._server: ThreadingHTTPServer | None = self._bind((host, port))
        self._bound = self._server.server_address[:2]
        self._thread: threading.Thread | None = None

    def _bind(self, address: tuple[str, int]) -> ThreadingHTTPServer:
        server = ThreadingHTTPServer(address, _RouteHandler)
        server.daemon_threads = True
        server.routes = self.routes  # type: ignore[attr-defined]
        return server

    @property
    def host(self) -> str:
        return self._bound[0]

    @property
    def port(self) -> int:
        return self._bound[1]

    def start(self) -> "MetricsExporter":
        if self._thread is not None:
            return self
        if self._server is None:
            # Restart after stop(): rebind the port we served before, so
            # scrape configs pointing at this exporter stay valid.
            self._server = self._bind(self._bound)
            self._bound = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="obs-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving: join the thread, close the socket (idempotent).

        Safe whether or not :meth:`start` ever ran; after it returns no
        exporter thread is alive and the port is released.
        """
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._server is not None:
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def merge_trees(*span_dict_lists) -> dict | None:
    """Merge span dicts from several processes into one trace tree.

    The smoke test's workhorse: client-side spans plus the server's
    management-exported spans share the propagated trace id, so their
    union builds the full client → fsync tree.
    """
    merged: list[dict] = []
    seen: set[str] = set()
    for spans in span_dict_lists:
        for span in spans:
            if span["span_id"] in seen:
                continue
            seen.add(span["span_id"])
            merged.append(span)
    return build_tree(merged)
