"""Unified observability: metrics, tracing, exporters, and memory.

See :mod:`repro.obs.metrics`, :mod:`repro.obs.tracing`, and
:mod:`repro.obs.export` for the three original pillars;
:mod:`repro.obs.flight` (the always-on flight recorder / black box),
:mod:`repro.obs.profiler` (continuous stack sampling) and
:mod:`repro.obs.regress` (the benchmark-regression sentry) extend them
with memory of what happened and how fast it used to be.
``docs/OPERATIONS.md`` has the operator-facing metric catalogue,
trace-header format and the postmortem runbook.
"""

from repro.obs.aggregate import (
    MetricsAggregator,
    cluster_routes,
    merge_snapshots,
    rollup,
)
from repro.obs.collect import ClusterTraceCollector, critical_path, stage_of
from repro.obs.flight import (
    BLACKBOX_FILE,
    FLIGHT_FORMAT,
    FlightRecorder,
    load_blackbox,
)
from repro.obs.slo import (
    SloMonitor,
    SloTarget,
    default_slo_targets,
    load_slo_config,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.regress import metric
from repro.obs.export import (
    MetricsExporter,
    SlowOpLog,
    merge_trees,
    node_routes,
    to_json,
    to_prometheus,
    trace_payload,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    MetricError,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    SpanContext,
    Tracer,
    build_tree,
    child_span,
    current_span,
    extract,
    format_tree,
    maybe_span,
    span_names,
)

__all__ = [
    "BLACKBOX_FILE",
    "ClusterTraceCollector",
    "DEFAULT_BUCKETS",
    "FLIGHT_FORMAT",
    "FlightRecorder",
    "SIZE_BUCKETS",
    "MetricError",
    "MetricFamily",
    "MetricsAggregator",
    "MetricsExporter",
    "MetricsRegistry",
    "NULL_SPAN",
    "SloMonitor",
    "SloTarget",
    "SamplingProfiler",
    "SlowOpLog",
    "Span",
    "SpanContext",
    "Tracer",
    "build_tree",
    "child_span",
    "cluster_routes",
    "critical_path",
    "current_span",
    "default_slo_targets",
    "extract",
    "format_tree",
    "load_blackbox",
    "load_slo_config",
    "maybe_span",
    "merge_snapshots",
    "merge_trees",
    "metric",
    "node_routes",
    "rollup",
    "span_names",
    "stage_of",
    "to_json",
    "to_prometheus",
    "trace_payload",
]
