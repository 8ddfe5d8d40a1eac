"""Structured tracing, metrics registry and campaign observability.

The pillars (see ``docs/observability.md``):

* :mod:`~repro.telemetry.metrics` — gem5-style statistics types
  (:class:`Counter`, :class:`Distribution`, :class:`Histogram`,
  :class:`Formula`) under a hierarchical :class:`MetricsRegistry`;
* :mod:`~repro.telemetry.events` / :mod:`~repro.telemetry.sinks` — the
  JSONL trace bus with ring-buffer and file sinks, zero-overhead when
  no bus is attached;
* :mod:`~repro.telemetry.campaign` — run manifests, worker heartbeats
  and live campaign status over a shared-directory campaign;
* :mod:`~repro.telemetry.flight` — the fault-propagation flight
  recorder: golden-run architectural digests and first-divergence
  scanning of faulty runs;
* :mod:`~repro.telemetry.pipeview` / :mod:`~repro.telemetry.report` —
  O3 pipeline visualization and deterministic campaign outcome reports,
  both rendered purely from captured data;
* :mod:`~repro.telemetry.profiler` — the simulator self-profiler:
  scoped-timer host-time attribution across CPU stages / caches /
  kernel / injector / sinks, SIGPROF sampling, folded flame-graph
  output and sim-rate (KIPS) gauges, zero-overhead when not installed;
* :mod:`~repro.telemetry.spans` — distributed span tracing across the
  NoW campaign with deterministic seed-derived ids (same seed, same
  trace), zero-overhead when no tracer is attached;
* :mod:`~repro.telemetry.timeline` — merges all workers' span logs into
  one Chrome trace-event JSON for Perfetto / ``chrome://tracing``;
* :mod:`~repro.telemetry.watchdog` — declarative campaign alert rules
  (dead-worker / stalled-experiment / throughput-collapse /
  outcome-drift) plus the ``gemfi dashboard`` live view and the
  ``alerts.jsonl`` journal.
"""

from .campaign import (
    CampaignStatus,
    PeriodicBeat,
    diff_stats,
    git_describe,
    parse_stats,
    read_claims,
    read_heartbeats,
    read_results,
    read_service_context,
    read_status,
    render_status,
    run_manifest,
    write_heartbeat,
)
from .events import (
    EVENT_KINDS,
    TraceBus,
    TraceEvent,
    events_from_jsonl,
    events_to_jsonl,
)
from .flight import (
    DivergenceScanner,
    FlightRecorder,
    GoldenFlightLog,
    hamming,
    regfile_checksum,
)
from .export import (
    OPENMETRICS_CONTENT_TYPE,
    labelled,
    parse_metric_name,
    parse_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
)
from .metrics import (
    Counter,
    Distribution,
    Formula,
    Histogram,
    MetricsRegistry,
    Scalar,
    Scope,
    format_value,
)
from .pipeview import collect_pipeline, render_from_events, render_pipeview
from .profiler import Profiler, SamplingProfiler, sim_rates
from .report import (
    CampaignReport,
    latency_histogram,
    load_share,
    render_html,
    render_markdown,
    render_report,
    render_text,
)
from .sinks import (
    JsonlFileSink,
    ListSink,
    RingBufferSink,
    follow_jsonl,
    read_jsonl,
)
from .spans import (
    JsonlSpanSink,
    ListSpanSink,
    Span,
    TraceContext,
    Tracer,
    load_spans,
    read_span_records,
    span_log_path,
)
from .timeline import (
    build_timeline,
    render_span_tree,
    render_timeline,
    render_timeline_svg,
    timeline_summary,
    validate_trace,
)
from .watchdog import (
    Alert,
    alerts_feed,
    append_alerts,
    dashboard_view,
    evaluate_alerts,
    read_alerts,
    render_dashboard,
    snapshot_share,
)

__all__ = [
    "Alert", "CampaignReport", "CampaignStatus", "Counter",
    "Distribution", "DivergenceScanner", "EVENT_KINDS",
    "FlightRecorder", "Formula", "GoldenFlightLog",
    "Histogram",
    "JsonlFileSink", "JsonlSpanSink", "ListSink", "ListSpanSink",
    "MetricsRegistry", "OPENMETRICS_CONTENT_TYPE", "PeriodicBeat",
    "Profiler", "RingBufferSink", "SamplingProfiler",
    "Scalar", "Scope", "Span", "TraceBus", "TraceContext", "TraceEvent",
    "Tracer", "alerts_feed", "append_alerts",
    "build_timeline",
    "collect_pipeline", "dashboard_view",
    "diff_stats", "evaluate_alerts", "events_from_jsonl",
    "events_to_jsonl", "follow_jsonl", "format_value", "git_describe",
    "hamming", "labelled", "latency_histogram", "load_share",
    "load_spans",
    "parse_metric_name", "parse_openmetrics", "parse_stats",
    "read_alerts", "read_claims", "read_heartbeats", "read_jsonl",
    "read_results",
    "read_service_context", "read_span_records", "read_status",
    "regfile_checksum",
    "render_dashboard", "render_from_events", "render_html",
    "render_markdown", "render_openmetrics", "render_pipeview",
    "render_report",
    "render_span_tree", "render_text",
    "render_status", "render_timeline", "render_timeline_svg",
    "run_manifest",
    "sanitize_metric_name", "sim_rates",
    "snapshot_share", "span_log_path", "timeline_summary",
    "validate_trace", "write_heartbeat",
]
