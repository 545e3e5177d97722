"""Dependency-free observability: metrics, traces, run logs, profiles.

The measurement substrate behind the Table 4 runtime accounting and every
future performance claim.  The pieces:

``repro.telemetry.metrics``
    ``Counter`` / ``Gauge`` / ``Histogram`` and the labeled
    :class:`MetricsRegistry` with deterministic JSON export and
    cross-process snapshot merging.
``repro.telemetry.trace``
    Nested context-manager :class:`Span` tracing via :class:`Tracer`, with
    stable trace/span/parent IDs that survive worker-pool fan-out, and the
    per-stage :class:`StageTimer` view over it.
``repro.telemetry.events``
    Schema-versioned JSONL :class:`RunLogger` (crash-tolerant, incremental,
    thread-safe) and the ``EVENTS`` table that defines the event vocabulary.
``repro.telemetry.hooks``
    The :class:`TelemetryHook` callback protocol threaded through training.
``repro.telemetry.export``
    Chrome-trace-event JSON for merged traces; Prometheus text and JSON
    snapshots for aggregated metrics.
``repro.telemetry.profile``
    The per-layer :class:`LayerProfiler` and its :class:`ProfileReport`.
``repro.telemetry.report``
    :func:`build_report`: correlate log + trace + metrics + profile into
    the :class:`RunReport` behind ``repro report``.
``repro.telemetry.buildinfo``
    :func:`build_fingerprint`: version + git SHA stamped into ``run_start``
    events and BENCH artifacts.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    activate_registry,
    get_active_registry,
    get_registry,
)
from .trace import (
    Span,
    SpanRecord,
    StageTimer,
    TraceContext,
    Tracer,
    activate_tracer,
    get_active_tracer,
    next_trace_id,
)
from .events import (
    BREAKER_STATES,
    BREAKER_TRANSITIONS,
    CANARY_VERDICTS,
    EVENT_TYPES,
    SCHEMA_VERSION,
    TRIAL_STATUSES,
    RunLogger,
    next_run_id,
    read_run_log,
    split_runs,
    validate_run_log,
)
from .hooks import NULL_HOOK, CompositeHook, RunLoggerHook, TelemetryHook
from .buildinfo import build_fingerprint
from .export import (
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from .profile import LayerProfiler, LayerStats, ProfileReport, profiled
from .report import RunReport, RunSummary, WorkerUsage, build_report

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "activate_registry",
    "get_active_registry",
    "get_registry",
    "Span",
    "SpanRecord",
    "StageTimer",
    "TraceContext",
    "Tracer",
    "activate_tracer",
    "get_active_tracer",
    "next_trace_id",
    "BREAKER_STATES",
    "BREAKER_TRANSITIONS",
    "CANARY_VERDICTS",
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "TRIAL_STATUSES",
    "RunLogger",
    "next_run_id",
    "read_run_log",
    "split_runs",
    "validate_run_log",
    "NULL_HOOK",
    "CompositeHook",
    "RunLoggerHook",
    "TelemetryHook",
    "build_fingerprint",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "LayerProfiler",
    "LayerStats",
    "ProfileReport",
    "profiled",
    "RunReport",
    "RunSummary",
    "WorkerUsage",
    "build_report",
]
