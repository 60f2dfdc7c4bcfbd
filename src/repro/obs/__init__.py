"""Observability: structured lifecycle events, trace reports, exporters.

Zero overhead when disabled — every instrumented component holds
``bus = None`` by default and guards each emission with a single pointer
comparison.  Pass any :class:`EventSink` (anything with an ``emit``
method) to ``DynaSpAM(sink=...)`` (or the harness/CLI equivalents) to
record the full lifecycle stream.  :mod:`repro.obs.decisions` folds it,
as it streams, into one record per trace identity — the source of
``repro why``, ``repro explain``, ``repro study`` and the ``decisions``
report block — and :mod:`repro.obs.chrometrace` exports a recorded
stream for Perfetto.

Two clocks live side by side here: the *simulated* instrumentation above
counts cycles, while :mod:`repro.obs.runtime` (wall-clock span tracer),
:mod:`repro.obs.logging` (JSONL structured log), and
:mod:`repro.obs.progress` (live heartbeats) observe the *host* process —
see ``docs/observability.md``.
"""

from repro.obs.events import (
    EVENT_TYPES,
    Event,
    EventBus,
    EventSink,
    MemorySink,
    TeeSink,
)
from repro.obs.decisions import (
    TRACE_FATES,
    DecisionSink,
    TraceEventLog,
    attribute_lost_cycles,
    decisions_from_events,
    format_trace_id,
    render_explain,
    render_trace_detail,
    render_why,
)
from repro.obs.chrometrace import build_chrome_trace, write_chrome_trace
from repro.obs.accounting import (
    BUCKET_FIELDS,
    BUCKETS,
    bucket_breakdown,
    check_conservation,
    render_breakdown,
    render_conservation,
    render_utilization,
)
from repro.obs.diffing import (
    DiffError,
    diff_reports,
    load_report,
    render_diff,
)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.logging import RuntimeLog, log_record, open_log
from repro.obs.progress import ProgressTracker, render_heartbeat
from repro.obs.runtime import (
    TRACER,
    SpanRecord,
    SpanTracer,
    SpanWatchdog,
    init_runtime_telemetry,
    shutdown_runtime_telemetry,
)

__all__ = [
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "EventSink",
    "MemorySink",
    "TeeSink",
    "TRACE_FATES",
    "DecisionSink",
    "TraceEventLog",
    "attribute_lost_cycles",
    "decisions_from_events",
    "format_trace_id",
    "render_explain",
    "render_trace_detail",
    "render_why",
    "build_chrome_trace",
    "write_chrome_trace",
    "BUCKET_FIELDS",
    "BUCKETS",
    "bucket_breakdown",
    "check_conservation",
    "render_breakdown",
    "render_conservation",
    "render_utilization",
    "DiffError",
    "diff_reports",
    "load_report",
    "render_diff",
    "render_dashboard",
    "write_dashboard",
    "RuntimeLog",
    "log_record",
    "open_log",
    "ProgressTracker",
    "render_heartbeat",
    "TRACER",
    "SpanRecord",
    "SpanTracer",
    "SpanWatchdog",
    "init_runtime_telemetry",
    "shutdown_runtime_telemetry",
]
