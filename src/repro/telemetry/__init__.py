"""fracscope: structured run telemetry for feature-scale FRaC runs.

A FRaC run at SNP scale is >170k independent work items behind one long
batch; this package makes that batch observable without ever touching
its results:

- :mod:`~repro.telemetry.events` — the typed event taxonomy (run and
  task lifecycle, retries/timeouts/crashes, checkpoint reuse, folds,
  scoring, spans);
- :mod:`~repro.telemetry.bus` — the :class:`EventBus` delivering
  stamped records to pluggable sinks;
- :mod:`~repro.telemetry.sinks` — JSONL trace file (kill-tolerant),
  in-memory collector, throttled stderr progress line;
- :mod:`~repro.telemetry.spans` — nested wall/CPU/RSS phase accounting;
- :mod:`~repro.telemetry.trace` — the read/summarize/render toolchain
  behind ``python -m repro trace``;
- :mod:`~repro.telemetry.timeline` — per-slot timeline reconstruction,
  utilization, stragglers, parallelism profile, critical path;
- :mod:`~repro.telemetry.diff` — two-trace comparison behind
  ``python -m repro trace diff A B``.

Telemetry is **off by default and zero-overhead when off**: the ambient
bus (:func:`get_bus`) is ``None`` and every instrumentation site is a
single identity check. When on, it is an observation channel only —
scores are bit-identical with and without it (asserted by the
integration suite; see docs/observability.md).
"""

from repro.telemetry.bus import EventBus, TraceRecord
from repro.telemetry.diff import (
    RATIO_THRESHOLD,
    PopulationDelta,
    SpanStats,
    TraceDiff,
    diff_traces,
    render_trace_diff,
)
from repro.telemetry.events import (
    EVENT_TYPES,
    TIMING_FIELDS,
    CheckpointHit,
    CheckpointMiss,
    FeatureTaskFinished,
    FeatureTaskStarted,
    FoldTrained,
    RetryScheduled,
    RunFinished,
    RunStarted,
    ScoreComputed,
    SpanFinished,
    SpanStarted,
    TaskTimedOut,
    TelemetryEvent,
    WorkerCrashDetected,
)
from repro.telemetry.runtime import (
    configure,
    emit,
    get_bus,
    on_worker_start,
    set_bus,
    shutdown,
)
from repro.telemetry.sinks import (
    TRACE_FORMAT,
    JsonlTraceSink,
    MemorySink,
    ProgressSink,
    Sink,
    TelemetrySinkError,
)
from repro.telemetry.spans import SpanHandle, span
from repro.telemetry.timeline import (
    STRAGGLER_FACTOR,
    PhaseSegment,
    SlotLane,
    TaskInterval,
    Timeline,
    build_timeline,
    render_timeline,
)
from repro.telemetry.trace import (
    PERCENTILE_POINTS,
    SPAN_QUALNAMES,
    TraceError,
    TraceReadResult,
    TraceSummary,
    nearest_rank_percentile,
    per_feature_counts,
    read_trace,
    render_trace_summary,
    summarize_trace,
)

__all__ = [
    "EventBus",
    "TraceRecord",
    "TelemetryEvent",
    "EVENT_TYPES",
    "TIMING_FIELDS",
    "RunStarted",
    "RunFinished",
    "FeatureTaskStarted",
    "FeatureTaskFinished",
    "RetryScheduled",
    "TaskTimedOut",
    "WorkerCrashDetected",
    "CheckpointHit",
    "CheckpointMiss",
    "FoldTrained",
    "ScoreComputed",
    "SpanStarted",
    "SpanFinished",
    "Sink",
    "MemorySink",
    "JsonlTraceSink",
    "ProgressSink",
    "TelemetrySinkError",
    "TRACE_FORMAT",
    "span",
    "SpanHandle",
    "get_bus",
    "set_bus",
    "emit",
    "configure",
    "shutdown",
    "on_worker_start",
    "TraceError",
    "TraceReadResult",
    "TraceSummary",
    "read_trace",
    "summarize_trace",
    "render_trace_summary",
    "per_feature_counts",
    "nearest_rank_percentile",
    "PERCENTILE_POINTS",
    "SPAN_QUALNAMES",
    "Timeline",
    "TaskInterval",
    "SlotLane",
    "PhaseSegment",
    "STRAGGLER_FACTOR",
    "build_timeline",
    "render_timeline",
    "TraceDiff",
    "SpanStats",
    "PopulationDelta",
    "RATIO_THRESHOLD",
    "diff_traces",
    "render_trace_diff",
]
