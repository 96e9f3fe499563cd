"""Typed telemetry events: the vocabulary of a FRaC run.

Every observable moment of a run — batch start, per-feature task
lifecycle, retries, timeouts, crashes, checkpoint reuse, fold training,
scoring — is one frozen dataclass here. Events are *observations*: they
carry facts about what happened and never feed back into computed
results (the FRL007 containment extended to telemetry as a whole; see
docs/observability.md).

Two kinds of fields coexist deliberately:

- **deterministic** fields (indices, keys, attempt numbers, statuses,
  configured backoffs/timeouts) — identical across identical seeded
  runs; the determinism suite compares event multisets over these;
- **timing** fields (durations, CPU, RSS) — machine-dependent by
  nature, listed in :data:`TIMING_FIELDS` so comparisons can exclude
  them and the trace summarizer knows what to aggregate.

Events serialize via :meth:`TelemetryEvent.to_dict` into JSON-safe
primitives (tuple keys become lists), which is what the JSONL trace sink
writes and ``python -m repro trace`` reads back.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar

#: Machine-dependent fields excluded from determinism comparisons
#: (:meth:`TelemetryEvent.signature`) and from golden-output fixtures.
TIMING_FIELDS = frozenset({"duration_s", "wall_s", "cpu_s", "rss_peak_bytes"})


def _json_safe(value: Any) -> Any:
    """Coerce payload values into JSON-representable primitives."""
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value


#: Per-class field-name cache: ``dataclasses.fields`` walks the MRO on
#: every call, and the trace sink serializes tens of thousands of events
#: per run. Field sets are fixed at class-creation time, so one lookup
#: per class suffices.
_FIELD_NAMES: dict[type, tuple] = {}


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class: one observed fact about a run."""

    #: Stable event name used in trace files and the registry.
    name: ClassVar[str] = ""

    def to_dict(self) -> dict:
        """JSON-safe payload (event name excluded; the record adds it)."""
        names = _FIELD_NAMES.get(type(self))
        if names is None:
            names = tuple(f.name for f in fields(self))
            _FIELD_NAMES[type(self)] = names
        return {n: _json_safe(getattr(self, n)) for n in names}

    def signature(self) -> tuple:
        """Hashable determinism signature: name + non-timing payload.

        Two identical seeded runs must produce equal signature
        *multisets* whatever the wall clock did.
        """
        payload = tuple(
            (k, _freeze(v))
            for k, v in sorted(self.to_dict().items())
            if k not in TIMING_FIELDS
        )
        return (self.name,) + payload


def _freeze(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


EVENT_TYPES: dict[str, type] = {}


def _register(cls: type) -> type:
    if not cls.name or cls.name in EVENT_TYPES:
        raise ValueError(f"event class {cls.__name__} needs a unique name")
    EVENT_TYPES[cls.name] = cls
    return cls


# -- run lifecycle -----------------------------------------------------------


@_register
@dataclass(frozen=True)
class RunStarted(TelemetryEvent):
    """A batch run (fit, study, CLI command) began."""

    name: ClassVar[str] = "RunStarted"
    kind: str = ""
    n_tasks: int = 0
    n_samples: int = 0
    mode: str = "serial"
    n_workers: int = 1
    meta: "dict | None" = None


@_register
@dataclass(frozen=True)
class RunFinished(TelemetryEvent):
    """Terminal event: how a run ended, with its full failure report.

    ``failure_report`` is the :class:`repro.parallel.faults.FailureReport`
    round-trip dict, so a trace file alone reconstructs what failed and
    why — no pickle artifact needed.
    """

    name: ClassVar[str] = "RunFinished"
    kind: str = ""
    status: str = "ok"  # "ok" | "error"
    n_models: int = 0
    n_skipped: int = 0
    n_failed: int = 0
    failure_report: "dict | None" = None


# -- per-feature task lifecycle ----------------------------------------------


@_register
@dataclass(frozen=True)
class FeatureTaskStarted(TelemetryEvent):
    """One attempt at one (feature, slot) work item was dispatched."""

    name: ClassVar[str] = "FeatureTaskStarted"
    index: int = 0
    attempt: int = 0  # 0-based: the first execution is attempt 0
    key: Any = None


@_register
@dataclass(frozen=True)
class FeatureTaskFinished(TelemetryEvent):
    """A work item reached a terminal state.

    ``status``: ``"ok"`` (executed), ``"cached"`` (replayed from the
    checkpoint journal), or ``"skipped"`` (retries exhausted; ``kind``
    holds the failure class). ``duration_s`` is the wall time of the
    final attempt in every execution mode (measured inside the worker for
    pooled waves), ``None`` for cached items and for features the engine
    trained inside a batch, whose shared time it does not split.
    """

    name: ClassVar[str] = "FeatureTaskFinished"
    index: int = 0
    status: str = "ok"  # "ok" | "cached" | "skipped"
    attempts: int = 1
    key: Any = None
    kind: "str | None" = None  # failure kind when skipped
    duration_s: "float | None" = None


@_register
@dataclass(frozen=True)
class RetryScheduled(TelemetryEvent):
    """An item failed an attempt and was requeued."""

    name: ClassVar[str] = "RetryScheduled"
    index: int = 0
    attempt: int = 0  # attempts consumed so far (== next attempt number)
    kind: str = "exception"
    backoff_s: float = 0.0  # policy-derived, deterministic


@_register
@dataclass(frozen=True)
class TaskTimedOut(TelemetryEvent):
    """An attempt exceeded the per-task timeout; its pool was recycled."""

    name: ClassVar[str] = "TaskTimedOut"
    index: int = 0
    attempt: int = 0
    timeout_s: "float | None" = None


@_register
@dataclass(frozen=True)
class WorkerCrashDetected(TelemetryEvent):
    """A pool broke under a dying worker.

    ``index`` is the culprit item when attributable (isolation probe:
    exactly one item in flight) and ``None`` for a wide-wave break,
    where any in-flight item may be at fault (see the executor's
    crash-attribution docstrings).
    """

    name: ClassVar[str] = "WorkerCrashDetected"
    phase: str = "wave"  # "wave" | "submit" | "probe"
    index: "int | None" = None
    n_requeued: int = 0


# -- checkpoint reuse --------------------------------------------------------


@_register
@dataclass(frozen=True)
class CheckpointHit(TelemetryEvent):
    """An item's result was replayed from the journal (not re-executed)."""

    name: ClassVar[str] = "CheckpointHit"
    index: int = 0
    key: Any = None


@_register
@dataclass(frozen=True)
class CheckpointMiss(TelemetryEvent):
    """An item was absent from the journal and must execute."""

    name: ClassVar[str] = "CheckpointMiss"
    index: int = 0
    key: Any = None


# -- engine / scoring --------------------------------------------------------


@_register
@dataclass(frozen=True)
class FoldTrained(TelemetryEvent):
    """One CV fold of one feature model finished training.

    Emitted from inside the work function, so it is visible in serial
    and thread modes; process-mode workers run with telemetry disabled
    (their events cannot reach the parent's sinks) and the task-level
    lifecycle events cover them.
    """

    name: ClassVar[str] = "FoldTrained"
    feature_id: int = 0
    slot: int = 0
    fold: int = 0
    n_folds: int = 0


@_register
@dataclass(frozen=True)
class ScoreComputed(TelemetryEvent):
    """A batch of test samples was scored against the fitted models."""

    name: ClassVar[str] = "ScoreComputed"
    n_samples: int = 0
    n_models: int = 0


# -- spans -------------------------------------------------------------------


@_register
@dataclass(frozen=True)
class SpanStarted(TelemetryEvent):
    """A named phase opened (see :mod:`repro.telemetry.spans`).

    ``attrs`` carries deterministic phase parameters (a batch's size and
    plan-group key, a projection's dimension) — facts about the *work*,
    never timings, so they participate in determinism signatures.
    """

    name: ClassVar[str] = "SpanStarted"
    span: str = ""
    depth: int = 0
    attrs: "dict | None" = None


@_register
@dataclass(frozen=True)
class SpanFinished(TelemetryEvent):
    """A named phase closed, with its wall/CPU/RSS accounting."""

    name: ClassVar[str] = "SpanFinished"
    span: str = ""
    depth: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_peak_bytes: int = 0
    attrs: "dict | None" = None
