"""Fault model for the parallel executor: retries, outcomes, injection.

At SNP scale a per-feature batch holds ~170k work items; one hung learner
or one crashed worker must not discard hours of finished training. This
module defines the vocabulary the executor's scheduler speaks:

- :class:`RetryPolicy` — per-task timeout plus bounded retry with a
  deterministic exponential-backoff schedule;
- :class:`TaskOutcome` / :class:`TaskFailure` / :class:`FailureReport` —
  the structured record of what happened to every item, so a feature whose
  retries are exhausted is *skipped* (the NS "otherwise: 0" branch applied
  at train time) and accounted for, never silently lost;
- :class:`FaultPlan` — a deterministic fault-injection hook (fail, hang,
  or crash item *i* on attempt *k*) used by the fault-tolerance and
  determinism test suites.

Backoff sleeping and injected hangs are time *effects*; both route through
:func:`repro.parallel.profiling.sleep_seconds` so the FRL007 containment of
nondeterministic time stays intact. Nothing in this module reads a clock:
the backoff schedule is a pure function of the attempt number, so the
retry sequence is identical on every run and every machine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.parallel import profiling
from repro.utils.exceptions import ReproError

_FAULT_KINDS = ("raise", "hang", "crash")
_EXHAUSTION_MODES = ("skip", "raise")

#: Exit status used by injected worker crashes, chosen to be recognizably
#: deliberate in test logs (and distinct from common signal exits).
CRASH_EXIT_CODE = 77


class InjectedFault(ReproError):
    """Raised by :class:`FaultPlan` for an injected ``"raise"``/``"hang"``."""


class TaskTimeoutError(ReproError):
    """A task exceeded the policy's per-task timeout on its final attempt."""


class WorkerCrashError(ReproError):
    """A worker process died (pool broken) on a task's final attempt."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for one batch of work items.

    Attributes
    ----------
    max_retries:
        Re-executions allowed per item after its first attempt (0 = fail
        fast on the first error).
    task_timeout:
        Seconds an item may run before its attempt is declared hung and the
        pool is recycled. ``None`` disables the timeout. Enforced in the
        pooled modes only: serial execution cannot preempt a running task,
        so a serial "hang" is indistinguishable from slow work.
    backoff_base / backoff_multiplier / backoff_max:
        Deterministic exponential backoff: retry ``a`` (1-based) waits
        ``min(backoff_max, backoff_base * backoff_multiplier**(a - 1))``
        seconds. The schedule is a pure function of the attempt number —
        no jitter — so retry timing is reproducible and testable.
    on_exhaustion:
        ``"skip"`` records the item in the :class:`FailureReport` and
        yields ``None`` for it (the NS "otherwise: 0" branch); ``"raise"``
        propagates the final error, preserving fail-fast semantics.
    """

    max_retries: int = 2
    task_timeout: "float | None" = None
    backoff_base: float = 0.1
    backoff_multiplier: float = 2.0
    backoff_max: float = 30.0
    on_exhaustion: str = "skip"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0; got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ReproError(f"task_timeout must be positive; got {self.task_timeout}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ReproError("backoff_base and backoff_max must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ReproError(
                f"backoff_multiplier must be >= 1; got {self.backoff_multiplier}"
            )
        if self.on_exhaustion not in _EXHAUSTION_MODES:
            raise ReproError(
                f"on_exhaustion must be one of {_EXHAUSTION_MODES}; "
                f"got {self.on_exhaustion!r}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based); 0.0 for attempt <= 0."""
        if attempt <= 0:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )

    def backoff_schedule(self) -> list[float]:
        """The full deterministic delay sequence for ``max_retries`` retries."""
        return [self.backoff_seconds(a) for a in range(1, self.max_retries + 1)]


@dataclass(frozen=True)
class TaskFailure:
    """One item whose retries were exhausted."""

    index: int
    key: Any
    kind: str  # "exception" | "timeout" | "crash"
    message: str
    attempts: int

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    def to_dict(self) -> dict:
        """JSON-safe payload that :meth:`from_dict` restores exactly.

        Tuple keys (the engine's ``(feature_id, slot, seed)``) are tagged
        so the round-trip through JSON — which has no tuple type — comes
        back as a tuple, keeping restored failures comparable to live ones.
        """
        key = self.key
        if isinstance(key, tuple):
            key = {"__tuple__": [int(v) if hasattr(v, "item") else v for v in key]}
        return {
            "index": int(self.index),
            "key": key,
            "kind": self.kind,
            "message": self.message,
            "attempts": int(self.attempts),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TaskFailure":
        key = payload.get("key")
        if isinstance(key, Mapping) and "__tuple__" in key:
            key = tuple(key["__tuple__"])
        elif isinstance(key, list):
            key = tuple(key)
        return cls(
            index=int(payload["index"]),
            key=key,
            kind=str(payload["kind"]),
            message=str(payload.get("message", "")),
            attempts=int(payload.get("attempts", 0)),
        )


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one work item.

    ``status`` is ``"ok"`` (executed successfully), ``"cached"`` (value
    replayed from a checkpoint journal, zero executions this run), or
    ``"skipped"`` (retries exhausted; ``failure`` holds the record).
    """

    index: int
    status: str
    value: Any = None
    attempts: int = 0
    failure: "TaskFailure | None" = None


@dataclass
class FailureReport:
    """Structured account of every item dropped from a batch.

    A surprisal sum is only trustworthy if dropped features are accounted
    for deterministically; callers keep this report next to the results so
    "feature skipped after N retries" is an auditable fact, not a silent
    hole in the NS sum.
    """

    failures: list[TaskFailure] = field(default_factory=list)

    def record(self, failure: TaskFailure) -> None:
        self.failures.append(failure)

    def extend(self, other: "FailureReport") -> None:
        self.failures.extend(other.failures)

    def indices(self) -> list[int]:
        return [f.index for f in self.failures]

    def __len__(self) -> int:
        return len(self.failures)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __iter__(self) -> Iterator[TaskFailure]:
        return iter(self.failures)

    def as_dict(self) -> dict:
        return {"n_failures": len(self.failures), "failures": [f.as_dict() for f in self.failures]}

    def to_dict(self) -> dict:
        """JSON-safe round-trip form (see :meth:`TaskFailure.to_dict`).

        This is the payload embedded in the terminal ``RunFinished``
        telemetry event, so a trace file alone reconstructs what failed
        and why.
        """
        return {
            "n_failures": len(self.failures),
            "failures": [f.to_dict() for f in self.failures],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FailureReport":
        report = cls()
        for entry in payload.get("failures", []):
            report.record(TaskFailure.from_dict(entry))
        return report

    def summary(self) -> str:
        if not self.failures:
            return "no task failures"
        lines = [f"{len(self.failures)} task(s) skipped after exhausting retries:"]
        for f in self.failures:
            lines.append(
                f"  item {f.index} (key={f.key!r}): {f.kind} after "
                f"{f.attempts} attempt(s) — {f.message}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what to do when the (item, attempt) pair fires.

    ``kind``:

    - ``"raise"`` — raise :class:`InjectedFault` (an ordinary task error);
    - ``"hang"`` — sleep ``hang_seconds`` then raise, simulating a stuck
      task (under a pooled mode with a ``task_timeout`` the timeout fires
      first; serial mode degrades to a slow failure);
    - ``"crash"`` — ``os._exit`` the executing process, simulating a
      killed worker. Only meaningful in process mode: in serial or thread
      mode this would take the main interpreter down, exactly like a real
      segfault would.
    """

    kind: str
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ReproError(f"fault kind must be one of {_FAULT_KINDS}; got {self.kind!r}")
        if self.hang_seconds < 0:
            raise ReproError(f"hang_seconds must be >= 0; got {self.hang_seconds}")


class FaultPlan:
    """Deterministic fault injection: fail item ``i`` on attempt ``k``.

    The plan is a pure lookup table keyed by ``(item index, attempt)``
    (attempts are 0-based), so a given execution schedule always injects
    the same faults — the property the cross-mode determinism suite leans
    on. Plans are plain picklable objects and travel to process-mode
    workers alongside the work function.
    """

    def __init__(self, faults: "Mapping[tuple[int, int], FaultSpec | str] | None" = None) -> None:
        plan: dict[tuple[int, int], FaultSpec] = {}
        for (index, attempt), spec in dict(faults or {}).items():
            if isinstance(spec, str):
                spec = FaultSpec(kind=spec)
            if not isinstance(spec, FaultSpec):
                raise ReproError(f"fault spec must be FaultSpec or str; got {spec!r}")
            plan[(int(index), int(attempt))] = spec
        self._plan = plan

    @classmethod
    def failing(
        cls,
        index: int,
        *,
        attempts: "int | Iterator[int] | list[int] | tuple[int, ...]" = 0,
        kind: str = "raise",
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Plan that faults one item on the given attempt(s)."""
        if isinstance(attempts, int):
            attempts = [attempts]
        spec = FaultSpec(kind=kind, hang_seconds=hang_seconds)
        return cls({(index, attempt): spec for attempt in attempts})

    def spec_for(self, index: int, attempt: int) -> "FaultSpec | None":
        return self._plan.get((int(index), int(attempt)))

    def apply(self, index: int, attempt: int) -> None:
        """Fire the configured fault for (index, attempt), if any."""
        spec = self.spec_for(index, attempt)
        if spec is None:
            return
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if spec.kind == "hang":
            profiling.sleep_seconds(spec.hang_seconds)
        raise InjectedFault(
            f"injected {spec.kind} fault: item {index}, attempt {attempt}"
        )

    def __len__(self) -> int:
        return len(self._plan)
