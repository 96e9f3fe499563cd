"""Parallel execution of per-feature FRaC work items.

Normalized surprisal "is a giant sum, [so] FRaC is highly parallelizable"
(paper §I-A1): the per-feature model trainings are independent. This module
maps a work function over items under three interchangeable modes:

- ``"serial"`` — a plain loop (the default; also the reference semantics);
- ``"thread"`` — a thread pool (helps only when the work releases the GIL,
  i.e. large-matrix numpy calls);
- ``"process"`` — a fork-based process pool, sharing the read-only training
  matrix with workers through copy-on-write memory rather than pickling it
  per task.

Large shared state is installed once per worker via an initializer and read
through :func:`get_shared`; per-item payloads must stay small and picklable.
Work functions receive child seeds derived via ``SeedSequence.spawn`` by the
caller, so results are identical across modes (DESIGN.md §6).

Scheduling and fault tolerance
------------------------------
:func:`run_tasks` runs every batch through one scheduler. The
:class:`~repro.parallel.faults.RetryPolicy` on the config sets the retry
budget; with none, the budget is zero retries and the first error raises
(fail-fast). Pooled modes submit pending items in chunks of
``ceil(n / (4 * workers))``; a chunk runs its items inside the worker and
reports each item's value or exception and wall duration, so an exception
is charged to its own item while the rest of its chunk completes. Items
get a per-task timeout and bounded retries with deterministic backoff. A
crashed worker, or a chunk that runs past ``task_timeout × len(chunk)``,
cannot say which member was at fault: its members are requeued uncharged
under a fresh pool, and a single-item isolation probe attributes the
fault. Exhausted items are *skipped* (their result is ``None`` — the NS
"otherwise: 0" branch) and recorded in a structured
:class:`~repro.parallel.faults.FailureReport`, unless the policy says to
raise. Completed results can stream to a
:class:`~repro.parallel.checkpoint.CheckpointJournal` so a killed batch
resumes where it left off, re-executing only missing items. Retries re-run
the same pure ``fn(item)``, so fault handling never changes values — only
which items complete — preserving the cross-mode determinism contract.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, TypeVar

import multiprocessing as mp

from repro.parallel import profiling
from repro.parallel.faults import (
    FailureReport,
    FaultPlan,
    RetryPolicy,
    TaskFailure,
    TaskOutcome,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.telemetry.events import (
    CheckpointHit,
    CheckpointMiss,
    FeatureTaskFinished,
    FeatureTaskStarted,
    RetryScheduled,
    TaskTimedOut,
    WorkerCrashDetected,
)
from repro.telemetry.runtime import get_bus, on_worker_start
from repro.utils.exceptions import ReproError
from repro.utils.logging import get_logger

T = TypeVar("T")
R = TypeVar("R")

_MODES = ("serial", "thread", "process")

_log = get_logger("parallel.executor")

# Worker-side shared state. In serial/thread modes this is process-local; in
# process mode the initializer installs it in each forked worker.
_SHARED: Any = None


def _init_shared(shared: Any) -> None:
    global _SHARED
    _SHARED = shared


def get_shared() -> Any:
    """The shared state installed for the currently running task batch."""
    return _SHARED


@dataclass(frozen=True)
class ExecutionConfig:
    """How to run a batch of independent work items.

    Attributes
    ----------
    mode:
        ``"serial"``, ``"thread"``, or ``"process"``.
    n_workers:
        Worker count for the pooled modes; ``None`` uses ``os.cpu_count()``.
    retry:
        Fault-tolerance policy. ``None`` means zero retries and fail-fast:
        the first task exception propagates and aborts the batch.
    """

    mode: str = "serial"
    n_workers: "int | None" = None
    retry: "RetryPolicy | None" = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ReproError(f"mode must be one of {_MODES}; got {self.mode!r}")
        if self.n_workers is not None and self.n_workers < 1:
            raise ReproError(f"n_workers must be >= 1; got {self.n_workers}")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ReproError(f"retry must be a RetryPolicy; got {self.retry!r}")

    @property
    def effective_workers(self) -> int:
        if self.mode == "serial":
            return 1
        return self.n_workers or os.cpu_count() or 1


def run_tasks(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    shared: Any = None,
    config: "ExecutionConfig | None" = None,
    checkpoint: Any = None,
    task_key: "Callable[[T], Any] | None" = None,
    fault_plan: "FaultPlan | None" = None,
    failures: "FailureReport | None" = None,
    quiet: bool = False,
    indices: "Sequence[int] | None" = None,
) -> list[R]:
    """Apply ``fn`` to every item, in order, under the configured mode.

    ``shared`` is made available to ``fn`` through :func:`get_shared`
    (installed once per worker, not per item).

    Fault-tolerance arguments (see the module docstring):

    checkpoint:
        A :class:`~repro.parallel.checkpoint.CheckpointJournal`. Items
        whose key is already journaled are *not* re-executed; fresh
        completions are appended as they finish. Requires ``task_key``.
    task_key:
        Maps an item to its stable, picklable journal key. Keys must be
        unique within the batch and must pin the item's result (the engine
        uses ``(feature_id, slot, seed)``).
    fault_plan:
        Deterministic test-only fault injection (see
        :class:`~repro.parallel.faults.FaultPlan`).
    failures:
        A :class:`~repro.parallel.faults.FailureReport` to fill with any
        items skipped after exhausting retries. Skipped items yield
        ``None`` in the returned list.
    quiet:
        Suppress this batch's executor-side telemetry (task-lifecycle,
        checkpoint, retry/crash events). Work functions still see the
        live bus. The engine's batched path runs its coarse *batch* items
        quiet and re-emits the lifecycle at per-feature granularity
        itself, keeping event streams replay-identical with the
        per-feature path regardless of how features were grouped.
    indices:
        The items' positions in a larger task list they were drawn from
        (default ``0 .. n-1``). Events, failure records and fault-plan
        lookups name each item by its position, so a caller running a
        subset of its tasks keeps reporting them under their own indices.
    """
    config = config or ExecutionConfig()
    items = list(items)
    positions = list(range(len(items))) if indices is None else [int(i) for i in indices]
    if len(positions) != len(items) or len(set(positions)) != len(positions):
        raise ReproError("indices must name each item once")
    by_index = dict(zip(positions, items))
    if not by_index:
        return []
    # With no explicit policy: no retries, and the first error raises,
    # while checkpoints are still honoured.
    policy = config.retry or RetryPolicy(max_retries=0, on_exhaustion="raise")

    keys: "dict[int, Any] | None" = None
    if task_key is not None:
        keys = {i: task_key(item) for i, item in by_index.items()}
        if len(set(keys.values())) != len(keys):
            raise ReproError("task_key produced duplicate keys within one batch")
    if checkpoint is not None and keys is None:
        raise ReproError("checkpointing requires a task_key")

    sched = _Scheduler(positions, policy, keys, checkpoint, failures, quiet)

    pending: list[tuple[int, int]] = []  # (item index, attempts so far)
    if checkpoint is not None:
        completed = checkpoint.entries()
        for i, key in keys.items():
            if key in completed:
                sched.record_cached(i, completed[key])
            else:
                if sched.bus is not None:
                    sched.bus.emit(CheckpointMiss(index=i, key=key))
                pending.append((i, 0))
        if len(pending) < len(items):
            _log.info(
                "checkpoint %s: %d/%d items already complete; resuming %d",
                getattr(checkpoint, "path", "?"),
                len(items) - len(pending),
                len(items),
                len(pending),
            )
    else:
        pending = [(i, 0) for i in positions]

    if pending:
        if config.mode == "serial":
            _run_serial(fn, by_index, shared, fault_plan, sched, pending)
        else:
            _run_pool(fn, by_index, shared, config, fault_plan, sched, pending)

    missing = [i for i, outcome in sched.outcomes.items() if outcome is None]
    if missing:  # pragma: no cover - scheduler invariant
        raise ReproError(f"scheduler lost track of items {missing}")
    return [sched.outcomes[i].value for i in positions]


def _init_worker(shared: Any) -> None:
    """Initializer for forked process workers.

    Drops the telemetry bus inherited through fork *before* installing the
    shared state: the parent's sinks (an open JSONL handle, a stderr
    progress line) must not receive interleaved writes from children. The
    parent observes workers through the task-lifecycle events it emits
    itself. Serial/thread modes keep telemetry live (``_init_shared`` runs
    in the parent process there).
    """
    on_worker_start()
    _init_shared(shared)


def _apply(
    fn: Callable[[T], R],
    fault_plan: "FaultPlan | None",
    index: int,
    attempt: int,
    item: T,
) -> R:
    """The single-item unit (module-level: picklable)."""
    if fault_plan is not None:
        fault_plan.apply(index, attempt)
    return fn(item)


def _apply_chunk(
    fn: Callable[[T], R],
    fault_plan: "FaultPlan | None",
    chunk: "list[tuple[int, int, T]]",
) -> "list[tuple[bool, Any, float]]":
    """The unit a pooled wave executes (module-level: picklable).

    Runs each ``(index, attempt, item)`` inside the worker and returns one
    ``(ok, value or exception, wall seconds)`` per item, so an exception
    is charged to its own item and the rest of the chunk still completes.
    """
    out: "list[tuple[bool, Any, float]]" = []
    for index, attempt, item in chunk:
        w0 = profiling.wall_seconds()
        try:
            value = _apply(fn, fault_plan, index, attempt, item)
        except Exception as exc:
            out.append((False, exc, profiling.wall_seconds() - w0))
        else:
            out.append((True, value, profiling.wall_seconds() - w0))
    return out


class _Scheduler:
    """Shared bookkeeping for the serial and pooled runners."""

    def __init__(
        self,
        positions: "list[int]",
        policy: RetryPolicy,
        keys: "dict[int, Any] | None",
        checkpoint: Any,
        failures: "FailureReport | None",
        quiet: bool = False,
    ) -> None:
        self.policy = policy
        self.keys = keys
        self.checkpoint = checkpoint
        self.failures = failures if failures is not None else FailureReport()
        self.outcomes: "dict[int, TaskOutcome | None]" = dict.fromkeys(positions)
        self.bus = None if quiet else get_bus()

    def key_for(self, index: int) -> Any:
        return None if self.keys is None else self.keys[index]

    def record_cached(self, index: int, value: Any) -> None:
        self.outcomes[index] = TaskOutcome(index=index, status="cached", value=value)
        if self.bus is not None:
            key = self.key_for(index)
            self.bus.emit(CheckpointHit(index=index, key=key))
            self.bus.emit(
                FeatureTaskFinished(index=index, status="cached", attempts=0, key=key)
            )

    def record_ok(
        self, index: int, attempts: int, value: Any, duration_s: "float | None" = None
    ) -> None:
        self.outcomes[index] = TaskOutcome(
            index=index, status="ok", value=value, attempts=attempts
        )
        if self.checkpoint is not None:
            self.checkpoint.append(self.key_for(index), value)
        if self.bus is not None:
            self.bus.emit(
                FeatureTaskFinished(
                    index=index,
                    status="ok",
                    attempts=attempts,
                    key=self.key_for(index),
                    duration_s=duration_s,
                )
            )

    def record_exhausted(
        self, index: int, attempts: int, kind: str, exc: BaseException
    ) -> None:
        """An item ran out of retries: skip it, or propagate per policy."""
        if self.policy.on_exhaustion == "raise":
            if kind == "timeout":
                raise TaskTimeoutError(
                    f"task {index} exceeded {self.policy.task_timeout}s "
                    f"on attempt {attempts}"
                ) from exc
            if kind == "crash":
                raise WorkerCrashError(
                    f"worker died running task {index} (attempt {attempts})"
                ) from exc
            raise exc
        failure = TaskFailure(
            index=index,
            key=self.key_for(index),
            kind=kind,
            message=f"{type(exc).__name__}: {exc}",
            attempts=attempts,
        )
        self.failures.record(failure)
        self.outcomes[index] = TaskOutcome(
            index=index, status="skipped", attempts=attempts, failure=failure
        )
        if self.bus is not None:
            self.bus.emit(
                FeatureTaskFinished(
                    index=index,
                    status="skipped",
                    attempts=attempts,
                    key=self.key_for(index),
                    kind=kind,
                )
            )
        _log.warning(
            "task %d skipped after %d attempt(s) (%s): %s",
            index,
            attempts,
            kind,
            exc,
        )


def _run_serial(
    fn: Callable[[T], R],
    items: "Mapping[int, T]",
    shared: Any,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    pending: list[tuple[int, int]],
) -> None:
    policy = sched.policy
    bus = sched.bus
    _init_shared(shared)
    try:
        for index, attempt in pending:
            while True:
                if bus is not None:
                    bus.emit(
                        FeatureTaskStarted(
                            index=index, attempt=attempt, key=sched.key_for(index)
                        )
                    )
                w0 = profiling.wall_seconds() if bus is not None else 0.0
                try:
                    value = _apply(fn, fault_plan, index, attempt, items[index])
                except Exception as exc:
                    attempt += 1
                    if attempt > policy.max_retries:
                        sched.record_exhausted(index, attempt, "exception", exc)
                        break
                    backoff = policy.backoff_seconds(attempt)
                    if bus is not None:
                        bus.emit(
                            RetryScheduled(
                                index=index,
                                attempt=attempt,
                                kind="exception",
                                backoff_s=backoff,
                            )
                        )
                    profiling.sleep_seconds(backoff)
                else:
                    duration = (
                        profiling.wall_seconds() - w0 if bus is not None else None
                    )
                    sched.record_ok(index, attempt + 1, value, duration)
                    break
    finally:
        _init_shared(None)


def _make_pool(mode: str, n_workers: int, shared: Any):
    if mode == "thread":
        return ThreadPoolExecutor(max_workers=n_workers)
    ctx = mp.get_context("fork")
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(shared,),
    )


def _teardown_pool(pool: Any, broken: bool) -> None:
    """Shut a pool down; if it is broken or hosts a hung task, do not wait.

    A hung process-mode worker would otherwise be joined forever, so any
    surviving worker processes are terminated outright (their in-flight
    items have already been requeued). Hung *threads* cannot be killed in
    CPython; the abandoned pool's threads drain whenever their tasks
    return.
    """
    pool.shutdown(wait=not broken, cancel_futures=True)
    if broken:
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            if proc.is_alive():
                proc.terminate()


def _charge(
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
    index: int,
    attempts_used: int,
    kind: str,
    exc: BaseException,
) -> None:
    """Charge one attempt to an item: requeue it, or exhaust its budget."""
    if sched.bus is not None and kind == "timeout":
        sched.bus.emit(
            TaskTimedOut(
                index=index,
                attempt=attempts_used,
                timeout_s=sched.policy.task_timeout,
            )
        )
    if attempts_used > sched.policy.max_retries:
        sched.record_exhausted(index, attempts_used, kind, exc)
    else:
        queue.append((index, attempts_used))
        retry_attempts.append(attempts_used)
        if sched.bus is not None:
            sched.bus.emit(
                RetryScheduled(
                    index=index,
                    attempt=attempts_used,
                    kind=kind,
                    backoff_s=sched.policy.backoff_seconds(attempts_used),
                )
            )


def _run_pool(
    fn: Callable[[T], R],
    items: "Mapping[int, T]",
    shared: Any,
    config: ExecutionConfig,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    pending: list[tuple[int, int]],
) -> None:
    policy = sched.policy
    queue: "deque[tuple[int, int]]" = deque(pending)
    isolate = False
    if config.mode == "thread":
        _init_shared(shared)
    try:
        while queue:
            retry_attempts: list[int] = []
            if isolate:
                isolate = False
                _isolation_probe(
                    fn, items, shared, config, fault_plan, sched, queue, retry_attempts
                )
            else:
                isolate = _wide_wave(
                    fn, items, shared, config, fault_plan, sched, queue, retry_attempts
                )
            if queue and retry_attempts:
                # One deterministic backoff per wave: the largest pending
                # attempt number dictates the wait.
                profiling.sleep_seconds(
                    max(policy.backoff_seconds(a) for a in retry_attempts)
                )
    finally:
        if config.mode == "thread":
            _init_shared(None)


def _settle(
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
    chunk: "list[tuple[int, int]]",
    results: "list[tuple[bool, Any, float]]",
) -> None:
    """Record a finished chunk item by item (see :func:`_apply_chunk`)."""
    for (index, attempt), (ok, payload, duration) in zip(chunk, results):
        if ok:
            sched.record_ok(index, attempt + 1, payload, duration)
        else:
            _charge(sched, queue, retry_attempts, index, attempt + 1, "exception", payload)


def _chunk_failed(
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
    chunk: "list[tuple[int, int]]",
    kind: str,
    exc: BaseException,
) -> bool:
    """A chunk failed as a whole (timeout, or an error outside any item).

    A single member is the culprit and is charged. A multi-item chunk
    cannot say which member was at fault: requeue them all uncharged and
    return ``True`` to ask for an isolation probe.
    """
    if len(chunk) == 1:
        index, attempt = chunk[0]
        _charge(sched, queue, retry_attempts, index, attempt + 1, kind, exc)
        return False
    queue.extend(chunk)
    return True


def _wide_wave(
    fn: Callable[[T], R],
    items: "Mapping[int, T]",
    shared: Any,
    config: ExecutionConfig,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
) -> bool:
    """Run every pending item under a fresh full-width pool, in chunks.

    Items go out in chunks of ``ceil(n / (4 * workers))``
    (:func:`_apply_chunk`), which keeps per-submission overhead small while
    leaving enough chunks to balance the load. A finished chunk is
    attributable item by item. A wave that breaks — worker crash or
    timeout — harvests whatever finished, requeues the survivors
    untouched, and recycles the pool. A timed-out single-item chunk is
    charged directly; a timed-out multi-item chunk is not attributable.
    Neither is a *crash*: the dying worker marks every in-flight future
    ``BrokenExecutor``, so whichever future the harvest loop happened to
    be blocked on is as likely an innocent bystander as the culprit. Such
    waves charge nobody for it and return ``True``, asking the caller to
    run an isolation probe next.
    """
    policy = sched.policy
    bus = sched.bus
    n_workers = config.effective_workers
    batch = list(queue)
    queue.clear()
    size = -(-len(batch) // (4 * n_workers))
    chunks = [batch[lo : lo + size] for lo in range(0, len(batch), size)]
    pool = _make_pool(config.mode, n_workers, shared)
    broken = crashed = probe = False
    try:
        futures: "list[tuple[list[tuple[int, int]], Future | None]]" = []
        for chunk in chunks:
            fut = None
            if not broken:
                try:
                    fut = pool.submit(
                        _apply_chunk,
                        fn,
                        fault_plan,
                        [(index, attempt, items[index]) for index, attempt in chunk],
                    )
                except (BrokenExecutor, RuntimeError) as exc:
                    # The pool died while the wave was still being submitted;
                    # everything from here on re-runs after the isolation probe.
                    _log.warning("pool broke during submission: %s", exc)
                    broken = crashed = True
                else:
                    if bus is not None:
                        for index, attempt in chunk:
                            bus.emit(
                                FeatureTaskStarted(
                                    index=index, attempt=attempt, key=sched.key_for(index)
                                )
                            )
            futures.append((chunk, fut))

        for chunk, fut in futures:
            if fut is None:
                queue.extend(chunk)
                continue
            if broken:
                # Pool already declared dead: keep any chunk that finished
                # before the break, requeue the rest at unchanged attempt
                # counts (none of them is known to be at fault).
                if fut.done() and not fut.cancelled() and fut.exception() is None:
                    _settle(sched, queue, retry_attempts, chunk, fut.result())
                else:
                    fut.cancel()
                    queue.extend(chunk)
                continue
            timeout = None if policy.task_timeout is None else policy.task_timeout * len(chunk)
            try:
                results = fut.result(timeout=timeout)
            except FuturesTimeoutError as exc:
                # The chunk is hung (or too slow). The pool cannot be trusted
                # to free the worker, so recycle it.
                broken = True
                probe |= _chunk_failed(sched, queue, retry_attempts, chunk, "timeout", exc)
            except BrokenExecutor:
                broken = crashed = True
                queue.extend(chunk)
            except Exception as exc:
                probe |= _chunk_failed(sched, queue, retry_attempts, chunk, "exception", exc)
            else:
                _settle(sched, queue, retry_attempts, chunk, results)
        if crashed and bus is not None:
            # One event per broken wave, emitted after the harvest settles so
            # the requeue count is exact. The phase is always "wave" whether
            # the break surfaced during submission or harvest — which of the
            # two saw it first is a scheduling race, not a run property.
            bus.emit(
                WorkerCrashDetected(phase="wave", index=None, n_requeued=len(queue))
            )
    finally:
        _teardown_pool(pool, broken)
    return crashed or probe


def _isolation_probe(
    fn: Callable[[T], R],
    items: "Mapping[int, T]",
    shared: Any,
    config: ExecutionConfig,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
) -> None:
    """Re-run queued items one at a time under a single-worker pool.

    After a wide wave breaks on a worker crash, the broken pool cannot say
    which in-flight item killed it; nor can a multi-item chunk that timed
    out say which member hung. With exactly one item in flight a crash or
    a timeout is attributable with certainty: charge that item, requeue
    the untried remainder for the next full-width wave, and return. A
    probe that runs dry without a fault has simply finished the batch.
    """
    policy = sched.policy
    bus = sched.bus
    batch = list(queue)
    queue.clear()
    pool = _make_pool(config.mode, 1, shared)
    broken = False
    try:
        for pos, (index, attempt) in enumerate(batch):
            try:
                fut = pool.submit(_apply, fn, fault_plan, index, attempt, items[index])
            except (BrokenExecutor, RuntimeError) as exc:  # pragma: no cover
                broken = True
                _log.warning("isolation pool broke at submission: %s", exc)
                queue.extend(batch[pos:])
                return
            if bus is not None:
                bus.emit(
                    FeatureTaskStarted(
                        index=index, attempt=attempt, key=sched.key_for(index)
                    )
                )
            w0 = profiling.wall_seconds() if bus is not None else 0.0
            try:
                value = fut.result(timeout=policy.task_timeout)
            except FuturesTimeoutError as exc:
                broken = True
                _charge(sched, queue, retry_attempts, index, attempt + 1, "timeout", exc)
                queue.extend(batch[pos + 1 :])
                return
            except BrokenExecutor as exc:
                broken = True
                if bus is not None:
                    # One item in flight: the crash is attributable exactly.
                    bus.emit(
                        WorkerCrashDetected(
                            phase="probe",
                            index=index,
                            n_requeued=len(batch) - pos - 1,
                        )
                    )
                _charge(sched, queue, retry_attempts, index, attempt + 1, "crash", exc)
                queue.extend(batch[pos + 1 :])
                return
            except Exception as exc:
                _charge(sched, queue, retry_attempts, index, attempt + 1, "exception", exc)
            else:
                duration = profiling.wall_seconds() - w0 if bus is not None else None
                sched.record_ok(index, attempt + 1, value, duration)
    finally:
        _teardown_pool(pool, broken)
