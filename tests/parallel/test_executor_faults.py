"""Fault-injection tests for the executor's resilient path.

Covers the tentpole guarantees: timeouts fire and retry, backoff is
deterministic and routed through the profiling layer, worker crashes are
survived by resubmitting under a fresh pool, exhausted retries degrade to a
skipped item with a FailureReport entry (never an aborted batch), and
checkpoint journals resume without re-running completed items.
"""

import pytest

from repro.parallel import profiling
from repro.parallel.checkpoint import CheckpointJournal
from repro.parallel.executor import ExecutionConfig, run_tasks
from repro.parallel.faults import (
    FailureReport,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.utils.exceptions import ReproError

ALL_MODES = ("serial", "thread", "process")
POOLED_MODES = ("thread", "process")


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom on {x}")


def _fast_policy(**overrides):
    defaults = dict(max_retries=2, backoff_base=0.001, backoff_max=0.01)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _cfg(mode, **policy_overrides):
    return ExecutionConfig(
        mode=mode, n_workers=2, retry=_fast_policy(**policy_overrides)
    )


class TestRetry:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_transient_failure_retries_to_identical_results(self, mode):
        clean = run_tasks(_square, list(range(12)))
        report = FailureReport()
        out = run_tasks(
            _square,
            list(range(12)),
            config=_cfg(mode),
            fault_plan=FaultPlan.failing(5, attempts=[0], kind="raise"),
            failures=report,
        )
        assert out == clean
        assert not report

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_exhausted_retries_skip_item_and_report(self, mode):
        report = FailureReport()
        out = run_tasks(
            _square,
            list(range(8)),
            config=_cfg(mode),
            fault_plan=FaultPlan.failing(3, attempts=[0, 1, 2], kind="raise"),
            failures=report,
        )
        # The failed item is the NS "otherwise: 0" branch; survivors are
        # untouched and in order.
        assert out == [0, 1, 4, None, 16, 25, 36, 49]
        assert len(report) == 1
        failure = report.failures[0]
        assert failure.index == 3
        assert failure.kind == "exception"
        assert failure.attempts == 3  # initial try + 2 retries
        assert "InjectedFault" in failure.message

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_on_exhaustion_raise_propagates(self, mode):
        cfg = _cfg(mode, on_exhaustion="raise", max_retries=1)
        with pytest.raises(InjectedFault):
            run_tasks(
                _square,
                list(range(6)),
                config=cfg,
                fault_plan=FaultPlan.failing(2, attempts=[0, 1], kind="raise"),
            )

    def test_no_policy_with_failures_report_keeps_fail_fast(self):
        """Passing only a report (no RetryPolicy) must not change the
        legacy contract: first error aborts the batch."""
        with pytest.raises(RuntimeError, match="boom"):
            run_tasks(_boom, [1], failures=FailureReport())

    def test_zero_retries_skips_immediately(self):
        report = FailureReport()
        out = run_tasks(
            _square,
            [1, 2, 3],
            config=ExecutionConfig(retry=RetryPolicy(max_retries=0)),
            fault_plan=FaultPlan.failing(1, attempts=[0], kind="raise"),
            failures=report,
        )
        assert out == [1, None, 9]
        assert report.failures[0].attempts == 1


class TestBackoff:
    def test_serial_backoff_sequence_routed_through_profiling(self, monkeypatch):
        slept = []
        monkeypatch.setattr(profiling, "sleep_seconds", slept.append)
        policy = RetryPolicy(
            max_retries=3, backoff_base=0.1, backoff_multiplier=2.0, backoff_max=30.0
        )
        report = FailureReport()
        run_tasks(
            _square,
            [7],
            config=ExecutionConfig(retry=policy),
            fault_plan=FaultPlan.failing(0, attempts=[0, 1, 2, 3], kind="raise"),
            failures=report,
        )
        # Exactly the policy's deterministic schedule, in order.
        assert slept == [0.1, 0.2, 0.4]
        assert report.failures[0].attempts == 4

    @pytest.mark.parametrize("mode", POOLED_MODES)
    def test_pooled_backoff_sequence_routed_through_profiling(self, mode, monkeypatch):
        slept = []
        monkeypatch.setattr(profiling, "sleep_seconds", slept.append)
        policy = RetryPolicy(max_retries=2, backoff_base=0.05, backoff_multiplier=3.0)
        report = FailureReport()
        run_tasks(
            _square,
            list(range(4)),
            config=ExecutionConfig(mode=mode, n_workers=2, retry=policy),
            fault_plan=FaultPlan.failing(1, attempts=[0, 1, 2], kind="raise"),
            failures=report,
        )
        # One wave per retry of the single failing item: 0.05, then 0.15.
        assert slept == pytest.approx([0.05, 0.15])

    def test_repeated_runs_same_schedule(self, monkeypatch):
        runs = []
        for _ in range(2):
            slept = []
            monkeypatch.setattr(profiling, "sleep_seconds", slept.append)
            run_tasks(
                _square,
                [0],
                config=ExecutionConfig(retry=_fast_policy(backoff_base=0.2)),
                fault_plan=FaultPlan.failing(0, attempts=[0, 1, 2], kind="raise"),
                failures=FailureReport(),
            )
            runs.append(slept)
        assert runs[0] == runs[1]


class TestTimeout:
    @pytest.mark.parametrize("mode", POOLED_MODES)
    def test_hung_task_times_out_and_retries(self, mode):
        report = FailureReport()
        out = run_tasks(
            _square,
            list(range(6)),
            config=_cfg(mode, task_timeout=0.4),
            fault_plan=FaultPlan.failing(1, attempts=[0], kind="hang", hang_seconds=3.0),
            failures=report,
        )
        assert out == [0, 1, 4, 9, 16, 25]
        assert not report

    @pytest.mark.parametrize("mode", POOLED_MODES)
    def test_always_hanging_task_is_skipped_with_timeout_failure(self, mode):
        report = FailureReport()
        out = run_tasks(
            _square,
            list(range(4)),
            config=_cfg(mode, max_retries=1, task_timeout=0.4),
            fault_plan=FaultPlan.failing(
                2, attempts=[0, 1], kind="hang", hang_seconds=3.0
            ),
            failures=report,
        )
        assert out == [0, 1, None, 9]
        assert len(report) == 1
        assert report.failures[0].kind == "timeout"
        assert report.failures[0].index == 2

    def test_timeout_exhaustion_raises_when_configured(self):
        cfg = ExecutionConfig(
            mode="process",
            n_workers=2,
            retry=_fast_policy(max_retries=0, task_timeout=0.4, on_exhaustion="raise"),
        )
        with pytest.raises(TaskTimeoutError):
            run_tasks(
                _square,
                list(range(3)),
                config=cfg,
                fault_plan=FaultPlan.failing(0, attempts=[0], kind="hang", hang_seconds=3.0),
            )


class TestWorkerCrash:
    def test_crashed_worker_does_not_abort_batch(self):
        """A mid-batch worker death (BrokenProcessPool territory) is
        retried under a fresh pool and the batch completes."""
        clean = run_tasks(_square, list(range(10)))
        report = FailureReport()
        out = run_tasks(
            _square,
            list(range(10)),
            config=_cfg("process"),
            fault_plan=FaultPlan.failing(4, attempts=[0], kind="crash"),
            failures=report,
        )
        assert out == clean
        assert not report

    def test_persistent_crasher_is_skipped_with_crash_failure(self):
        report = FailureReport()
        out = run_tasks(
            _square,
            list(range(6)),
            config=_cfg("process"),
            fault_plan=FaultPlan.failing(2, attempts=[0, 1, 2], kind="crash"),
            failures=report,
        )
        assert out == [0, 1, None, 9, 16, 25]
        assert len(report) == 1
        assert report.failures[0].kind == "crash"

    def test_crash_exhaustion_raises_when_configured(self):
        cfg = ExecutionConfig(
            mode="process",
            n_workers=2,
            retry=_fast_policy(max_retries=0, on_exhaustion="raise"),
        )
        with pytest.raises(WorkerCrashError):
            run_tasks(
                _square,
                list(range(4)),
                config=cfg,
                fault_plan=FaultPlan.failing(1, attempts=[0], kind="crash"),
            )


class TestCheckpointResume:
    def test_completed_items_never_rerun(self, tmp_path):
        path = tmp_path / "run.journal"
        calls = []

        def tracked(x):
            calls.append(x)
            return x * x

        with CheckpointJournal(path) as journal:
            first = run_tasks(
                tracked, list(range(8)), checkpoint=journal, task_key=lambda x: ("sq", x)
            )
        assert first == [x * x for x in range(8)]
        assert calls == list(range(8))

        calls.clear()
        with CheckpointJournal(path) as journal:
            second = run_tasks(
                tracked, list(range(8)), checkpoint=journal, task_key=lambda x: ("sq", x)
            )
            assert journal.preloaded == 8 and journal.appended == 0
        assert second == first
        assert calls == []  # zero re-executions

    def test_partial_journal_runs_only_missing_items(self, tmp_path):
        path = tmp_path / "run.journal"
        with CheckpointJournal(path) as journal:
            for x in (0, 2, 4):
                journal.append(("sq", x), x * x)

        calls = []

        def tracked(x):
            calls.append(x)
            return x * x

        with CheckpointJournal(path) as journal:
            out = run_tasks(
                tracked, list(range(6)), checkpoint=journal, task_key=lambda x: ("sq", x)
            )
        assert out == [x * x for x in range(6)]
        assert calls == [1, 3, 5]

    def test_killed_run_resumes_where_it_left_off(self, tmp_path):
        """A run aborted mid-batch (fail-fast error at item 5) journals its
        completed prefix; the resumed run re-executes only the rest."""
        path = tmp_path / "run.journal"

        def flaky_first_run(x):
            if x == 5:
                raise RuntimeError("simulated crash")
            return x * x

        with CheckpointJournal(path) as journal:
            with pytest.raises(RuntimeError, match="simulated crash"):
                run_tasks(
                    flaky_first_run,
                    list(range(8)),
                    checkpoint=journal,
                    task_key=lambda x: ("sq", x),
                )

        calls = []

        def tracked(x):
            calls.append(x)
            return x * x

        with CheckpointJournal(path) as journal:
            out = run_tasks(
                tracked, list(range(8)), checkpoint=journal, task_key=lambda x: ("sq", x)
            )
        assert out == [x * x for x in range(8)]
        assert 5 in calls and 0 not in calls and 4 not in calls

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_journal_written_under_any_mode_resumes_serially(self, mode, tmp_path):
        path = tmp_path / f"{mode}.journal"
        cfg = ExecutionConfig(mode=mode, n_workers=2, retry=_fast_policy())
        with CheckpointJournal(path) as journal:
            out = run_tasks(
                _square, list(range(10)), config=cfg,
                checkpoint=journal, task_key=lambda x: ("sq", x),
            )
        with CheckpointJournal(path) as journal:
            resumed = run_tasks(
                _boom,  # would raise if anything were re-executed
                list(range(10)),
                checkpoint=journal,
                task_key=lambda x: ("sq", x),
            )
        assert resumed == out == [x * x for x in range(10)]

    def test_checkpoint_requires_task_key(self, tmp_path):
        with CheckpointJournal(tmp_path / "run.journal") as journal:
            with pytest.raises(ReproError, match="task_key"):
                run_tasks(_square, [1, 2], checkpoint=journal)

    def test_duplicate_task_keys_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            run_tasks(
                _square, [1, 2, 3], task_key=lambda x: "same",
                config=ExecutionConfig(retry=_fast_policy()),
            )

    def test_skipped_items_are_not_journaled(self, tmp_path):
        """Exhausted failures stay out of the journal so a later resume
        retries them (transient faults should not be permanent skips)."""
        path = tmp_path / "run.journal"
        with CheckpointJournal(path) as journal:
            out = run_tasks(
                _square,
                list(range(4)),
                config=ExecutionConfig(retry=_fast_policy(max_retries=0)),
                fault_plan=FaultPlan.failing(1, attempts=[0], kind="raise"),
                failures=FailureReport(),
                checkpoint=journal,
                task_key=lambda x: ("sq", x),
            )
        assert out == [0, None, 4, 9]

        with CheckpointJournal(path) as journal:
            assert ("sq", 1) not in journal
            resumed = run_tasks(
                _square, list(range(4)), checkpoint=journal, task_key=lambda x: ("sq", x)
            )
        assert resumed == [0, 1, 4, 9]


class TestCrossModeDeterminism:
    def test_identical_results_under_injected_faults(self):
        """DESIGN.md §6 extended to the fault path: the same fault plan
        yields bit-identical results whichever way the work is scheduled."""
        plan = FaultPlan(
            {(2, 0): "raise", (7, 0): "raise", (7, 1): "raise", (9, 0): "raise",
             (9, 1): "raise", (9, 2): "raise"}
        )
        runs = {}
        for mode in ALL_MODES:
            report = FailureReport()
            runs[mode] = (
                run_tasks(
                    _square,
                    list(range(12)),
                    config=_cfg(mode),
                    fault_plan=plan,
                    failures=report,
                ),
                sorted(report.indices()),
            )
        assert runs["serial"] == runs["thread"] == runs["process"]
        values, skipped = runs["serial"]
        assert skipped == [9]
        assert values[9] is None and values[2] == 4 and values[7] == 49


def _worker_of(x):
    """Which worker ran the item: (process, thread)."""
    import os
    import threading

    return os.getpid(), threading.get_ident()


def _unpicklable_at_7(x):
    return (lambda: x) if x == 7 else x * x


class TestChunkedWave:
    """Pooled waves submit ``ceil(n / (4 * workers))`` items per chunk; a
    chunk reports each item's own outcome and duration."""

    N_ITEMS = 40  # > 4 * 2 workers, so each chunk holds 5 items
    CHUNK = 5

    def _events(self, mode, fault_plan=None, policy=None, fn=_square):
        from repro.telemetry import EventBus, MemorySink
        from repro.telemetry import runtime as telemetry_runtime

        sink = MemorySink()
        report = FailureReport()
        previous = telemetry_runtime.set_bus(EventBus([sink]))
        try:
            out = run_tasks(
                fn,
                list(range(self.N_ITEMS)),
                config=ExecutionConfig(mode=mode, n_workers=2, retry=policy),
                fault_plan=fault_plan,
                failures=report if policy is not None else None,
            )
        finally:
            telemetry_runtime.set_bus(previous)
        return out, report, [r.event for r in sink.records]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_every_finished_item_carries_a_float_duration(self, mode):
        out, _, events = self._events(mode)
        assert out == [x * x for x in range(self.N_ITEMS)]
        finished = [e for e in events if e.name == "FeatureTaskFinished"]
        assert len(finished) == self.N_ITEMS
        assert all(isinstance(e.duration_s, float) for e in finished)

    def _chunks(self, values):
        return [values[lo : lo + self.CHUNK] for lo in range(0, self.N_ITEMS, self.CHUNK)]

    @pytest.mark.parametrize("mode", POOLED_MODES)
    def test_chunks_run_their_items_in_one_worker(self, mode):
        out, _, _ = self._events(mode, fn=_worker_of)
        assert all(len(set(workers)) == 1 for workers in self._chunks(out))

    @pytest.mark.parametrize("mode", POOLED_MODES)
    def test_raising_item_is_charged_alone(self, mode):
        bad = 7  # mid-chunk: chunk [5, 10) also holds four clean items
        out, report, events = self._events(
            mode,
            fault_plan=FaultPlan.failing(bad, attempts=[0], kind="raise"),
            policy=_fast_policy(),
            fn=_worker_of,
        )
        assert not report
        # The clean items of every chunk, the bad item's chunk-mates
        # included, completed together in one worker on the first wave.
        for chunk in self._chunks(list(range(self.N_ITEMS))):
            assert len({out[i] for i in chunk if i != bad}) == 1
        attempts = {
            e.index: e.attempts for e in events if e.name == "FeatureTaskFinished"
        }
        assert attempts == {i: (2 if i == bad else 1) for i in range(self.N_ITEMS)}
        retries = [e for e in events if e.name == "RetryScheduled"]
        assert [(e.index, e.kind) for e in retries] == [(bad, "exception")]
        second_wave = [
            e.index for e in events if e.name == "FeatureTaskStarted" and e.attempt == 1
        ]
        assert second_wave == [bad]

    def test_crash_in_multi_item_chunk_is_attributed_by_the_probe(self):
        bad = 12
        out, report, events = self._events(
            "process",
            fault_plan=FaultPlan.failing(bad, attempts=[0], kind="crash"),
            policy=_fast_policy(),
        )
        assert out == [x * x for x in range(self.N_ITEMS)]
        assert not report
        crashes = [e for e in events if e.name == "WorkerCrashDetected"]
        assert [e.phase for e in crashes] == ["wave", "probe"]
        assert crashes[1].index == bad
        retries = [e for e in events if e.name == "RetryScheduled"]
        assert [(e.index, e.kind) for e in retries] == [(bad, "crash")]

    def test_timed_out_multi_item_chunk_is_attributed_by_the_probe(self):
        bad = 12
        out, report, events = self._events(
            "process",
            fault_plan=FaultPlan.failing(bad, attempts=[0], kind="hang", hang_seconds=3.0),
            policy=_fast_policy(task_timeout=0.3),
        )
        assert out == [x * x for x in range(self.N_ITEMS)]
        assert not report
        timed_out = [e.index for e in events if e.name == "TaskTimedOut"]
        assert timed_out == [bad]
        retries = [e for e in events if e.name == "RetryScheduled"]
        assert [(e.index, e.kind) for e in retries] == [(bad, "timeout")]

    def test_chunk_level_failure_is_attributed_by_the_probe(self):
        """A result that cannot travel back fails its whole chunk, not one
        item; the probe pins it on the item that produced it."""
        out, report, events = self._events(
            "process", policy=_fast_policy(max_retries=1), fn=_unpicklable_at_7
        )
        assert out == [None if x == 7 else x * x for x in range(self.N_ITEMS)]
        assert report.indices() == [7]
        assert report.failures[0].kind == "exception"
        retries = [e for e in events if e.name == "RetryScheduled"]
        assert [(e.index, e.kind) for e in retries] == [(7, "exception")]
