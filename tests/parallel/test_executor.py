"""Tests for the parallel executor (serial / thread / process modes)."""

import os

import numpy as np
import pytest

from repro.parallel.executor import ExecutionConfig, get_shared, run_tasks
from repro.parallel.faults import FailureReport, FaultPlan, RetryPolicy
from repro.telemetry import EventBus, MemorySink
from repro.telemetry import runtime as telemetry_runtime
from repro.utils.exceptions import ReproError


def _square(x):
    return x * x


def _shared_lookup(i):
    return get_shared()["data"][i]


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.mode == "serial" and cfg.effective_workers == 1

    def test_bad_mode(self):
        with pytest.raises(ReproError):
            ExecutionConfig(mode="gpu")

    def test_bad_workers(self):
        with pytest.raises(ReproError):
            ExecutionConfig(mode="thread", n_workers=0)

    def test_bad_chunk(self):
        """Chunk size is computed from the item and worker counts, never
        configured: the option does not exist."""
        with pytest.raises(TypeError):
            ExecutionConfig(chunk_size=3)

    def test_effective_workers_pool(self):
        cfg = ExecutionConfig(mode="thread", n_workers=3)
        assert cfg.effective_workers == 3

    def test_effective_workers_default_cpu(self):
        cfg = ExecutionConfig(mode="process")
        assert cfg.effective_workers == (os.cpu_count() or 1)


class TestRunTasks:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_results_in_order(self, mode):
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        assert run_tasks(_square, list(range(20)), config=cfg) == [i * i for i in range(20)]

    def test_empty_items(self):
        assert run_tasks(_square, []) == []

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_shared_state_visible(self, mode):
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        shared = {"data": np.arange(10) * 10}
        out = run_tasks(_shared_lookup, list(range(10)), shared=shared, config=cfg)
        assert out == [i * 10 for i in range(10)]

    def test_shared_cleared_after_serial_run(self):
        run_tasks(_square, [1], shared={"x": 1})
        assert get_shared() is None

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_identical_results_across_modes(self, mode):
        """DESIGN.md §6: execution mode must not change results."""
        reference = run_tasks(_square, list(range(12)), config=ExecutionConfig())
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        assert run_tasks(_square, list(range(12)), config=cfg) == reference

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_indices_name_items_in_reports(self, mode):
        """A subset of a larger task list keeps its own indices in events,
        failure records and fault-plan lookups."""
        cfg = ExecutionConfig(
            mode=mode, n_workers=2, retry=RetryPolicy(max_retries=0, on_exhaustion="skip")
        )
        indices = [2, 5, 9, 11]
        report = FailureReport()
        sink = MemorySink()
        previous = telemetry_runtime.set_bus(EventBus([sink]))
        try:
            out = run_tasks(
                _square,
                [1, 2, 3, 4],
                config=cfg,
                fault_plan=FaultPlan.failing(9),
                failures=report,
                indices=indices,
            )
        finally:
            telemetry_runtime.set_bus(previous)
        assert out == [1, 4, None, 16]
        assert report.indices() == [9]
        finished = {
            r.event.index: r.event.status
            for r in sink.records
            if r.event.name == "FeatureTaskFinished"
        }
        assert finished == {2: "ok", 5: "ok", 9: "skipped", 11: "ok"}

    def test_indices_must_name_each_item_once(self):
        with pytest.raises(ReproError, match="indices"):
            run_tasks(_square, [1, 2], indices=[3, 3])
        with pytest.raises(ReproError, match="indices"):
            run_tasks(_square, [1, 2], indices=[3])

    def test_exception_propagates_serial(self):
        def boom(i):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_tasks(boom, [1])
