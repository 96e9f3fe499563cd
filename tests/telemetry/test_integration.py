"""Telemetry integration: the acceptance criteria of docs/observability.md.

- Off by default: no bus, no trace file, and scores byte-identical with
  telemetry on vs off (observation channel, never a computation input).
- Deterministic replay: two identical seeded runs produce identical
  per-feature event counts and signature multisets, including under
  injected faults (retries, timeouts, worker crashes).
- ``python -m repro trace`` summarizes a recorded trace, with fault
  counts matching the embedded FailureReport exactly.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import FRaC, FRaCConfig
from repro.cli import main as cli_main
from repro.data.replicates import make_replicate
from repro.data.synthetic import ExpressionConfig, make_expression_dataset
from repro.parallel.executor import ExecutionConfig, run_tasks
from repro.parallel.faults import FailureReport, FaultPlan, RetryPolicy
from repro.persistence import load_detector, save_detector
from repro.telemetry import EventBus, MemorySink, get_bus, per_feature_counts, read_trace
from repro.telemetry import runtime as telemetry_runtime


@pytest.fixture(scope="module")
def tiny_rep():
    cfg = ExpressionConfig(
        n_features=8,
        n_normal=24,
        n_anomaly=6,
        n_modules=2,
        module_size=4,
        name="tiny-telemetry",
    )
    return make_replicate(make_expression_dataset(cfg, rng=5), rng=1)


def _fit_scores(rep, *, rng=0):
    frac = FRaC(FRaCConfig.fast(), rng=rng).fit(rep.x_train, rep.schema)
    return frac, frac.score(rep.x_test)


def _square(x):
    return x * x


def _policy(**overrides):
    defaults = dict(max_retries=2, backoff_base=0.001, backoff_max=0.01)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestZeroOverheadOff:
    def test_no_bus_and_no_trace_by_default(self, no_ambient_bus, tiny_rep):
        assert get_bus() is None
        frac, _ = _fit_scores(tiny_rep)
        assert frac.models_  # the fit ran fine with telemetry entirely off

    def test_scores_byte_identical_with_and_without_trace(
        self, no_ambient_bus, tiny_rep, tmp_path
    ):
        _, baseline = _fit_scores(tiny_rep)

        trace = tmp_path / "run.jsonl"
        telemetry_runtime.configure(trace_path=str(trace))
        try:
            _, traced = _fit_scores(tiny_rep)
        finally:
            telemetry_runtime.shutdown()

        assert baseline.tobytes() == traced.tobytes()
        assert trace.exists()


class TestReplayDeterminism:
    def _traced_fit(self, rep, path):
        telemetry_runtime.configure(trace_path=str(path))
        try:
            frac = FRaC(FRaCConfig.fast(), rng=0).fit(rep.x_train, rep.schema)
            frac.score(rep.x_test)
        finally:
            telemetry_runtime.shutdown()
        return read_trace(path)

    def test_two_seeded_runs_replay_to_same_per_feature_counts(
        self, no_ambient_bus, tiny_rep, tmp_path
    ):
        first = self._traced_fit(tiny_rep, tmp_path / "a.jsonl")
        second = self._traced_fit(tiny_rep, tmp_path / "b.jsonl")
        assert per_feature_counts(first.records) == per_feature_counts(second.records)
        names = {r["event"] for r in first.records}
        assert {"RunStarted", "FeatureTaskStarted", "FeatureTaskFinished",
                "FoldTrained", "ScoreComputed", "RunFinished"} <= names

    def _fault_signatures(self, mode, fault_plan, *, n_workers=2, **policy):
        sink = MemorySink()
        previous = telemetry_runtime.set_bus(EventBus([sink]))
        try:
            run_tasks(
                _square,
                list(range(6)),
                config=ExecutionConfig(
                    mode=mode, n_workers=n_workers, retry=_policy(**policy)
                ),
                fault_plan=fault_plan,
                failures=FailureReport(),
            )
        finally:
            telemetry_runtime.set_bus(previous)
        return sink.signatures()

    def test_retry_events_deterministic_across_runs(self):
        plan = FaultPlan.failing(3, attempts=[0], kind="raise")
        runs = [self._fault_signatures("serial", plan) for _ in range(2)]
        assert runs[0] == runs[1]
        names = {sig[0] for sig in runs[0]}
        assert "RetryScheduled" in names

    def test_thread_mode_multiset_deterministic(self):
        plan = FaultPlan.failing(2, attempts=[0, 1, 2], kind="raise")
        runs = [self._fault_signatures("thread", plan) for _ in range(2)]
        assert runs[0] == runs[1]
        skipped = [s for s in runs[0] if s[0] == "FeatureTaskFinished"
                   and ("status", "skipped") in s]
        assert len(skipped) == 1

    def test_worker_crash_events_deterministic(self):
        # One worker pins the submit schedule, so the crash wave is the
        # same on every run (see the executor's crash-attribution notes).
        plan = FaultPlan.failing(2, attempts=[0], kind="crash")
        runs = [
            self._fault_signatures("process", plan, n_workers=1) for _ in range(2)
        ]
        assert runs[0] == runs[1]
        names = {sig[0] for sig in runs[0]}
        assert "WorkerCrashDetected" in names and "RetryScheduled" in names

    def test_timeout_emits_timed_out_then_retry(self):
        plan = FaultPlan.failing(1, attempts=[0], kind="hang", hang_seconds=3.0)
        sigs = self._fault_signatures(
            "process", plan, n_workers=2, task_timeout=0.4
        )
        names = {sig[0] for sig in sigs}
        assert "TaskTimedOut" in names
        retry_kinds = {dict(s[1:])["kind"] for s in sigs if s[0] == "RetryScheduled"}
        assert retry_kinds == {"timeout"}


class TestCheckpointEvents:
    def test_fresh_run_misses_resumed_run_hits(self, tmp_path, memory_bus):
        from repro.parallel.checkpoint import CheckpointJournal

        bus, sink = memory_bus
        journal_path = tmp_path / "run.journal"
        items = list(range(5))
        config = ExecutionConfig(mode="serial", retry=_policy())

        with CheckpointJournal(journal_path) as journal:
            run_tasks(_square, items, config=config, checkpoint=journal,
                      task_key=lambda x: x)
        fresh = sink.signatures()
        assert sum(v for s, v in fresh.items() if s[0] == "CheckpointMiss") == 5
        assert sum(v for s, v in fresh.items() if s[0] == "CheckpointHit") == 0

        sink.records.clear()
        with CheckpointJournal(journal_path) as journal:
            out = run_tasks(_square, items, config=config, checkpoint=journal,
                            task_key=lambda x: x)
        resumed = sink.signatures()
        assert out == [x * x for x in items]
        assert sum(v for s, v in resumed.items() if s[0] == "CheckpointHit") == 5
        cached = [s for s in resumed if s[0] == "FeatureTaskFinished"
                  and ("status", "cached") in s]
        assert len(cached) == 5


class TestPersistedMetadata:
    def test_save_detector_embeds_trace_metadata(self, tiny_rep, tmp_path, memory_bus):
        bus, _ = memory_bus
        frac, _ = _fit_scores(tiny_rep)
        path = tmp_path / "frac.pkl"
        save_detector(frac, path, schema=tiny_rep.schema, metadata={"dataset": "tiny"})
        _, meta = load_detector(path)
        assert meta["telemetry"]["n_events"] == bus.n_emitted
        assert meta["telemetry"]["event_counts"]["RunFinished"] == 1

    def test_no_bus_no_telemetry_key(self, no_ambient_bus, tiny_rep, tmp_path):
        frac, _ = _fit_scores(tiny_rep)
        path = tmp_path / "frac.pkl"
        save_detector(frac, path, schema=tiny_rep.schema)
        _, meta = load_detector(path)
        assert "telemetry" not in meta


class TestTraceCli:
    def _record_faulty_run(self, rep, path):
        cfg = dataclasses.replace(
            FRaCConfig.fast(),
            execution=ExecutionConfig(mode="serial", retry=_policy(max_retries=1)),
        )
        telemetry_runtime.configure(trace_path=str(path))
        try:
            frac = FRaC(cfg, rng=0).fit(
                rep.x_train,
                rep.schema,
                fault_plan=FaultPlan.failing(2, attempts=[0, 1], kind="raise"),
            )
        finally:
            telemetry_runtime.shutdown()
        return frac

    def test_summary_fault_counts_match_embedded_report(
        self, no_ambient_bus, tiny_rep, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        frac = self._record_faulty_run(tiny_rep, trace)
        assert len(frac.failure_report_) == 1

        assert cli_main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "skipped (exception): 1 [failure report: 1]" in out
        assert "event/report accounting: consistent" in out
        assert "retries scheduled: 1" in out
        assert "frac.fit: ok" in out

    def test_trace_without_path_errors(self, no_ambient_bus, capsys):
        assert cli_main(["trace"]) == 2
        assert "trace requires a trace file" in capsys.readouterr().err

    def test_openmetrics_flag_is_rejected(self, no_ambient_bus, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["table1", "--openmetrics", str(tmp_path / "metrics.prom")])
        assert excinfo.value.code == 2

    def test_corrupt_mid_file_trace_errors(self, no_ambient_bus, tmp_path, capsys):
        trace = tmp_path / "corrupt.jsonl"
        trace.write_text(
            json.dumps({"format": "repro-trace-v1"}) + "\n"
            + "garbage\n"
            + json.dumps({"seq": 0, "t": 0.0, "event": "RunStarted"}) + "\n"
        )
        assert cli_main(["trace", str(trace)]) == 2
        assert "undecodable" in capsys.readouterr().err

    def test_cli_trace_flag_records_then_summarizes(
        self, no_ambient_bus, tmp_path, capsys
    ):
        trace = tmp_path / "fit.jsonl"
        out_pkl = tmp_path / "det.pkl"
        code = cli_main(
            ["fit", "--dataset", "breast.basal", "--scale", "0.02",
             "--samples", "0.5", "--trace", str(trace), "--output", str(out_pkl)]
        )
        assert code == 0
        assert get_bus() is None  # the CLI tore down the bus it configured
        capsys.readouterr()

        assert cli_main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "frac.fit: ok" in out
        assert "event/report accounting: consistent" in out

        _, meta = load_detector(out_pkl)
        assert meta["telemetry"]["trace_path"] == str(trace)
        assert meta["settings"]["scale"] == 0.02


class TestFoldEvents:
    def test_fold_trained_covers_every_model_fold(self, tiny_rep, memory_bus):
        bus, sink = memory_bus
        frac, _ = _fit_scores(tiny_rep)
        folds = [e for e in sink.events() if e.name == "FoldTrained"]
        assert folds
        n_folds = folds[0].n_folds
        assert len(folds) == len(frac.models_) * n_folds
        assert {f.feature_id for f in folds} == {m.feature_id for m in frac.models_}


def test_numpy_payloads_trace_cleanly(no_ambient_bus, tmp_path):
    """Engine keys are numpy ints; the trace must stay valid JSON."""
    from repro.telemetry.events import FeatureTaskFinished

    trace = tmp_path / "np.jsonl"
    bus = telemetry_runtime.configure(trace_path=str(trace))
    bus.emit(
        FeatureTaskFinished(
            index=np.int64(1), key=(np.int64(3), np.int64(0)), duration_s=np.float64(0.5)
        )
    )
    telemetry_runtime.shutdown()
    result = read_trace(trace)
    assert result.errors == [] and result.records[0]["key"] == [3, 0]
