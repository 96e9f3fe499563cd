"""Batched execution vs checkpoint/fault semantics.

The batched executor path must preserve the per-feature path's crash
model exactly: journals written by either path interchange (same keys,
same values), a resumed fit re-executes zero completed items whichever
path wrote the journal, and a failing *batch* decomposes to per-feature
execution instead of taking its members down with it. The per-feature
side runs under the ``per_feature_path`` fixture.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import FRaC, FRaCConfig, load_replicates
from repro.core import engine
from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.learners.ridge import RidgeRegressor
from repro.parallel import (
    CheckpointJournal,
    ExecutionConfig,
    FaultPlan,
    RetryPolicy,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def rep():
    return load_replicates("breast.basal", scale=0.03, rng=5)[0]


def _policy(**overrides):
    defaults = dict(max_retries=2, backoff_base=0.001, backoff_max=0.01)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _fit(rep, *, rng=33, fault_plan=None, checkpoint=None, policy=None):
    cfg = FRaCConfig.fast(
        execution=ExecutionConfig(mode="serial", n_workers=1, retry=policy),
    )
    frac = FRaC(cfg, rng=rng)
    frac.fit(rep.x_train, rep.schema, fault_plan=fault_plan, checkpoint=checkpoint)
    return frac


class TestJournalInterchange:
    def test_batched_and_per_feature_journals_share_keys(
        self, rep, tmp_path, per_feature_path
    ):
        """The batched path journals under per-feature keys: both paths
        produce the identical key set for the identical run."""
        with CheckpointJournal(tmp_path / "batched.journal") as journal:
            _fit(rep, checkpoint=journal)
            batched_keys = set(journal.entries())
            assert journal.appended == len(batched_keys) > 0
        with CheckpointJournal(tmp_path / "scalar.journal") as journal, per_feature_path():
            _fit(rep, checkpoint=journal)
            scalar_keys = set(journal.entries())
        assert batched_keys == scalar_keys
        # Per-feature granularity, not batch granularity: every key is one
        # (feature_id, slot, seed) triple.
        assert all(len(k) == 3 for k in batched_keys)

    def test_per_feature_journal_resumed_by_batched_run(
        self, rep, tmp_path, per_feature_path
    ):
        """A journal written by the per-feature path fully satisfies a
        batched resume: zero items re-execute."""
        path = tmp_path / "fit.journal"
        with CheckpointJournal(path) as journal, per_feature_path():
            first = _fit(rep, checkpoint=journal)
            n_items = journal.appended
            assert n_items > 0
        with CheckpointJournal(path) as journal:
            resumed = _fit(rep, checkpoint=journal)
            assert journal.preloaded == n_items and journal.appended == 0
        np.testing.assert_array_equal(
            first.score(rep.x_test), resumed.score(rep.x_test)
        )


class TestBatchedResume:
    def test_batched_journal_resumes_with_zero_reexecution(
        self, rep, tmp_path, per_feature_path
    ):
        """Poison-plan proof: resume a batched-written journal under a plan
        that fails every item on every attempt. A fault plan routes the
        resume down the per-feature path, so identical scores prove both
        zero re-executions *and* cross-path journal compatibility."""
        path = tmp_path / "fit.journal"
        with CheckpointJournal(path) as journal:
            first = _fit(rep, checkpoint=journal)
            n_items = journal.appended
            assert n_items > 0

        poison = FaultPlan(
            {(i, k): "raise" for i in range(n_items) for k in range(3)}
        )
        with CheckpointJournal(path) as journal, per_feature_path():
            resumed = _fit(
                rep,
                policy=_policy(on_exhaustion="raise"),
                checkpoint=journal,
                fault_plan=poison,
            )
            assert journal.preloaded == n_items and journal.appended == 0
        np.testing.assert_array_equal(
            first.score(rep.x_test), resumed.score(rep.x_test)
        )

    def test_partial_batched_journal_resumes_only_missing_items(self, rep, tmp_path):
        """A truncated batched journal (simulated kill) replays its prefix
        and executes only the missing features on the batched path."""
        path = tmp_path / "fit.journal"
        with CheckpointJournal(path) as journal:
            _fit(rep, checkpoint=journal)
            full = journal.appended
        # Drop the last half of the journal: rewrite only a prefix.
        with CheckpointJournal(path) as journal:
            entries = list(journal.entries().items())
        keep = entries[: full // 2]
        path.unlink()
        with CheckpointJournal(path) as journal:
            for key, value in keep:
                journal.append(key, value)
        with CheckpointJournal(path) as journal:
            resumed = _fit(rep, checkpoint=journal)
            assert journal.preloaded == len(keep)
            assert journal.appended == full - len(keep)
        clean = _fit(rep)
        np.testing.assert_array_equal(
            clean.score(rep.x_test), resumed.score(rep.x_test)
        )


_run_feature_batch = engine.run_feature_batch


def _fail_group_batches(batch):
    """``run_feature_batch``, except that every batch of more than one
    member fails; a batch of one (a decomposed member through
    ``run_feature_task``) still trains. Module level, so process-mode
    workers can unpickle it."""
    if len(batch.tasks) > 1:
        raise RuntimeError("injected batch failure")
    return _run_feature_batch(batch)


class TestBatchFailureDecomposition:
    def test_failing_batch_decomposes_to_per_feature(self, rep, monkeypatch):
        """When every batch fails, members fall back to per-feature
        execution and the fit still matches a clean run bit for bit."""
        clean = _fit(rep)
        monkeypatch.setattr(engine, "run_feature_batch", _fail_group_batches)
        decomposed = _fit(rep, policy=_policy(max_retries=1))
        assert decomposed.failure_report_ is not None
        assert not decomposed.failure_report_  # no feature was lost
        assert decomposed.n_failed_ == 0
        np.testing.assert_array_equal(
            clean.score(rep.x_test), decomposed.score(rep.x_test)
        )

    def test_failing_batch_journals_per_feature_completions(
        self, rep, tmp_path, monkeypatch
    ):
        """Decomposed members still stream into the journal at per-feature
        keys, so a later resume sees a complete journal."""
        monkeypatch.setattr(engine, "run_feature_batch", _fail_group_batches)
        path = tmp_path / "fit.journal"
        with CheckpointJournal(path) as journal:
            _fit(rep, checkpoint=journal, policy=_policy(max_retries=1))
            n_items = journal.appended
            assert n_items > 0
        monkeypatch.undo()
        with CheckpointJournal(path) as journal:
            _fit(rep, checkpoint=journal)
            assert journal.preloaded == n_items and journal.appended == 0


@pytest.fixture
def ridge_fit_calls(monkeypatch, tmp_path):
    """Count ``RidgeRegressor.fit`` calls, forked process-mode workers
    included: each call appends one byte to a file."""
    path = tmp_path / "ridge-fit-calls"
    path.touch()
    fit = RidgeRegressor.fit

    def counted(self, x, y):
        with open(path, "ab") as calls:
            calls.write(b".")
        return fit(self, x, y)

    monkeypatch.setattr(RidgeRegressor, "fit", counted)
    return lambda: path.stat().st_size


def _ridge_data():
    """12 real features. Two carry NaN holes; the other ten share every
    row, so they train as one group of ten."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, 12))
    for j in (0, 1):
        x[rng.random(60) < 0.1, j] = np.nan
    schema = FeatureSchema(
        tuple(FeatureSpec(FeatureKind.REAL, name=f"r{j}") for j in range(12))
    )
    return x, rng.normal(size=(20, 12)), schema


class TestOneRidgeFormula:
    """Fault-plan runs and decomposed batches train ridge with the group
    solver a clean batched run uses: no ``RidgeRegressor.fit`` call, and
    the same NS scores bit for bit, in every execution mode."""

    CONFIG = FRaCConfig(regressor="ridge")

    def scores(self, mode="serial", **fit_kwargs):
        x, x_test, schema = _ridge_data()
        execution = ExecutionConfig(mode=mode, n_workers=2, retry=_policy(max_retries=1))
        frac = FRaC(replace(self.CONFIG, execution=execution), rng=7)
        return frac.fit(x, schema, **fit_kwargs).score(x_test)

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_fault_plan_run(self, mode, ridge_fit_calls):
        clean = self.scores()
        faulted = self.scores(mode, fault_plan=FaultPlan.failing(4, attempts=[0]))
        assert ridge_fit_calls() == 0
        np.testing.assert_array_equal(clean, faulted)

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_decomposed_batch_run(self, mode, ridge_fit_calls, monkeypatch):
        clean = self.scores()
        monkeypatch.setattr(engine, "run_feature_batch", _fail_group_batches)
        decomposed = self.scores(mode)
        assert ridge_fit_calls() == 0
        np.testing.assert_array_equal(clean, decomposed)

    def test_per_feature_path_fits_each_member(self, ridge_fit_calls, per_feature_path):
        """The reference learners: one fit per (feature, fold) plus each
        feature's refit, and the same scores."""
        clean = self.scores()
        with per_feature_path():
            reference = self.scores(fault_plan=FaultPlan.failing(4, attempts=[0]))
        assert ridge_fit_calls() == 12 * (self.CONFIG.n_folds + 1)
        np.testing.assert_array_equal(clean, reference)
