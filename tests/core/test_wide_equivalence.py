"""Full FRaC with ridge in the wide regime (more features than rows).

Every real target's inputs are all the other columns, and its design has
more columns than any fold has rows, so its ridge fits take the dual
all-others path: one factorization per (group, fold), shared by every
member (:meth:`repro.learners.batched.RidgeMaskedSolver.solver`). Those
floats are not ``RidgeRegressor``'s, so this suite pins two things:

- byte equivalence (``np.array_equal``) between every way of running the
  same fit — clean batched, fault-plan (a batch of one per feature),
  decomposed batches, other batch boundaries, serial / thread / process
  modes, a checkpoint resume and a save/load round trip;
- closeness to the per-feature reference learners (``per_feature_path``)
  within stated tolerances, and bitwise agreement with them for a member
  whose Sherman–Morrison denominator trips the guard.

The data has ``MAX_BATCH_FEATURES + 12`` features over 30 rows; a few
features carry NaN holes (their own mask groups), and the complete
features form one group larger than a batch, so it chunks.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import FRaC, FRaCConfig
from repro.core import engine
from repro.core.engine import MAX_BATCH_FEATURES, FeatureTask, SharedTrainState
from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.learners.batched import RidgeMaskedSolver
from repro.parallel import CheckpointJournal, ExecutionConfig, FaultPlan, RetryPolicy
from repro.persistence import load_detector, save_detector

N_ROWS = 30
N_FEATURES = MAX_BATCH_FEATURES + 12
HOLED = range(6)
CONFIG = FRaCConfig(regressor="ridge")

_run_feature_batch = engine.run_feature_batch


def _fail_group_batches(batch):
    """``run_feature_batch``, except that every batch of more than one
    member fails, so it decomposes into batches of one. Module level, so
    process-mode workers can unpickle it."""
    if len(batch.tasks) > 1:
        raise RuntimeError("injected batch failure")
    return _run_feature_batch(batch)


def wide_data(scale_column=None):
    """(x, x_test, schema): correlated real features with NaN holes in
    ``HOLED``; ``scale_column`` is blown up by 1e6 (unstandardized fits
    then trip the Sherman–Morrison guard for that target)."""
    rng = np.random.default_rng(17)
    latent = rng.normal(size=(N_ROWS + 12, 4))
    loadings = rng.normal(size=(4, N_FEATURES))
    full = latent @ loadings + 0.5 * rng.normal(size=(N_ROWS + 12, N_FEATURES))
    if scale_column is not None:
        full[:, scale_column] *= 1e6
    x, x_test = full[:N_ROWS], full[N_ROWS:]
    for j in HOLED:
        x[rng.random(N_ROWS) < 0.15, j] = np.nan
    schema = FeatureSchema(
        tuple(FeatureSpec(FeatureKind.REAL, name=f"r{j}") for j in range(N_FEATURES))
    )
    return x, x_test, schema


def fit(config=CONFIG, *, mode="serial", data=None, **fit_kwargs):
    x, x_test, schema = data or wide_data()
    execution = ExecutionConfig(
        mode=mode, n_workers=2, retry=RetryPolicy(max_retries=1, backoff_base=0.001)
    )
    det = FRaC(replace(config, execution=execution), rng=3)
    return det.fit(x, schema, **fit_kwargs), x_test


def model_bytes(det):
    return [pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL) for m in det.models_]


def assert_identical(det, reference, x_test):
    np.testing.assert_array_equal(det.score(x_test), reference.score(x_test))
    assert model_bytes(det) == model_bytes(reference)


@pytest.fixture(scope="module")
def clean():
    return fit()


def test_the_data_is_wide_and_chunks():
    x, _, schema = wide_data()
    tasks = [
        FeatureTask(feature_id=j, input_ids=np.delete(np.arange(N_FEATURES), j), seed=j)
        for j in range(N_FEATURES)
    ]
    shared = SharedTrainState(x_imputed=x, x_targets=x, schema=schema, config=CONFIG)
    batches, passthrough = engine.plan_feature_batches(tasks, shared)
    assert passthrough == []
    assert max(len(b.tasks) for b in batches) == MAX_BATCH_FEATURES
    assert len({b.group for b in batches}) < len(batches)  # a group chunked
    assert N_FEATURES - 1 > N_ROWS


def test_every_member_shares_the_factorization(monkeypatch):
    """No member falls back to its own Gram: ``member`` is never called."""
    calls = []
    member = RidgeMaskedSolver.member
    monkeypatch.setattr(
        RidgeMaskedSolver, "member", lambda self, ids: calls.append(ids) or member(self, ids)
    )
    fit()
    assert calls == []


class TestByteEquivalence:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_fault_plan_run(self, clean, mode):
        det, x_test = fit(mode=mode, fault_plan=FaultPlan.failing(7, attempts=[0]))
        assert_identical(det, clean[0], x_test)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_decomposed_batches(self, clean, mode, monkeypatch):
        monkeypatch.setattr(engine, "run_feature_batch", _fail_group_batches)
        det, x_test = fit(mode=mode)
        assert det.n_failed_ == 0
        assert_identical(det, clean[0], x_test)

    def test_other_batch_boundaries(self, clean, monkeypatch):
        monkeypatch.setattr(engine, "MAX_BATCH_FEATURES", 5)
        det, x_test = fit()
        assert_identical(det, clean[0], x_test)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_modes(self, clean, mode):
        det, x_test = fit(mode=mode)
        assert_identical(det, clean[0], x_test)

    def test_checkpoint_resume(self, clean, tmp_path):
        """Half a journal replays; the resumed fit trains only the rest."""
        path = tmp_path / "fit.journal"
        with CheckpointJournal(path) as journal:
            fit(checkpoint=journal)
            entries = list(journal.entries().items())
        path.unlink()
        keep = entries[: len(entries) // 2]
        with CheckpointJournal(path) as journal:
            for key, value in keep:
                journal.append(key, value)
        with CheckpointJournal(path) as journal:
            resumed, x_test = fit(checkpoint=journal)
            assert journal.preloaded == len(keep)
            assert journal.appended == len(entries) - len(keep)
        assert_identical(resumed, clean[0], x_test)

    def test_save_load_round_trip(self, clean, tmp_path):
        det, x_test = clean
        save_detector(det, tmp_path / "wide.pkl")
        loaded = load_detector(tmp_path / "wide.pkl")[0]
        assert_identical(loaded, det, x_test)


class TestAgainstThePerFeatureReference:
    def test_scores_and_coefficients_are_close(self, clean, per_feature_path):
        det, x_test = clean
        with per_feature_path():
            reference, _ = fit()
        # Measured on this data: largest relative difference 1.0e-15 in the
        # scores, 8.8e-15 in the coefficients, 5.8e-14 in the CV means.
        np.testing.assert_allclose(det.score(x_test), reference.score(x_test), rtol=1e-10)
        for ours, theirs in zip(det.models_, reference.models_):
            a, b = ours.predictor, theirs.predictor
            scale = np.abs(b.coef_).max()
            assert np.abs(a.coef_ - b.coef_).max() <= 1e-10 * scale
            assert abs(a.intercept_ - b.intercept_) <= 1e-10 * max(1.0, scale)
            assert ours.cv_mean_surprisal == pytest.approx(theirs.cv_mean_surprisal, rel=1e-10)

    def test_guard_tripped_member_is_the_reference_fit(self, per_feature_path, monkeypatch):
        """Unstandardized, a target whose column is 1e6 times larger drops a
        column that dominates the shared Gram; its denominator trips the
        guard, so it trains through ``member`` — bitwise the reference —
        while the other targets still share the factorization."""
        big = N_FEATURES - 1
        data = wide_data(scale_column=big)
        config = replace(CONFIG, standardize=False)
        calls = []
        member = RidgeMaskedSolver.member
        with monkeypatch.context() as patch:
            patch.setattr(
                RidgeMaskedSolver,
                "member",
                lambda self, ids: calls.append(len(ids)) or member(self, ids),
            )
            det, x_test = fit(config, data=data)
        # One fallback per fold plus the refit, all for the scaled target.
        assert len(calls) == config.n_folds + 1
        with per_feature_path():
            reference, _ = fit(config, data=data)
        ours, theirs = det.models_[big], reference.models_[big]
        np.testing.assert_array_equal(ours.predictor.coef_, theirs.predictor.coef_)
        assert ours.predictor.intercept_ == theirs.predictor.intercept_
        assert ours.cv_mean_surprisal == theirs.cv_mean_surprisal
        assert pickle.dumps(ours.error_model) == pickle.dumps(theirs.error_model)
