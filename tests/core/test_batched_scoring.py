"""Batched scoring + masked diverse training byte-equivalence.

:func:`repro.core.engine.gather_surprisals` now groups fitted models by
``(observed-mask, error-model type)`` and scores each group with matrix
ops; the per-model loop it replaced survives only here, as the reference
this file pins the rewrite against — ``np.array_equal``, never
``allclose`` — across execution modes, NaN-masked test targets,
categorical (confusion) groups, and all-missing columns. The training
half gets the same treatment: diverse-FRaC's per-member input subsets
ride the mask-keyed planner groups, and every fitted artifact must equal
the per-feature reference (forced by the ``per_feature_path`` fixture)
bit for bit, down to single-input members.
"""

import numpy as np
import pytest

from repro import FRaC, FRaCConfig
from repro.core.diverse import DiverseFRaC
from repro.core.engine import (
    FeatureTask,
    MAX_BATCH_FEATURES,
    SharedTrainState,
    gather_surprisals,
    plan_feature_batches,
)
from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.parallel.executor import ExecutionConfig
from repro.telemetry import EventBus, MemorySink
from repro.telemetry import runtime as telemetry_runtime
from tests.core.test_batched_equivalence import (
    assert_models_identical,
    make_mixed_data,
)
from tests.errormodels import reference


def reference_gather_surprisals(models, x_test_imputed, x_test_targets, out):
    """The retired per-model scoring loop with the reference surprisals:
    the byte standard."""
    for t, fm in enumerate(models):
        truths = x_test_targets[:, fm.feature_id]
        observed = ~np.isnan(truths)
        if not observed.any():
            continue
        preds = fm.predictor.predict(x_test_imputed[np.ix_(observed, fm.input_ids)])
        out[observed, t] = (
            reference.surprisal(fm.error_model, preds, truths[observed]) - fm.entropy
        )


def fit_detector(x, schema, *, rng=0, mode="serial", n_workers=1):
    cfg = FRaCConfig(
        regressor="ridge",
        classifier="tree",
        execution=ExecutionConfig(mode=mode, n_workers=n_workers),
    )
    det = FRaC(cfg, rng=rng)
    det.fit(x, schema=schema)
    return det


def assert_scoring_matches_reference(det, x_test):
    """Batched contributions == the reference loop on the same models."""
    x_imputed = det._pre.transform(x_test)
    x_targets = det._pre.transform_keep_missing(x_test)
    expected = np.zeros((x_test.shape[0], len(det.models_)))
    reference_gather_surprisals(det.models_, x_imputed, x_targets, expected)
    got = det.contributions(x_test).values
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(det.score(x_test), expected.sum(axis=1))


class TestBatchedScoringEquivalence:
    def test_mixed_data_matches_reference_loop(self):
        x, x_test, schema = make_mixed_data()
        det = fit_detector(x, schema)
        assert_scoring_matches_reference(det, x_test)

    def test_nan_masked_targets_split_groups(self):
        """NaN holes in test targets fragment the observed masks: many
        groups, partial-row gathers, and the scatter must still place
        every surprisal where the scalar loop put it (zeros elsewhere)."""
        x, x_test, schema = make_mixed_data()
        rng = np.random.default_rng(17)
        x_test = x_test.copy()
        x_test[rng.random(x_test.shape) < 0.25] = np.nan
        det = fit_detector(det_x := x, schema)
        assert det_x is x
        assert_scoring_matches_reference(det, x_test)

    def test_all_missing_column_contributes_zero(self):
        x, x_test, schema = make_mixed_data()
        x_test = x_test.copy()
        x_test[:, 2] = np.nan  # a real target with no observed test rows
        det = fit_detector(x, schema)
        contrib = det.contributions(x_test)
        col = list(contrib.feature_ids).index(2)
        np.testing.assert_array_equal(contrib.values[:, col], 0.0)
        assert_scoring_matches_reference(det, x_test)

    def test_categorical_models_form_confusion_groups(self):
        """Mixed schemas score through two batch entry points (Gaussian
        and confusion); both must replay their scalar surprisal."""
        x, x_test, schema = make_mixed_data()
        det = fit_detector(x, schema)
        kinds = {type(m.error_model).__name__ for m in det.models_}
        assert kinds == {"GaussianErrorModel", "ConfusionErrorModel"}
        assert_scoring_matches_reference(det, x_test)

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_scores_match_reference_across_modes(self, mode):
        x, x_test, schema = make_mixed_data()
        det = fit_detector(x, schema, mode=mode, n_workers=2)
        assert_scoring_matches_reference(det, x_test)

    def test_direct_gather_against_reference(self):
        """gather_surprisals itself (not the detector wrapper) on a
        NaN-holed target matrix."""
        x, x_test, schema = make_mixed_data()
        det = fit_detector(x, schema)
        x_imputed = det._pre.transform(x_test)
        x_targets = det._pre.transform_keep_missing(x_test)
        rng = np.random.default_rng(5)
        x_targets = x_targets.copy()
        x_targets[rng.random(x_targets.shape) < 0.3] = np.nan
        expected = np.zeros((x_test.shape[0], len(det.models_)))
        reference_gather_surprisals(det.models_, x_imputed, x_targets, expected)
        got = np.zeros_like(expected)
        gather_surprisals(det.models_, x_imputed, x_targets, got)
        np.testing.assert_array_equal(got, expected)


class TestMaskedDiverseEquivalence:
    """Training half: diverse input subsets ride masked planner groups."""

    def _fit_pair(self, p, per_feature_path, *, rng=0, seed=3):
        x, x_test, schema = make_mixed_data(rng_seed=seed)
        cfg = FRaCConfig(regressor="ridge", classifier="tree")
        batched = DiverseFRaC(p=p, config=cfg, rng=rng)
        batched.fit(x, schema)
        with per_feature_path():
            scalar = DiverseFRaC(p=p, config=cfg, rng=rng)
            scalar.fit(x, schema)
        return (batched, scalar), x_test

    def test_diverse_fit_is_byte_identical(self, per_feature_path):
        (batched, scalar), x_test = self._fit_pair(0.5, per_feature_path)
        assert_models_identical(batched._inner, scalar._inner)
        np.testing.assert_array_equal(batched.score(x_test), scalar.score(x_test))
        np.testing.assert_array_equal(
            batched.contributions(x_test).values,
            scalar.contributions(x_test).values,
        )

    def test_tiny_p_exercises_single_input_members(self, per_feature_path):
        """Small p draws single-input subsets, which take the masked
        solver's raw-column fallback; equivalence must hold there too."""
        (batched, scalar), x_test = self._fit_pair(0.05, per_feature_path)
        sizes = [len(m.input_ids) for m in batched._inner.models_]
        assert any(s <= 1 for s in sizes), "fixture no longer draws d<=1 members"
        assert_models_identical(batched._inner, scalar._inner)
        np.testing.assert_array_equal(batched.score(x_test), scalar.score(x_test))

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_diverse_scores_identical_across_modes(self, mode, per_feature_path):
        x, x_test, schema = make_mixed_data()
        cfg = FRaCConfig(
            regressor="ridge",
            classifier="tree",
            execution=ExecutionConfig(mode=mode, n_workers=2),
        )
        det = DiverseFRaC(p=0.5, config=cfg, rng=0)
        det.fit(x, schema)
        ref_cfg = FRaCConfig(regressor="ridge", classifier="tree")
        with per_feature_path():
            ref = DiverseFRaC(p=0.5, config=ref_cfg, rng=0)
            ref.fit(x, schema)
        np.testing.assert_array_equal(det.score(x_test), ref.score(x_test))


class TestMaskedPlanner:
    def _shared(self, x, schema):
        return SharedTrainState(
            x_imputed=np.nan_to_num(x),
            x_targets=x,
            schema=schema,
            config=FRaCConfig(regressor="ridge", classifier="tree"),
            fold_seed=7,
        )

    def _real_schema(self, d):
        return FeatureSchema(
            tuple(FeatureSpec(FeatureKind.REAL, name=f"r{j}") for j in range(d))
        )

    def _diverse_tasks(self, d, rng_seed=0):
        """All-real tasks sharing rows but drawing distinct input sets."""
        rng = np.random.default_rng(rng_seed)
        tasks = []
        for j in range(d):
            others = np.array([k for k in range(d) if k != j], dtype=np.intp)
            ids = np.sort(rng.choice(others, size=max(2, d // 2), replace=False))
            tasks.append(FeatureTask(feature_id=j, input_ids=ids, seed=j, slot=0))
        return tasks

    def test_shared_mask_distinct_inputs_form_one_masked_batch(self):
        d = 8
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, d))
        shared = self._shared(x, self._real_schema(d))
        tasks = self._diverse_tasks(d)
        batches, passthrough = plan_feature_batches(tasks, shared)
        assert passthrough == []
        assert len(batches) == 1
        assert [t.feature_id for t in batches[0].tasks] == list(range(d))

    def test_identical_inputs_group_by_mask_alone(self):
        """Shared input ids change nothing: the mask alone keys the group,
        and its label is the same digest as for distinct inputs."""
        d = 6
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, d))
        shared = self._shared(x, self._real_schema(d))
        panel = np.array([0, 1], dtype=np.intp)
        tasks = [
            FeatureTask(feature_id=j, input_ids=panel, seed=j, slot=0)
            for j in range(2, d)
        ]
        batches, passthrough = plan_feature_batches(tasks, shared)
        assert passthrough == []
        assert len(batches) == 1
        assert [t.feature_id for t in batches[0].tasks] == list(range(2, d))
        distinct, _ = plan_feature_batches(self._diverse_tasks(d), shared)
        assert [b.group for b in distinct] == [batches[0].group]

    def test_masked_batches_respect_max_batch(self):
        d = MAX_BATCH_FEATURES + 9
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, d))
        shared = self._shared(x, self._real_schema(d))
        tasks = self._diverse_tasks(d)
        batches, passthrough = plan_feature_batches(tasks, shared)
        assert passthrough == []
        sizes = [len(b.tasks) for b in batches]
        assert max(sizes) <= MAX_BATCH_FEATURES
        assert sum(sizes) == len(tasks)
        flat = [t.feature_id for b in batches for t in b.tasks]
        assert flat == [t.feature_id for t in tasks]
        assert len({b.group for b in batches}) == 1

    def test_nan_holes_split_masks(self):
        """Tasks whose targets observe different rows cannot share a
        masked batch: mask bytes key the groups."""
        d = 6
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, d))
        x[:10, 0] = np.nan  # feature 0 observes different rows
        shared = self._shared(x, self._real_schema(d))
        tasks = self._diverse_tasks(d)
        batches, passthrough = plan_feature_batches(tasks, shared)
        assert passthrough == []
        owners = {tuple(sorted(t.feature_id for t in b.tasks)) for b in batches}
        assert owners == {(0,), tuple(range(1, d))}  # feature 0 isolated by its mask


class TestScoringTelemetry:
    def _records(self, x, x_test, schema):
        sink = MemorySink()
        previous = telemetry_runtime.set_bus(EventBus([sink]))
        try:
            det = fit_detector(x, schema)
            det.score(x_test)
        finally:
            telemetry_runtime.set_bus(previous)
        return sink.records

    def _multiset(self, records):
        out = {}
        for record in records:
            e = record.event
            if e.name == "FoldTrained":
                key = (e.name, e.feature_id, e.slot, e.fold)
            elif e.name in ("FeatureTaskStarted", "FeatureTaskFinished"):
                key = (e.name, tuple(e.key))
            elif e.name == "ScoreComputed":
                key = (e.name, e.n_samples, e.n_models)
            elif e.name == "SpanFinished" and e.span.startswith("score."):
                # Fit-side spans are path-specific by design (fit.batch
                # only exists on the batched path); scoring spans must
                # replay identically — there is one scoring path.
                key = (e.name, e.span.split("[", 1)[0])
            else:
                continue
            out[key] = out.get(key, 0) + 1
        return out

    def test_event_multiset_replay_identical_across_paths(self, per_feature_path):
        x, x_test, schema = make_mixed_data()
        a = self._multiset(self._records(x, x_test, schema))
        with per_feature_path():
            b = self._multiset(self._records(x, x_test, schema))
        assert a == b

    def test_score_batch_span_emitted_with_model_count(self):
        x, x_test, schema = make_mixed_data()
        records = self._records(x, x_test, schema)
        spans = [
            r.event
            for r in records
            if r.event.name == "SpanFinished" and r.event.span == "score.batch"
        ]
        assert spans, "score.batch span missing"
        assert all(e.attrs and e.attrs.get("n_models") for e in spans)
