"""Tests for the per-feature FRaC engine."""

import numpy as np
import pytest

from repro.core.config import FRaCConfig
from repro.core.engine import (
    FeatureTask,
    SharedTrainState,
    _make_predictor,
    feature_task_key,
    kfold_indices,
    run_feature_task,
    score_contributions,
)
from repro.core.types import FeatureModel
from repro.data.schema import FeatureSchema
from repro.errormodels.gaussian import GaussianErrorModel
from repro.learners import registry
from repro.learners.decision_tree import (
    BatchedTreeClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
)
from repro.parallel.executor import run_tasks
from repro.utils.exceptions import DataError, FitError


class TestKFold:
    def test_partition(self):
        folds = kfold_indices(10, 3, np.random.default_rng(0))
        assert len(folds) == 3
        all_holdout = np.concatenate([h for _, h in folds])
        np.testing.assert_array_equal(np.sort(all_holdout), np.arange(10))

    def test_train_holdout_disjoint(self):
        for train, holdout in kfold_indices(12, 4, np.random.default_rng(1)):
            assert not set(train) & set(holdout)
            assert len(train) + len(holdout) == 12

    def test_k_capped_at_n(self):
        folds = kfold_indices(3, 10, np.random.default_rng(2))
        assert len(folds) == 3

    def test_minimum_two_folds(self):
        folds = kfold_indices(5, 1, np.random.default_rng(3))
        assert len(folds) == 2

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            kfold_indices(1, 2, np.random.default_rng(0))

    def test_deterministic(self):
        a = kfold_indices(8, 3, np.random.default_rng(5))
        b = kfold_indices(8, 3, np.random.default_rng(5))
        for (ta, ha), (tb, hb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(ha, hb)

    def test_n_equals_k_gives_singleton_holdouts(self):
        folds = kfold_indices(6, 6, np.random.default_rng(4))
        assert len(folds) == 6
        for train, holdout in folds:
            assert len(holdout) == 1 and len(train) == 5
        all_holdout = np.concatenate([h for _, h in folds])
        np.testing.assert_array_equal(np.sort(all_holdout), np.arange(6))

    def test_n_below_k_clamps_to_n_but_never_below_two(self):
        # n < k: fold count drops to n...
        assert len(kfold_indices(4, 9, np.random.default_rng(6))) == 4
        # ...and the n = 2 floor holds even with k = 1 requested.
        folds = kfold_indices(2, 1, np.random.default_rng(7))
        assert len(folds) == 2
        for train, holdout in folds:
            assert len(train) == 1 and len(holdout) == 1

    def test_permutation_follows_generator_seed(self):
        """The fold permutation is pinned by the generator's seed: equal
        seeds agree element-wise, different seeds shuffle differently."""
        same_a = kfold_indices(20, 4, np.random.default_rng(11))
        same_b = kfold_indices(20, 4, np.random.default_rng(11))
        for (ta, ha), (tb, hb) in zip(same_a, same_b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(ha, hb)
        other = kfold_indices(20, 4, np.random.default_rng(12))
        assert any(
            not np.array_equal(ha, hb)
            for (_, ha), (_, hb) in zip(same_a, other)
        )

    def test_consumes_generator_stream(self):
        """Successive calls on one generator advance its stream (no hidden
        reseeding), mirroring how a feature task draws folds then seeds."""
        gen = np.random.default_rng(13)
        first = kfold_indices(10, 5, gen)
        second = kfold_indices(10, 5, gen)
        assert any(
            not np.array_equal(ha, hb)
            for (_, ha), (_, hb) in zip(first, second)
        )


class TestMakePredictor:
    def test_seed_injected_when_supported(self):
        model = _make_predictor("linear_svr", {}, 1234)
        assert model.seed == 1234

    def test_seed_injected_through_var_keyword(self, monkeypatch):
        class VarKeywordLearner:
            def __init__(self, **kw):
                self.params = kw

        monkeypatch.setitem(registry.CLASSIFIERS, "var_keyword_learner", VarKeywordLearner)
        model = _make_predictor("var_keyword_learner", {"max_depth": 3}, 77)
        assert model.params == {"max_depth": 3, "seed": 77}

    def test_tree_constructed_without_seed(self):
        model = _make_predictor("tree", {"max_depth": 3}, 77)
        assert model.max_depth == 3
        assert not hasattr(model, "seed")

    @pytest.mark.parametrize(
        ("ctor", "option"),
        [
            (DecisionTreeClassifier, {"seed": 0}),
            (DecisionTreeClassifier, {"max_features": 3}),
            (BatchedTreeClassifier, {"max_features": 3}),
            (DecisionTreeRegressor, {"seed": 0}),
            (DecisionTreeRegressor, {"max_features": 3}),
        ],
    )
    def test_trees_reject_retired_options(self, ctor, option):
        with pytest.raises(TypeError):
            ctor(**option)

    def test_seedless_learner_constructed_without_seed(self):
        model = _make_predictor("ridge", {"alpha": 2.0}, 99)
        assert model.alpha == 2.0
        assert not hasattr(model, "seed")

    def test_bad_user_param_raises_instead_of_dropping_seed(self):
        """Regression (ISSUE 2): a bad user parameter used to be swallowed
        by a bare ``except TypeError`` that retried without the seed,
        silently making runs nondeterministic. It must raise."""
        with pytest.raises(TypeError):
            _make_predictor("linear_svr", {"bogus_param": 1}, 0)
        with pytest.raises(TypeError):
            _make_predictor("ridge", {"bogus_param": 1}, 0)

    def test_invalid_param_value_still_raises(self):
        with pytest.raises(ValueError):
            _make_predictor("ridge", {"alpha": -1.0}, 0)

    def test_unknown_learner_name_raises(self):
        with pytest.raises(ValueError, match="unknown learner"):
            _make_predictor("perceptron9000", {}, 0)


class TestFeatureTaskKey:
    def test_key_is_feature_slot_seed(self):
        task = FeatureTask(feature_id=3, input_ids=np.array([0, 1]), seed=42, slot=2)
        assert feature_task_key(task) == (3, 2, 42)

    def test_key_ignores_input_ids(self):
        """Inputs are derived from the seed's stream, so the key need not
        (and must not) depend on the array payload."""
        a = FeatureTask(feature_id=1, input_ids=np.array([0]), seed=7)
        b = FeatureTask(feature_id=1, input_ids=np.array([0, 2]), seed=7)
        assert feature_task_key(a) == feature_task_key(b)

    def test_key_is_hashable_and_picklable(self):
        import pickle

        key = feature_task_key(FeatureTask(feature_id=0, input_ids=np.array([1]), seed=5))
        assert pickle.loads(pickle.dumps(key)) == key
        assert len({key, key}) == 1


def _run_task(x, schema, target=0, inputs=None, config=None):
    config = config or FRaCConfig.fast()
    inputs = (
        np.delete(np.arange(x.shape[1]), target) if inputs is None else np.asarray(inputs)
    )
    shared = SharedTrainState(
        x_imputed=np.nan_to_num(x), x_targets=x, schema=schema, config=config
    )
    task = FeatureTask(feature_id=target, input_ids=inputs, seed=0)
    return run_tasks(run_feature_task, [task], shared=shared)[0]


class TestRunFeatureTask:
    def test_real_feature_model(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((30, 4))
        x[:, 0] = x[:, 1] * 2.0 + 0.05 * gen.standard_normal(30)
        model, cost = _run_task(x, FeatureSchema.all_real(4))
        assert isinstance(model, FeatureModel)
        assert model.feature_id == 0
        assert np.isfinite(model.entropy)
        assert cost.cpu_seconds >= 0
        assert cost.design_bytes == 30 * 3 * 8
        # The linear relation is learnable -> low CV surprisal.
        assert model.cv_mean_surprisal < 1.0

    def test_categorical_feature_model(self):
        gen = np.random.default_rng(1)
        z = gen.integers(0, 3, size=40).astype(float)
        x = np.column_stack([z, z, gen.integers(0, 3, 40).astype(float)])
        model, _ = _run_task(x, FeatureSchema.all_categorical(3))
        from repro.errormodels.confusion import ConfusionErrorModel

        assert isinstance(model.error_model, ConfusionErrorModel)

    def test_skips_underobserved_feature(self):
        x = np.random.default_rng(2).standard_normal((10, 3))
        x[:-2, 0] = np.nan  # only 2 observed values < min_observed
        result = _run_task(x, FeatureSchema.all_real(3))
        assert result is None

    def test_missing_target_rows_excluded(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((20, 3))
        x[:5, 0] = np.nan
        model, cost = _run_task(x, FeatureSchema.all_real(3))
        assert cost.design_bytes == 15 * 2 * 8

    def test_zero_inputs_uses_dummy_like_model(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((15, 2))
        model, _ = _run_task(x, FeatureSchema.all_real(2), inputs=[])
        assert model.input_ids.size == 0

    def test_nonfinite_target_rejected(self):
        """The ridge member solves validate nothing: a non-finite target is
        rejected in the parent by its entropy, and when entropies are
        given, by the batch's one check per (group, fold)."""
        x = np.random.default_rng(7).standard_normal((12, 3))
        targets = x.copy()
        targets[3, 0] = np.inf
        schema, config = FeatureSchema.all_real(3), FRaCConfig.fast()
        with pytest.raises(FitError, match="finite"):
            SharedTrainState(x_imputed=x, x_targets=targets, schema=schema, config=config)
        shared = SharedTrainState(
            x_imputed=x, x_targets=targets, schema=schema, config=config, entropies=np.zeros(3)
        )
        task = FeatureTask(feature_id=0, input_ids=np.array([1, 2]), seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            run_tasks(run_feature_task, [task], shared=shared)


class TestScoreContributions:
    def test_missing_test_target_contributes_zero(self):
        gen = np.random.default_rng(5)
        x = gen.standard_normal((25, 3))
        model, _ = _run_task(x, FeatureSchema.all_real(3))
        x_test = gen.standard_normal((4, 3))
        x_targets = x_test.copy()
        x_targets[2, 0] = np.nan
        contrib = score_contributions([model], x_test, x_targets)
        assert contrib.shape == (4, 1)
        assert contrib[2, 0] == 0.0
        assert (contrib[[0, 1, 3], 0] != 0.0).all()

    def test_all_nan_test_targets_contribute_all_zeros(self):
        """Every test target missing -> the NS "otherwise: 0" branch for
        every cell: contributions are exactly zero, never NaN."""
        gen = np.random.default_rng(7)
        x = gen.standard_normal((25, 3))
        model, _ = _run_task(x, FeatureSchema.all_real(3))
        x_test = gen.standard_normal((5, 3))
        x_targets = np.full_like(x_test, np.nan)
        contrib = score_contributions([model], x_test, x_targets)
        assert contrib.shape == (5, 1)
        np.testing.assert_array_equal(contrib, np.zeros((5, 1)))
        assert not np.isnan(contrib).any()

    def test_anomalous_value_scores_higher(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((40, 3))
        x[:, 0] = x[:, 1] + 0.05 * gen.standard_normal(40)
        model, _ = _run_task(x, FeatureSchema.all_real(3))
        ok = np.array([[1.0, 1.0, 0.0]])
        broken = np.array([[-3.0, 1.0, 0.0]])  # violates f0 = f1
        c_ok = score_contributions([model], ok, ok)
        c_broken = score_contributions([model], broken, broken)
        assert c_broken[0, 0] > c_ok[0, 0]
