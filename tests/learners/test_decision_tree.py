"""Tests for the from-scratch CART trees."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.learners import decision_tree as dt
from repro.learners.decision_tree import (
    BatchedTreeClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _ClassifierBuilder,
)
from repro.utils.exceptions import NotFittedError

FIELDS = ("feature", "threshold", "left", "right", "value")


def dense_tree(x, y, criterion="entropy", **params):
    """The dense sorted sweep's tree: the oracle every tree test compares with."""
    kw = DecisionTreeClassifier(criterion, **params)._builder_kwargs()
    builder = _ClassifierBuilder(criterion, np.unique(np.asarray(y).astype(np.intp)), **kw)
    return builder.build(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


def assert_same_tree(fitted, tree):
    """All five arrays of ``fitted.tree_`` equal ``tree``'s, dtypes included."""
    for field in FIELDS:
        a, b = getattr(fitted.tree_, field), getattr(tree, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


class TestClassifier:
    def test_learns_threshold_rule(self):
        gen = np.random.default_rng(0)
        x = gen.uniform(-1, 1, size=(100, 3))
        y = (x[:, 1] > 0.2).astype(float)
        m = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert (m.predict(x) == y).mean() > 0.97

    def test_learns_xor_with_depth(self):
        gen = np.random.default_rng(1)
        x = gen.choice([0.0, 1.0], size=(200, 2))
        y = np.logical_xor(x[:, 0] > 0.5, x[:, 1] > 0.5).astype(float)
        deep = DecisionTreeClassifier(max_depth=4, min_samples_leaf=1).fit(x, y)
        assert (deep.predict(x) == y).mean() > 0.95

    def test_snp_codes(self):
        """Ternary genotype target predictable from a correlated SNP."""
        gen = np.random.default_rng(2)
        z = gen.integers(0, 3, size=150).astype(float)
        x = np.column_stack([z, gen.integers(0, 3, size=150)]).astype(float)
        m = DecisionTreeClassifier(max_depth=3).fit(x, z)
        assert (m.predict(x) == z).mean() > 0.95

    def test_pure_node_is_leaf(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        y = np.zeros(10)
        m = DecisionTreeClassifier().fit(x, y)
        assert m.n_nodes == 1

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_criteria(self, criterion):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((80, 2))
        y = (x[:, 0] > 0).astype(float)
        m = DecisionTreeClassifier(criterion=criterion, max_depth=2).fit(x, y)
        assert (m.predict(x) == y).mean() > 0.95

    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="mse")

    def test_min_samples_leaf_respected(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((30, 2))
        y = (x[:, 0] > 0).astype(float)
        m = DecisionTreeClassifier(max_depth=10, min_samples_leaf=10).fit(x, y)
        # With a 10-sample floor on 30 samples, at most 2 levels of splits.
        assert m.n_nodes <= 7

    def test_zero_features(self):
        m = DecisionTreeClassifier().fit(np.zeros((6, 0)), np.array([0, 0, 1, 1, 1, 1.0]))
        np.testing.assert_array_equal(m.predict(np.zeros((2, 0))), 1.0)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 1)))

    def test_width_mismatch(self):
        m = DecisionTreeClassifier().fit(np.zeros((6, 2)), np.arange(6.0) % 2)
        with pytest.raises(ValueError):
            m.predict(np.zeros((1, 3)))

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)

    def test_deterministic(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((50, 4))
        y = (x[:, 2] > 0).astype(float)
        a = DecisionTreeClassifier().fit(x, y).predict(x)
        b = DecisionTreeClassifier().fit(x, y).predict(x)
        np.testing.assert_array_equal(a, b)

    def test_model_nbytes_grows(self):
        gen = np.random.default_rng(7)
        x = gen.standard_normal((100, 3))
        y = (x[:, 0] * x[:, 1] > 0).astype(float)
        small = DecisionTreeClassifier(max_depth=1).fit(x, y)
        big = DecisionTreeClassifier(max_depth=6, min_samples_leaf=1).fit(x, y)
        assert big.model_nbytes > small.model_nbytes > 0


class TestRegressor:
    def test_piecewise_constant_fit(self):
        x = np.linspace(0, 1, 100)[:, None]
        y = np.where(x[:, 0] > 0.5, 3.0, -1.0)
        m = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert np.abs(m.predict(x) - y).mean() < 0.05

    def test_smooth_function_approx(self):
        gen = np.random.default_rng(0)
        x = gen.uniform(-2, 2, size=(300, 1))
        y = np.sin(x[:, 0])
        m = DecisionTreeRegressor(max_depth=6, min_samples_leaf=5).fit(x, y)
        assert np.abs(m.predict(x) - y).mean() < 0.15

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(1).standard_normal((20, 3))
        m = DecisionTreeRegressor().fit(x, np.full(20, 5.0))
        assert m.n_nodes == 1
        np.testing.assert_allclose(m.predict(x), 5.0)

    def test_prediction_within_target_range(self):
        gen = np.random.default_rng(2)
        x = gen.standard_normal((80, 4))
        y = gen.uniform(-3, 7, size=80)
        m = DecisionTreeRegressor(max_depth=4).fit(x, y)
        pred = m.predict(x)
        assert pred.min() >= y.min() - 1e-9 and pred.max() <= y.max() + 1e-9

    def test_zero_features(self):
        m = DecisionTreeRegressor().fit(np.zeros((4, 0)), np.array([1.0, 2, 3, 4]))
        np.testing.assert_allclose(m.predict(np.zeros((1, 0))), 2.5)

    def test_clone(self):
        x = np.random.default_rng(3).standard_normal((10, 2))
        m = DecisionTreeRegressor(max_depth=3).fit(x, x[:, 0])
        fresh = m.clone()
        assert fresh.tree_ is None and fresh.max_depth == 3

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(6, 60), d=st.integers(1, 6), depth=st.integers(1, 6))
    def test_never_crashes_and_finite(self, n, d, depth):
        gen = np.random.default_rng(n + 13 * d)
        x = gen.integers(0, 3, size=(n, d)).astype(float)
        y = gen.standard_normal(n)
        m = DecisionTreeRegressor(max_depth=depth).fit(x, y)
        assert np.isfinite(m.predict(x)).all()


class TestClassifierProperties:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(8, 80), d=st.integers(1, 5))
    def test_predictions_are_training_classes(self, n, d):
        gen = np.random.default_rng(n * 7 + d)
        x = gen.integers(0, 3, size=(n, d)).astype(float)
        y = gen.integers(0, 3, size=n).astype(float)
        m = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert set(np.unique(m.predict(x))).issubset(set(np.unique(y)))

    @settings(max_examples=15, deadline=None)
    @given(shift=st.floats(-10, 10))
    def test_split_invariant_to_feature_shift(self, shift):
        """Thresholds move with the data: predictions are shift-invariant."""
        gen = np.random.default_rng(5)
        x = gen.standard_normal((60, 3))
        y = (x[:, 1] > 0).astype(float)
        base = DecisionTreeClassifier(max_depth=3).fit(x, y).predict(x)
        moved = DecisionTreeClassifier(max_depth=3).fit(x + shift, y).predict(x + shift)
        np.testing.assert_array_equal(base, moved)


class TestCategoricalFastPath:
    """Small-integer designs grow as a group of one, and must build the
    tree the dense sorted sweep builds: identical arrays, not just
    predictions."""

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_random_snp_designs_build_identical_trees(self, criterion):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(6, 60))
            d = int(rng.integers(1, 8))
            arity = int(rng.integers(2, 5))
            x = rng.integers(0, arity, size=(n, d)).astype(np.float64)
            y = rng.integers(0, 3, size=n).astype(np.float64)
            params = dict(
                criterion=criterion,
                max_depth=int(rng.integers(1, 6)),
                min_samples_leaf=int(rng.integers(1, 3)),
            )
            assert_same_tree(DecisionTreeClassifier(**params).fit(x, y), dense_tree(x, y, **params))

    def test_non_integer_design_takes_the_dense_path(self):
        # Real-valued x must not trip the integer gate; the fit must still
        # work (this is the reference path the group builder defers to).
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 3))
        y = (x[:, 0] > 0).astype(np.float64)
        clf = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.9
        assert_same_tree(clf, dense_tree(x, y, max_depth=3))

    def test_codes_above_cap_take_the_dense_path(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, dt._FAST_MAX_CODE + 5, size=(50, 2)).astype(np.float64)
        y = rng.integers(0, 2, size=50).astype(np.float64)
        assert not BatchedTreeClassifier.accepts(x)
        fitted = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert_same_tree(fitted, dense_tree(x, y, max_depth=4))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_depth", range(1, 9))
    def test_random_integer_designs(self, criterion, max_depth):
        rng = np.random.default_rng(100 * max_depth + len(criterion))
        for _ in range(12):
            n = int(rng.integers(1, 80))
            d = int(rng.integers(0, 9))
            top = int(rng.integers(1, dt._FAST_MAX_CODE + 1))
            x = rng.integers(0, top + 1, size=(n, d)).astype(np.float64)
            if d >= 3:
                x[:, 0] = x[0, 0]  # a constant column
                x[:, 2] = x[:, 1]  # a repeated input column
            y = rng.integers(0, int(rng.integers(1, 13)), size=n).astype(np.float64)
            if rng.random() < 0.3 and d:
                y = x[:, d - 1].copy()
            params = dict(
                criterion=criterion,
                max_depth=max_depth,
                min_samples_leaf=int(rng.integers(1, 6)),
                min_samples_split=int(rng.integers(2, 12)),
            )
            assert_same_tree(DecisionTreeClassifier(**params).fit(x, y), dense_tree(x, y, **params))

    def test_codes_at_the_cap_and_twelve_classes(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, dt._FAST_MAX_CODE + 1, size=(150, 5)).astype(np.float64)
        x[:16, 0] = np.arange(16)
        y = rng.integers(0, 12, size=150).astype(np.float64)
        y[:12] = np.arange(12)
        for criterion in ("gini", "entropy"):
            params = dict(criterion=criterion, max_depth=8, min_samples_leaf=1, min_samples_split=2)
            assert_same_tree(DecisionTreeClassifier(**params).fit(x, y), dense_tree(x, y, **params))

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_single_class_target_is_one_leaf(self, d):
        x = np.random.default_rng(d).integers(0, 3, size=(20, d)).astype(np.float64)
        y = np.full(20, 2.0)
        fitted = DecisionTreeClassifier().fit(x, y)
        assert fitted.n_nodes == 1
        assert_same_tree(fitted, dense_tree(x, y))

    def test_no_inputs(self):
        y = np.random.default_rng(8).integers(0, 3, size=25).astype(np.float64)
        x = np.zeros((25, 0))
        assert_same_tree(DecisionTreeClassifier().fit(x, y), dense_tree(x, y))

    def test_designs_at_the_row_bound_take_the_dense_sweep(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
        y = rng.integers(0, 3, size=40).astype(np.float64)
        monkeypatch.setattr(dt, "_FLOAT32_EXACT_ROWS", 40)

        def no_group(*args, **kw):
            raise AssertionError("the group builder ran at the row bound")

        monkeypatch.setattr(dt._GroupClassifierBuilder, "grow", no_group)
        fitted = DecisionTreeClassifier(max_depth=5).fit(x, y)
        assert_same_tree(fitted, dense_tree(x, y, max_depth=5))

