"""BatchedRidge vs RidgeRegressor.

The batched solver shares the row gather, means, and centering of a
full-width design and factors one Gram per member; the contract (see
:mod:`repro.learners.batched`) is that every member solve,
``masked_solver(x).member(ids)(y - y.mean(), y.mean())``, reproduces
``RidgeRegressor(alpha).fit(x[:, ids], y)``
*bitwise* — ``np.array_equal`` on ``coef_``, ``==`` on ``intercept_`` —
across shapes, regimes (primal d<=n and dual d>n), alphas, and the edge
cases the engine can feed it (d==0, constant targets, near-singular
Grams from duplicated columns).

All-others members in the dual regime share one factorization instead
(``masked_solver(x).solver()``, Sherman–Morrison per member); those fits
match the same reference to a stated tolerance, and a member whose
denominator trips the guard is left to its own ``member`` fit.
"""

import numpy as np
import pytest

from repro.learners import batched
from repro.learners.batched import BatchedRidge, all_others_column, fitted_ridge
from repro.learners.registry import BATCHED_REGRESSORS
from repro.learners.ridge import RidgeRegressor


def column_solver(x, alpha, *, check=True):
    """The member solve over every column of ``x``, as the engine builds it."""
    return BatchedRidge(alpha).masked_solver(x, check=check).member(np.arange(x.shape[1]))


def fit_column(solve, y, alpha=1.0):
    """A fitted regressor for target ``y`` from a member solve, centering
    ``y`` as the engine's final refit does."""
    y_mean = y.mean()
    return fitted_ridge(alpha, *solve(y - y_mean, y_mean))


def assert_column_equivalent(x, y, alpha):
    scalar = RidgeRegressor(alpha=alpha).fit(x, y)
    batched = fit_column(column_solver(x, alpha), y, alpha)
    np.testing.assert_array_equal(batched.coef_, scalar.coef_)
    assert batched.intercept_ == scalar.intercept_
    if x.shape[1]:
        # Identical parameters must predict identically, bit for bit.
        probe = np.linspace(-2.0, 2.0, 7 * x.shape[1]).reshape(7, -1)
        np.testing.assert_array_equal(batched.predict(probe), scalar.predict(probe))


class TestBitwiseProperty:
    def test_random_shapes_and_alphas(self):
        """200 random (n, d, k, alpha) draws covering primal and dual."""
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(0, 30))
            k = int(rng.integers(1, 6))
            alpha = float(10.0 ** rng.uniform(-3, 3))
            x = rng.normal(size=(n, d))
            solver = column_solver(x, alpha)
            for _ in range(k):
                y = rng.normal(size=n)
                scalar = RidgeRegressor(alpha=alpha).fit(x, y)
                col = fit_column(solver, y)
                assert np.array_equal(col.coef_, scalar.coef_), (trial, n, d, alpha)
                assert col.intercept_ == scalar.intercept_, (trial, n, d, alpha)

    def test_single_input_column(self):
        # d == 1: LAPACK must handle the 1x1 system without a scalar
        # special case diverging from the per-feature path.
        rng = np.random.default_rng(1)
        assert_column_equivalent(rng.normal(size=(15, 1)), rng.normal(size=15), 0.5)

    def test_zero_input_columns(self):
        rng = np.random.default_rng(2)
        x = np.empty((10, 0))
        y = rng.normal(size=10)
        assert_column_equivalent(x, y, 1.0)
        col = fit_column(column_solver(x, 1.0), y)
        assert col.coef_.shape == (0,)
        assert col.intercept_ == y.mean()

    def test_constant_target(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 4))
        assert_column_equivalent(x, np.full(12, 3.25), 1.0)

    def test_duplicate_columns_near_singular_gram(self):
        # Rank-deficient X: only the ridge term keeps the Gram SPD. Both
        # paths must agree bit-for-bit even at tiny alpha.
        rng = np.random.default_rng(4)
        base = rng.normal(size=(20, 3))
        x = np.hstack([base, base])
        assert_column_equivalent(x, rng.normal(size=20), 1e-6)

    def test_dual_regime(self):
        rng = np.random.default_rng(5)
        assert_column_equivalent(rng.normal(size=(6, 40)), rng.normal(size=6), 2.0)

    def test_member_subsets_of_one_shared_design(self):
        """Members of one masked solver, each on its own column subset,
        match a per-feature fit on that subset's np.ix_-style gather."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(18, 7))
        shared = BatchedRidge(0.7).masked_solver(x)
        for ids in ([0, 3, 4], [1], [], [2, 5, 6, 0], list(range(7))):
            ids = np.asarray(ids, dtype=np.intp)
            y = rng.normal(size=18)
            model = fit_column(shared.member(ids), y)
            scalar = RidgeRegressor(alpha=0.7).fit(x[:, ids].copy(order="C"), y)
            np.testing.assert_array_equal(model.coef_, scalar.coef_)
            assert model.intercept_ == scalar.intercept_

    def test_one_member_solver_many_columns(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(18, 5))
        ys = [rng.normal(size=18) for _ in range(4)]
        solver = column_solver(x, 0.7)
        models = [fit_column(solver, y) for y in ys]
        for y, model in zip(ys, models):
            scalar = RidgeRegressor(alpha=0.7).fit(x, y)
            np.testing.assert_array_equal(model.coef_, scalar.coef_)
            assert model.intercept_ == scalar.intercept_


def max_relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def all_others_fit(x, i, y, x_holdout, alpha=1.0):
    """Member ``i``'s (regressor, holdout predictions) from the shared
    factorization, as the engine computes them; ``None`` if the guard
    leaves the member to its own fit."""
    shared = BatchedRidge(alpha).masked_solver(x).solver()
    y_mean = y.mean()
    a = shared.weights(i, y - y_mean)
    if a is None:
        return None
    preds = shared.predict(shared.kernel(x_holdout), i, a, y_mean)
    return shared.regressor(i, a, y_mean), preds


class TestAllOthersDual:
    """Shared-factorization fits against the retired per-member oracle,
    ``RidgeRegressor.fit(x[:, ids], y)`` with ``ids`` all columns but ``i``."""

    @pytest.mark.parametrize(
        "column_scale, tolerance",
        # Over 300 such draws, standardized columns measured <= 7.3e-15
        # and columns scaled by 10^+-3 <= 2.3e-9 (members under the
        # guard excluded: the engine fits those on their own).
        [(None, 1e-12), (3.0, 1e-8)],
    )
    def test_matches_the_per_member_oracle(self, column_scale, tolerance):
        rng = np.random.default_rng(9)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(5, 61))
            d = int(rng.integers(n + 2, 4 * n + 3))
            x = rng.normal(size=(n, d))
            x_holdout = rng.normal(size=(7, d))
            if column_scale is not None:
                scales = 10.0 ** rng.uniform(-column_scale, column_scale, size=d)
                x, x_holdout = x * scales, x_holdout * scales
            i = int(rng.integers(d))
            y = rng.normal(size=n)
            ids = np.delete(np.arange(d), i)
            oracle = RidgeRegressor(alpha=1.0).fit(x[:, ids], y)
            fit = all_others_fit(x, i, y, x_holdout)
            if fit is None:
                continue
            solved += 1
            model, preds = fit
            assert isinstance(model, RidgeRegressor)
            assert max_relative_error(model.coef_, oracle.coef_) < tolerance
            assert abs(model.intercept_ - oracle.intercept_) < tolerance * max(
                1.0, abs(oracle.intercept_), np.abs(oracle.coef_).max()
            )
            want = oracle.predict(x_holdout[:, ids])
            assert max_relative_error(preds, want) < tolerance
            # The final predictor and the kernel-form predictions agree.
            assert max_relative_error(model.predict(x_holdout[:, ids]), preds) < tolerance
        assert solved >= 50

    def test_weights_do_not_depend_on_other_members(self):
        """Each member's floats are its own vector ops: solving members in
        another order, or alone on a fresh factorization, moves no bit."""
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 40))
        ys = rng.normal(size=(5, 12))
        ys -= ys.mean(axis=1, keepdims=True)
        shared = BatchedRidge(1.0).masked_solver(x).solver()
        forward = [shared.weights(i, ys[i]) for i in range(5)]
        backward = [shared.weights(i, ys[i]) for i in reversed(range(5))][::-1]
        for i in range(5):
            alone = BatchedRidge(1.0).masked_solver(x).solver().weights(i, ys[i])
            np.testing.assert_array_equal(forward[i], backward[i])
            np.testing.assert_array_equal(forward[i], alone)

    def test_primal_designs_have_no_shared_solver(self):
        rng = np.random.default_rng(11)
        assert BatchedRidge(1.0).masked_solver(rng.normal(size=(20, 21))).solver() is None
        assert BatchedRidge(1.0).masked_solver(rng.normal(size=(20, 22))).solver() is not None

    def test_guard_leaves_a_tiny_denominator_to_the_member_fit(self, monkeypatch):
        """A dropped column far larger than alpha drives 1 - u^T G^-1 u
        under the guard: no shared weights for that member (the engine
        then fits it through ``member``, bitwise the oracle), shared
        weights for the rest. With the guard off, the rank-one update
        loses the digits the guard keeps."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(10, 30))
        x[:, 4] *= 1e5
        y = rng.normal(size=10)
        assert all_others_fit(x, 4, y, x) is None
        assert all_others_fit(x, 5, y, x) is not None
        ids = np.delete(np.arange(30), 4)
        oracle = RidgeRegressor(alpha=1.0).fit(x[:, ids].copy(order="C"), y)
        fallback = fit_column(BatchedRidge(1.0).masked_solver(x).member(ids), y)
        np.testing.assert_array_equal(fallback.coef_, oracle.coef_)
        assert fallback.intercept_ == oracle.intercept_
        monkeypatch.setattr(batched, "MIN_SM_DENOMINATOR", 0.0)
        unguarded, _ = all_others_fit(x, 4, y, x)
        assert max_relative_error(unguarded.coef_, oracle.coef_) > 1e-8


class TestAllOthersColumn:
    def test_detects_the_dropped_column(self):
        for i in range(6):
            assert all_others_column(np.delete(np.arange(6), i), 6) == i

    @pytest.mark.parametrize(
        "ids",
        [
            [0, 1, 2],  # too short
            [0, 1, 2, 3, 4, 5],  # every column
            [0, 0, 3, 4, 5],  # length and sum of "all but 3", with a duplicate
            [1, 0, 2, 3, 4],  # unsorted
            [0, 1, 2, 4, 8],  # out of range
            [],
        ],
    )
    def test_rejects_other_subsets(self, ids):
        assert all_others_column(np.asarray(ids, dtype=np.intp), 6) is None


class TestValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            BatchedRidge(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            BatchedRidge(alpha=-1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            BatchedRidge(alpha=alpha)

    def test_nan_design_rejected(self):
        x = np.ones((5, 2))
        x[0, 0] = np.nan
        with pytest.raises(Exception):
            column_solver(x, 1.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            column_solver(np.empty((0, 3)), 1.0)

    def test_check_false_skips_validation_not_floats(self):
        # The engine validates the group design once and passes
        # check=False per fold; the fitted floats must not depend on it.
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        sub = x[2:15]
        checked = fit_column(column_solver(sub, 1.0, check=True), y[2:15])
        unchecked = fit_column(column_solver(sub, 1.0, check=False), y[2:15])
        np.testing.assert_array_equal(checked.coef_, unchecked.coef_)
        assert checked.intercept_ == unchecked.intercept_


class TestRegistryIntegration:
    def test_ridge_supports_batching(self):
        assert "ridge" in BATCHED_REGRESSORS
        learner = BATCHED_REGRESSORS["ridge"](alpha=0.3)
        assert isinstance(learner, BatchedRidge)
        assert learner.alpha == 0.3

    def test_unbatchable_learners_say_no(self):
        assert "linear_svr" not in BATCHED_REGRESSORS
        assert "tree" not in BATCHED_REGRESSORS
