"""Tests for closed-form ridge regression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.learners.ridge import RidgeRegressor
from repro.utils.exceptions import NotFittedError


class TestRidge:
    def test_exact_on_noiseless(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((50, 5))
        w = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = x @ w + 7.0
        m = RidgeRegressor(alpha=1e-8).fit(x, y)
        np.testing.assert_allclose(m.coef_, w, atol=1e-5)
        assert abs(m.intercept_ - 7.0) < 1e-5

    def test_primal_dual_agree(self):
        """The n x n and d x d solution paths must coincide."""
        gen = np.random.default_rng(1)
        x = gen.standard_normal((20, 20))
        y = gen.standard_normal(20)
        wide = RidgeRegressor(alpha=0.7).fit(x[:, :8], y)   # d < n: primal
        # Build an equivalent d > n problem by transposing roles: just check
        # both paths run and give the same result on a square-ish case via
        # slicing rows instead.
        tall = RidgeRegressor(alpha=0.7).fit(x[:8, :], y[:8])  # d > n: dual
        primal_like = RidgeRegressor(alpha=0.7)
        primal_like.fit(x[:8, :], y[:8])
        np.testing.assert_allclose(tall.coef_, primal_like.coef_, atol=1e-8)
        assert wide.coef_.shape == (8,)

    def test_dual_equals_primal_explicitly(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((12, 12))
        y = gen.standard_normal(12)
        # Force both paths on the same data by padding one column.
        a = RidgeRegressor(alpha=0.5).fit(x, y)  # d == n -> primal branch
        xw = np.hstack([x, np.zeros((12, 1))])
        b = RidgeRegressor(alpha=0.5).fit(xw, y)  # d > n -> dual branch
        np.testing.assert_allclose(a.coef_, b.coef_[:-1], atol=1e-6)

    def test_alpha_shrinks(self):
        gen = np.random.default_rng(2)
        x = gen.standard_normal((30, 10))
        y = gen.standard_normal(30)
        small = RidgeRegressor(alpha=0.01).fit(x, y)
        large = RidgeRegressor(alpha=100.0).fit(x, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_zero_features(self):
        m = RidgeRegressor().fit(np.zeros((4, 0)), np.array([1.0, 2, 3, 4]))
        np.testing.assert_allclose(m.predict(np.zeros((2, 0))), 2.5)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            RidgeRegressor(alpha=0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha(self, alpha):
        # NaN used to fit NaN coefficients silently, and inf all-zero ones.
        with pytest.raises(ValueError, match="alpha"):
            RidgeRegressor(alpha=alpha)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            RidgeRegressor().predict(np.zeros((1, 1)))

    def test_width_mismatch(self):
        m = RidgeRegressor().fit(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            m.predict(np.zeros((1, 3)))

    def test_model_nbytes(self):
        m = RidgeRegressor().fit(np.random.default_rng(0).standard_normal((5, 3)), np.zeros(5))
        assert m.model_nbytes == 3 * 8 + 8

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 25),
        d=st.integers(1, 30),
        alpha=st.floats(0.01, 10.0),
    )
    def test_prediction_finite_any_shape(self, n, d, alpha):
        gen = np.random.default_rng(n * 31 + d)
        x = gen.standard_normal((n, d))
        y = gen.standard_normal(n)
        m = RidgeRegressor(alpha=alpha).fit(x, y)
        assert np.isfinite(m.predict(x)).all()
