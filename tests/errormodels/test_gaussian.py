"""Tests for the Gaussian residual error model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errormodels.gaussian import GaussianErrorModel
from repro.utils.exceptions import FitError, NotFittedError
from tests.errormodels.reference import ReferenceGaussianErrorModel

_LOG_2PI = np.log(2 * np.pi)


class TestFit:
    def test_moments(self):
        gen = np.random.default_rng(0)
        resid = gen.normal(0.5, 2.0, size=5000)
        m = GaussianErrorModel().fit(np.zeros(5000), resid)
        assert abs(m.mu_ - 0.5) < 0.1
        assert abs(m.sigma_ - 2.0) < 0.1

    def test_empty_raises(self):
        with pytest.raises(FitError):
            GaussianErrorModel().fit(np.zeros(0), np.zeros(0))

    def test_nonfinite_raises(self):
        with pytest.raises(FitError):
            GaussianErrorModel().fit(np.array([0.0]), np.array([np.nan]))

    def test_sigma_floor_applies(self):
        m = GaussianErrorModel(sigma_floor=0.1).fit(np.zeros(5), np.zeros(5))
        assert m.sigma_ == 0.1

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            GaussianErrorModel(sigma_floor=0.0)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, 0.0, -1.0])
    def test_floor_must_be_positive_and_finite(self, floor):
        # A NaN floor used to pass `<= 0` and fit sigma_ = 0 on perfect
        # predictions, scoring NaN surprisals.
        with pytest.raises(ValueError):
            GaussianErrorModel(sigma_floor=floor)
        with pytest.raises(ValueError):
            GaussianErrorModel.batch_fit(np.zeros((2, 3)), np.zeros((2, 3)), sigma_floor=floor)


class TestSurprisal:
    def test_matches_closed_form(self):
        m = GaussianErrorModel().fit(np.zeros(4), np.array([-1.0, 1.0, -1.0, 1.0]))
        # mu=0, sigma=1 exactly.
        s = m.surprisal(np.array([0.0]), np.array([2.0]))
        expected = 0.5 * 4.0 + 0.5 * _LOG_2PI
        np.testing.assert_allclose(s, expected)

    def test_mode_is_least_surprising(self):
        m = GaussianErrorModel().fit(np.zeros(4), np.array([-1.0, 1.0, -1.0, 1.0]))
        near = m.surprisal(np.array([0.0]), np.array([0.0]))
        far = m.surprisal(np.array([0.0]), np.array([3.0]))
        assert near < far

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            GaussianErrorModel().surprisal(np.zeros(1), np.zeros(1))

    def test_vectorized_shape(self):
        m = GaussianErrorModel().fit(np.zeros(3), np.array([0.0, 1.0, -1.0]))
        assert m.surprisal(np.zeros(7), np.arange(7.0)).shape == (7,)

    @settings(max_examples=30, deadline=None)
    @given(
        mu=st.floats(-3, 3),
        sigma=st.floats(0.1, 5),
        query=st.floats(-10, 10),
    )
    def test_surprisal_exceeds_entropy_floor(self, mu, sigma, query):
        """-ln N(x; mu, sigma) >= ln(sigma sqrt(2 pi e)) - 0.5... i.e. the
        minimum surprisal is at the mode: ln(sigma) + 0.5 ln(2 pi)."""
        gen = np.random.default_rng(0)
        resid = gen.normal(mu, sigma, size=500)
        m = GaussianErrorModel().fit(np.zeros(500), resid)
        s = float(m.surprisal(np.array([0.0]), np.array([query]))[0])
        mode_surprisal = np.log(m.sigma_) + 0.5 * _LOG_2PI
        assert s >= mode_surprisal - 1e-9


class TestBatchFit:
    """``batch_fit`` / ``batch_surprisal(...).mean(axis=1)`` /
    ``batch_surprisal`` are bitwise the reference per-row ``fit`` /
    ``surprisal(...).mean()`` / ``surprisal``: the library computes every
    error model through the batched calls, so the reference bodies are
    their only oracle."""

    @staticmethod
    def _stack(seed, k, n):
        gen = np.random.default_rng(seed)
        truth = gen.normal(gen.normal(size=(k, 1)), gen.uniform(0.1, 3.0, size=(k, 1)), (k, n))
        pred = truth + gen.normal(0.3, 1.7, size=(k, n))
        # One member predicted exactly: zero residual std, floored sigma.
        pred[0] = truth[0]
        return pred, truth

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 255, 1000])
    @pytest.mark.parametrize("sigma_floor", [1e-6, 0.5])
    def test_matches_scalar_fits(self, n, sigma_floor):
        """n straddles numpy's pairwise-sum unroll (8) and block (128) sizes."""
        pred, truth = self._stack(n, k=5, n=n)
        models = GaussianErrorModel.batch_fit(pred, truth, sigma_floor=sigma_floor)
        means = GaussianErrorModel.batch_surprisal(models, pred, truth).mean(axis=1)
        for j, model in enumerate(models):
            ref = ReferenceGaussianErrorModel(sigma_floor).fit(pred[j], truth[j])
            assert model.sigma_floor == ref.sigma_floor
            assert model.mu_ == ref.mu_
            assert model.sigma_ == ref.sigma_
            assert means[j] == ref.surprisal(pred[j], truth[j]).mean()
            # fit / surprisal are a batch of one.
            one = GaussianErrorModel(sigma_floor).fit(pred[j], truth[j])
            assert (one.mu_, one.sigma_) == (ref.mu_, ref.sigma_)
            assert np.array_equal(one.surprisal(truth[j], pred[j]), ref.surprisal(truth[j], pred[j]))
        assert models[0].sigma_ == sigma_floor

    def test_strided_stacks_match(self):
        """Non-contiguous inputs (e.g. a column slice) fit like their rows."""
        pred, truth = self._stack(3, k=4, n=300)
        pred_s, truth_s = pred[:, ::2], truth[:, ::2]
        models = GaussianErrorModel.batch_fit(pred_s, truth_s)
        means = GaussianErrorModel.batch_surprisal(models, pred_s, truth_s).mean(axis=1)
        for j, model in enumerate(models):
            ref = ReferenceGaussianErrorModel().fit(pred_s[j], truth_s[j])
            assert (model.mu_, model.sigma_) == (ref.mu_, ref.sigma_)
            assert means[j] == ref.surprisal(pred_s[j], truth_s[j]).mean()

    def test_batch_surprisal_matches_columns(self):
        pred, truth = self._stack(4, k=6, n=200)
        models = GaussianErrorModel.batch_fit(pred, truth)
        gen = np.random.default_rng(5)
        p_test, t_test = gen.normal(size=(2, 6, 17))
        s = GaussianErrorModel.batch_surprisal(models, p_test, t_test)
        for j, model in enumerate(models):
            want = ReferenceGaussianErrorModel.surprisal(model, p_test[j], t_test[j])
            assert np.array_equal(s[j], want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_residual_raises_like_scalar(self, bad):
        pred, truth = self._stack(6, k=3, n=20)
        truth[2, 11] = bad
        with pytest.raises(FitError, match="non-finite"):
            ReferenceGaussianErrorModel().fit(pred[2], truth[2])
        with pytest.raises(FitError, match="non-finite"):
            GaussianErrorModel().fit(pred[2], truth[2])
        with pytest.raises(FitError, match="non-finite"):
            GaussianErrorModel.batch_fit(pred, truth)

    def test_rejects_empty_holdout(self):
        with pytest.raises(FitError, match="zero holdout"):
            GaussianErrorModel.batch_fit(np.zeros((2, 0)), np.zeros((2, 0)))
