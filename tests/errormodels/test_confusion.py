"""Tests for the confusion-matrix error model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errormodels.confusion import ConfusionErrorModel
from repro.utils.exceptions import DataError, FitError, NotFittedError
from tests.errormodels.reference import ReferenceConfusionErrorModel


class TestFit:
    def test_counts(self):
        pred = np.array([0, 0, 1, 1, 2])
        true = np.array([0, 1, 1, 1, 2])
        m = ConfusionErrorModel(arity=3).fit(pred, true)
        np.testing.assert_array_equal(
            m.counts_, [[1, 1, 0], [0, 2, 0], [0, 0, 1]]
        )

    def test_rows_normalize(self):
        m = ConfusionErrorModel(arity=3, smoothing=0.5).fit(
            np.array([0, 1, 2]), np.array([0, 1, 2])
        )
        np.testing.assert_allclose(np.exp(m.log_prob_).sum(axis=1), 1.0)

    def test_empty_raises(self):
        with pytest.raises(FitError):
            ConfusionErrorModel(arity=2).fit(np.zeros(0), np.zeros(0))

    def test_out_of_range_codes(self):
        with pytest.raises(DataError):
            ConfusionErrorModel(arity=2).fit(np.array([2.0]), np.array([0.0]))

    @pytest.mark.parametrize("kw", [dict(arity=1), dict(arity=3, smoothing=0)])
    def test_bad_params(self, kw):
        with pytest.raises(DataError):
            ConfusionErrorModel(**kw)

    @pytest.mark.parametrize("smoothing", [np.nan, np.inf, 0.0, -0.5])
    def test_smoothing_must_be_positive_and_finite(self, smoothing):
        with pytest.raises(DataError):
            ConfusionErrorModel(3, smoothing=smoothing)
        with pytest.raises(DataError):
            ConfusionErrorModel.batch_fit(
                np.zeros((1, 4)), np.zeros((1, 4)), [3], smoothing=smoothing
            )


class TestSurprisal:
    def test_agreement_less_surprising_than_disagreement(self):
        pred = np.array([0] * 9 + [0])
        true = np.array([0] * 9 + [1])
        m = ConfusionErrorModel(arity=2).fit(pred, true)
        agree = m.surprisal(np.array([0]), np.array([0]))
        disagree = m.surprisal(np.array([0]), np.array([1]))
        assert agree < disagree

    def test_exact_smoothed_probability(self):
        # 9 correct (0,0), 1 error (0,1); smoothing 1 => P(1|0) = 2/12.
        pred = np.zeros(10)
        true = np.array([0.0] * 9 + [1.0])
        m = ConfusionErrorModel(arity=2, smoothing=1.0).fit(pred, true)
        np.testing.assert_allclose(
            m.surprisal(np.array([0.0]), np.array([1.0])), -np.log(2 / 12)
        )

    def test_unseen_combination_is_finite(self):
        m = ConfusionErrorModel(arity=3).fit(np.array([0, 1]), np.array([0, 1]))
        s = m.surprisal(np.array([2]), np.array([0]))
        assert np.isfinite(s).all()

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            ConfusionErrorModel(arity=2).surprisal(np.zeros(1), np.zeros(1))

    def test_float_codes_rounded(self):
        m = ConfusionErrorModel(arity=2).fit(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        s1 = m.surprisal(np.array([1.0]), np.array([1.0]))
        s2 = m.surprisal(np.array([0.999999]), np.array([1.000001]))
        np.testing.assert_allclose(s1, s2)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 60),
        arity=st.integers(2, 5),
        smoothing=st.floats(0.1, 5.0),
    )
    def test_surprisal_bounded_by_smoothed_extremes(self, n, arity, smoothing):
        gen = np.random.default_rng(n)
        pred = gen.integers(0, arity, size=n)
        true = gen.integers(0, arity, size=n)
        m = ConfusionErrorModel(arity=arity, smoothing=smoothing).fit(pred, true)
        s = m.surprisal(pred, true)
        max_surprisal = np.log((n + arity * smoothing) / smoothing)
        assert (s >= 0).all() or (s >= -1e-12).all()
        assert (s <= max_surprisal + 1e-9).all()


class TestBatchFit:
    """``batch_fit`` / ``batch_surprisal`` are bitwise the reference per-row
    ``fit`` / ``surprisal``, row means included, mixed arities included."""

    def _stack(self, seed, k=7, n=40):
        gen = np.random.default_rng(seed)
        arities = [int(a) for a in gen.integers(2, 6, size=k)]
        pred = np.stack([gen.integers(0, a, n) for a in arities]).astype(float)
        true = np.stack([gen.integers(0, a, n) for a in arities]).astype(float)
        return pred, true, arities

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("smoothing", [0.5, 1.0, 3.0])
    def test_matches_scalar_fits(self, seed, smoothing):
        pred, true, arities = self._stack(seed)
        models = ConfusionErrorModel.batch_fit(pred, true, arities, smoothing=smoothing)
        surprisal = ConfusionErrorModel.batch_surprisal(models, pred, true)
        means = surprisal.mean(axis=1)
        for j, (model, arity) in enumerate(zip(models, arities)):
            ref = ReferenceConfusionErrorModel(arity, smoothing=smoothing).fit(pred[j], true[j])
            assert np.array_equal(model.counts_, ref.counts_)
            assert np.array_equal(model.log_prob_, ref.log_prob_)
            assert np.array_equal(surprisal[j], ref.surprisal(pred[j], true[j]))
            assert means[j] == ref.surprisal(pred[j], true[j]).mean()
            # fit / surprisal are a batch of one.
            one = ConfusionErrorModel(arity, smoothing=smoothing).fit(pred[j], true[j])
            assert np.array_equal(one.log_prob_, ref.log_prob_)
            assert np.array_equal(one.surprisal(true[j], pred[j]), ref.surprisal(true[j], pred[j]))

    def test_rejects_out_of_range_codes(self):
        pred, true, arities = self._stack(0, k=2)
        pred[1, 0] = arities[1]
        with pytest.raises(DataError, match="predictions"):
            ConfusionErrorModel.batch_fit(pred, true, arities)

    def test_rejects_empty_holdout(self):
        with pytest.raises(FitError, match="zero holdout"):
            ConfusionErrorModel.batch_fit(np.zeros((2, 0)), np.zeros((2, 0)), [3, 3])
