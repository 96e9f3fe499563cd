"""Tests for ROC/AUC evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from repro.eval.auc import auc_from_curve, auc_score, roc_curve
from repro.utils.exceptions import DataError


class TestAUC:
    def test_perfect_separation(self):
        labels = np.array([False, False, True, True])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_score(labels, scores) == 1.0

    def test_perfect_inversion(self):
        labels = np.array([False, False, True, True])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_score(labels, scores) == 0.0

    def test_ties_count_half(self):
        labels = np.array([False, True])
        scores = np.array([0.5, 0.5])
        assert auc_score(labels, scores) == 0.5

    def test_known_value(self):
        labels = np.array([True, False, True, False, True])
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.2])
        # Positive scores {0.9, 0.7, 0.2} vs negative {0.8, 0.6}:
        # wins are 0.9>0.8, 0.9>0.6, 0.7>0.6 = 3 of 6 pairs.
        assert auc_score(labels, scores) == pytest.approx(3 / 6)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc_score(np.array([True, True]), np.array([0.1, 0.2]))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            auc_score(np.array([True, False]), np.array([0.1]))

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(DataError):
            auc_score(np.array([True, False]), np.array([np.nan, 0.5]))

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_rankdata_formula_exactly(self, seed):
        """Tie-heavy integer scores: bitwise the Mann-Whitney U from
        ``scipy.stats.rankdata`` midranks."""
        gen = np.random.default_rng(seed)
        for _ in range(100):
            n = int(gen.integers(2, 60))
            scores = gen.integers(0, int(gen.integers(1, 8)), n).astype(np.float64)
            labels = gen.random(n) < 0.4
            labels[0], labels[1] = True, False
            n_pos = int(labels.sum())
            u = sps.rankdata(scores)[labels].sum() - n_pos * (n_pos + 1) / 2.0
            assert auc_score(labels, scores) == float(u / (n_pos * (n - n_pos)))

    def test_integer_and_float_01_labels_match_bool(self):
        scores = np.array([0.1, 0.9, 0.2, 0.8, 0.5])
        expected = auc_score(np.array([False, True, False, True, True]), scores)
        assert auc_score([0, 1, 0, 1, 1], scores) == expected
        assert auc_score([0.0, 1.0, 0.0, 1.0, 1.0], scores) == expected

    @pytest.mark.parametrize(
        "labels, named",
        [
            ([0, 2, 0, 1], "2"),
            ([0, np.nan, 0, 1], "nan"),
            ([0, 0.3, 0, 1], "0.3"),
            ([-1, 1, -1, 1], "-1"),
        ],
    )
    @pytest.mark.parametrize("fn", [auc_score, roc_curve])
    def test_non_binary_labels_rejected(self, fn, labels, named):
        with pytest.raises(DataError, match=named):
            fn(labels, [0.1, 0.9, 0.2, 0.8])

    def test_non_numeric_labels_rejected(self):
        with pytest.raises(DataError, match="labels"):
            auc_score(["a", "b", "a", "b"], [0.1, 0.9, 0.2, 0.8])

    @settings(max_examples=40, deadline=None)
    @given(
        n_pos=st.integers(1, 20),
        n_neg=st.integers(1, 20),
        seed=st.integers(0, 1000),
    )
    def test_bounded_and_complementary(self, n_pos, n_neg, seed):
        """0 <= AUC <= 1 and AUC(scores) + AUC(-scores) = 1."""
        gen = np.random.default_rng(seed)
        labels = np.concatenate([np.ones(n_pos, bool), np.zeros(n_neg, bool)])
        scores = gen.standard_normal(n_pos + n_neg)
        a = auc_score(labels, scores)
        assert 0.0 <= a <= 1.0
        assert auc_score(labels, -scores) == pytest.approx(1.0 - a)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 500), shift=st.floats(-10, 10), scale=st.floats(0.1, 10))
    def test_monotone_transform_invariance(self, seed, shift, scale):
        """AUC is a rank statistic: invariant to increasing transforms."""
        gen = np.random.default_rng(seed)
        labels = gen.random(30) < 0.4
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        scores = gen.standard_normal(30)
        a = auc_score(labels, scores)
        b = auc_score(labels, scale * scores + shift)
        assert a == pytest.approx(b)


class TestROCCurve:
    def test_endpoints(self):
        labels = np.array([True, False, True, False])
        scores = np.array([0.9, 0.8, 0.4, 0.1])
        fpr, tpr, thr = roc_curve(labels, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert thr[0] == np.inf

    def test_monotone(self):
        gen = np.random.default_rng(0)
        labels = gen.random(50) < 0.3
        labels[0], labels[1] = True, False
        scores = gen.standard_normal(50)
        fpr, tpr, _ = roc_curve(labels, scores)
        assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_curve_integrates_to_auc(self, seed):
        """Trapezoid area under the ROC curve equals the rank-form AUC,
        including under ties."""
        gen = np.random.default_rng(seed)
        labels = gen.random(40) < 0.5
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        scores = np.round(gen.standard_normal(40), 1)  # force ties
        fpr, tpr, _ = roc_curve(labels, scores)
        assert auc_from_curve(fpr, tpr) == pytest.approx(auc_score(labels, scores))
