"""Tests for statistics helpers."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.eval.stats import (
    MeanStd,
    enrichment_of_top_models,
    hypergeom_enrichment,
    mean_std,
)
from repro.utils.exceptions import DataError


class TestMeanStd:
    def test_values(self):
        ms = mean_std([1.0, 2.0, 3.0])
        assert ms.mean == 2.0
        assert ms.std == pytest.approx(1.0)  # sample std, ddof=1
        assert ms.n == 3

    def test_single_value(self):
        ms = mean_std([5.0])
        assert ms.mean == 5.0 and ms.std == 0.0

    def test_empty(self):
        with pytest.raises(DataError):
            mean_std([])

    def test_paper_format(self):
        assert str(MeanStd(0.73, 0.06, 5)) == "0.73 (0.06)"


class TestHypergeom:
    def test_matches_scipy(self):
        p = hypergeom_enrichment(2, 20, 100, 4173)
        expected = sps.hypergeom.sf(1, 4173, 100, 20)
        assert p == pytest.approx(expected)

    def test_paper_calculation_shape(self):
        """§IV: 2 hits in the top 20 from 100 interesting in a 4173 pool is
        a small-probability event (the paper reports 0.011; the exact tail
        of the stated parameters is ~0.08 — same order, documented in
        EXPERIMENTS.md)."""
        p = hypergeom_enrichment(2, 20, 100, 4173)
        assert p < 0.1

    def test_zero_hits_is_one(self):
        assert hypergeom_enrichment(0, 20, 100, 4173) == 1.0

    def test_more_hits_less_likely(self):
        ps = [hypergeom_enrichment(k, 20, 100, 4173) for k in range(4)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_bad_args(self):
        with pytest.raises(DataError):
            hypergeom_enrichment(1, 30, 10, 20)
        with pytest.raises(DataError):
            hypergeom_enrichment(-1, 5, 5, 10)

    @pytest.mark.parametrize(
        "args",
        [
            (5, 3, 10, 100),  # more hits than draws
            (5, 10, 3, 100),  # more hits than interesting features
            (2.5, 20, 100, 4173),  # non-integer hits
            (2, 20.0, 100, 4173),  # non-integer draws
        ],
    )
    def test_impossible_counts_rejected(self, args):
        with pytest.raises(DataError):
            hypergeom_enrichment(*args)

    def test_numpy_integer_counts_accepted(self):
        p = hypergeom_enrichment(np.int64(2), np.intp(20), 100, 4173)
        assert p == hypergeom_enrichment(2, 20, 100, 4173)


class TestEnrichmentOfTopModels:
    def test_counts_hits(self):
        ranked = np.array([3, 7, 1, 9, 2])
        interesting = np.array([7, 9, 100])
        hits, p = enrichment_of_top_models(ranked, interesting, n_top=4, n_pool=200)
        assert hits == 2
        assert 0 < p < 1

    def test_planted_enrichment_is_significant(self):
        """All top models planted => tiny p-value."""
        ranked = np.arange(50)
        interesting = np.arange(10)
        hits, p = enrichment_of_top_models(ranked, interesting, n_top=10, n_pool=1000)
        assert hits == 10
        assert p < 1e-10

    def test_negative_n_top_rejected(self):
        with pytest.raises(DataError):
            enrichment_of_top_models(np.arange(100), np.arange(10), -5, 100)

    def test_repeated_ranked_ids_rejected(self):
        with pytest.raises(DataError):
            enrichment_of_top_models(np.array([1, 1, 1]), np.array([1]), 3, 10)
