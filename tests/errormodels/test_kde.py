"""Tests for the batched KDE entropy, and for its reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.errormodels import kde
from repro.errormodels.kde import BANDWIDTH_FLOOR, batch_entropy, batch_silverman_bandwidth
from repro.utils.exceptions import FitError, NotFittedError
from tests.errormodels.reference import GaussianKDE, silverman_bandwidth


class TestBandwidth:
    def test_silverman_formula(self):
        gen = np.random.default_rng(0)
        v = gen.standard_normal(200)
        h = silverman_bandwidth(v)
        sd = v.std()
        iqr = np.subtract(*np.percentile(v, [75, 25]))
        expected = 0.9 * min(sd, iqr / 1.34) * 200 ** (-0.2)
        np.testing.assert_allclose(h, expected)

    def test_constant_sample_floor(self):
        assert silverman_bandwidth(np.full(50, 3.0)) == BANDWIDTH_FLOOR

    def test_single_value(self):
        assert silverman_bandwidth(np.array([1.0])) == BANDWIDTH_FLOOR


class TestKDE:
    def test_pdf_integrates_to_one(self):
        gen = np.random.default_rng(1)
        kde = GaussianKDE().fit(gen.standard_normal(100))
        xs = np.linspace(-6, 6, 2000)
        mass = np.trapezoid(kde.pdf(xs), xs)
        assert abs(mass - 1.0) < 1e-3

    def test_matches_scipy(self):
        gen = np.random.default_rng(2)
        v = gen.standard_normal(80)
        ours = GaussianKDE(bandwidth=0.5).fit(v)
        ref = stats.gaussian_kde(v, bw_method=0.5 / v.std(ddof=1))
        xs = np.linspace(-3, 3, 50)
        np.testing.assert_allclose(ours.pdf(xs), ref(xs), rtol=0.02)

    def test_entropy_of_gaussian(self):
        """KDE entropy of a big normal sample ~ 0.5 ln(2 pi e sigma^2)."""
        gen = np.random.default_rng(3)
        sigma = 2.0
        kde = GaussianKDE().fit(gen.normal(0, sigma, size=3000))
        expected = 0.5 * np.log(2 * np.pi * np.e * sigma**2)
        assert abs(kde.entropy() - expected) < 0.1

    def test_entropy_monotone_in_spread(self):
        gen = np.random.default_rng(4)
        narrow = GaussianKDE().fit(gen.normal(0, 0.5, 300))
        wide = GaussianKDE().fit(gen.normal(0, 3.0, 300))
        assert wide.entropy() > narrow.entropy()

    def test_ignores_nan(self):
        v = np.array([0.0, 1.0, np.nan, 2.0])
        kde = GaussianKDE().fit(v)
        assert kde.samples_.shape == (3,)

    def test_all_nan_raises(self):
        with pytest.raises(FitError):
            GaussianKDE().fit(np.array([np.nan, np.nan]))

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            GaussianKDE().logpdf(np.zeros(1))

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            GaussianKDE(bandwidth=-1.0)

    @settings(max_examples=20, deadline=None)
    @given(loc=st.floats(-5, 5), scale=st.floats(0.2, 4))
    def test_entropy_location_invariant(self, loc, scale):
        """Differential entropy must not depend on location, and must grow
        by ln(a) under scaling by a."""
        gen = np.random.default_rng(0)
        base = gen.standard_normal(150)
        h0 = GaussianKDE().fit(base).entropy()
        h_shift = GaussianKDE().fit(base + loc).entropy()
        h_scale = GaussianKDE().fit(base * scale).entropy()
        assert abs(h_shift - h0) < 1e-9
        np.testing.assert_allclose(h_scale, h0 + np.log(scale), atol=1e-9)


def assert_rows_match(samples):
    """The batched KDE of every row is bitwise the reference KDE of that row."""
    want_h = np.array([silverman_bandwidth(row) for row in samples])
    want_entropy = np.array([GaussianKDE().fit(row).entropy() for row in samples])
    assert np.array_equal(batch_silverman_bandwidth(samples), want_h)
    assert np.array_equal(batch_entropy(samples), want_entropy)


class TestBatchedKDE:
    """``batch_entropy`` / ``batch_silverman_bandwidth`` against the reference
    estimators, bit for bit (``np.array_equal``)."""

    def test_ties(self):
        gen = np.random.default_rng(5)
        assert_rows_match(gen.integers(0, 3, size=(6, 40)).astype(np.float64))

    def test_rows_at_the_bandwidth_floor(self):
        gen = np.random.default_rng(6)
        rows = np.stack(
            [
                np.full(30, 2.5),  # constant
                7.0 + gen.normal(size=30) * 1e-13,  # spread below the floor
                np.r_[np.zeros(29), 1.0],  # zero IQR, positive sd
            ]
        )
        assert batch_silverman_bandwidth(rows)[0] == BANDWIDTH_FLOOR
        assert batch_silverman_bandwidth(rows)[1] == BANDWIDTH_FLOOR
        assert_rows_match(rows)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_rows(self, n):
        gen = np.random.default_rng(n)
        assert_rows_match(gen.normal(size=(4, n)))

    @pytest.mark.parametrize("scale", [1e-150, 1e-5, 1.0, 1e5, 1e150])
    def test_extreme_scales(self, scale):
        gen = np.random.default_rng(7)
        assert_rows_match(gen.normal(size=(5, 50)) * scale)

    def test_rows_split_across_chunks(self, monkeypatch):
        # Two rows' kernel tensors per chunk, so seven rows take four chunks.
        gen = np.random.default_rng(8)
        samples = gen.normal(size=(7, 25))
        whole = batch_entropy(samples)
        monkeypatch.setattr(kde, "KERNEL_CHUNK_BYTES", 2 * 25 * 25 * 8)
        assert_rows_match(samples)
        monkeypatch.setattr(kde, "KERNEL_CHUNK_BYTES", 1)
        assert np.array_equal(batch_entropy(samples), whole)

    def test_empty_rows_raise(self):
        with pytest.raises(FitError):
            batch_entropy(np.zeros((3, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_raise(self, bad):
        # A non-finite value used to come back as a NaN entropy (with only
        # RuntimeWarnings), which would poison every NS score.
        samples = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, bad, 2.0]])
        with pytest.raises(FitError, match="finite"):
            batch_entropy(samples)
