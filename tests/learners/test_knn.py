"""Tests for k-nearest-neighbour learners."""

import numpy as np
import pytest

from repro.learners.knn import KNNClassifier, KNNRegressor
from repro.utils.exceptions import NotFittedError


class TestKNNRegressor:
    def test_interpolates_smooth_function(self):
        gen = np.random.default_rng(0)
        x = gen.uniform(-2, 2, size=(200, 1))
        y = np.sin(x[:, 0])
        m = KNNRegressor(k=5).fit(x, y)
        assert np.abs(m.predict(x) - y).mean() < 0.1

    def test_k_one_memorizes(self):
        gen = np.random.default_rng(1)
        x = gen.standard_normal((30, 3))
        y = gen.standard_normal(30)
        m = KNNRegressor(k=1).fit(x, y)
        np.testing.assert_allclose(m.predict(x), y)

    def test_k_capped_at_n(self):
        x = np.random.default_rng(2).standard_normal((4, 2))
        y = np.arange(4.0)
        m = KNNRegressor(k=100).fit(x, y)
        np.testing.assert_allclose(m.predict(x), 1.5)

    def test_zero_features(self):
        m = KNNRegressor().fit(np.zeros((4, 0)), np.array([1.0, 2, 3, 4]))
        np.testing.assert_allclose(m.predict(np.zeros((2, 0))), 2.5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            KNNRegressor(k=0)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            KNNRegressor().predict(np.zeros((1, 1)))

    def test_clone(self):
        m = KNNRegressor(k=3).fit(np.zeros((3, 1)), np.zeros(3))
        fresh = m.clone()
        assert fresh.x_ is None and fresh.k == 3


class TestKNNClassifier:
    def test_separable_blobs(self):
        gen = np.random.default_rng(0)
        x = np.vstack([gen.standard_normal((40, 2)) - 4, gen.standard_normal((40, 2)) + 4])
        y = np.array([0.0] * 40 + [1.0] * 40)
        m = KNNClassifier(k=5).fit(x, y)
        assert (m.predict(x) == y).mean() > 0.97

    def test_votes_majority(self):
        x = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        m = KNNClassifier(k=3).fit(x, y)
        assert m.predict(np.array([[0.05]]))[0] == 1.0

    def test_zero_features_majority(self):
        m = KNNClassifier().fit(np.zeros((3, 0)), np.array([0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(m.predict(np.zeros((2, 0))), 1.0)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            KNNClassifier().predict(np.zeros((1, 1)))

    def test_k_one_memorizes(self):
        gen = np.random.default_rng(1)
        x = gen.standard_normal((30, 3))
        y = gen.integers(0, 3, 30).astype(float)
        m = KNNClassifier(k=1).fit(x, y)
        np.testing.assert_array_equal(m.predict(x), y)

    def test_k_capped_at_n(self):
        x = np.random.default_rng(2).standard_normal((5, 2))
        y = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        m = KNNClassifier(k=100).fit(x, y)
        np.testing.assert_array_equal(m.predict(x), 1.0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            KNNClassifier(k=0)

    def test_clone(self):
        m = KNNClassifier(k=3).fit(np.zeros((3, 1)), np.zeros(3))
        fresh = m.clone()
        assert fresh.x_ is None and fresh.k == 3
