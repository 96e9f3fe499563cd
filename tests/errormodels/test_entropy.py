"""Tests for feature-entropy estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.errormodels.entropy import (
    batch_discrete_entropy,
    dataset_entropies,
    differential_entropy,
    discrete_entropy,
    feature_entropy,
)
from repro.utils.exceptions import DataError


class TestDiscreteEntropy:
    def test_uniform_binary(self):
        v = np.array([0.0, 1.0, 0.0, 1.0])
        np.testing.assert_allclose(discrete_entropy(v), np.log(2))

    def test_constant_is_zero(self):
        assert discrete_entropy(np.zeros(10)) == 0.0

    def test_uniform_ternary(self):
        v = np.array([0.0, 1.0, 2.0] * 5)
        np.testing.assert_allclose(discrete_entropy(v, arity=3), np.log(3))

    def test_nan_ignored(self):
        v = np.array([0.0, 1.0, np.nan])
        np.testing.assert_allclose(discrete_entropy(v), np.log(2))

    def test_all_nan_raises(self):
        with pytest.raises(DataError):
            discrete_entropy(np.array([np.nan]))

    def test_out_of_range(self):
        with pytest.raises(DataError):
            discrete_entropy(np.array([5.0]), arity=3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=100))
    def test_bounds(self, codes):
        """0 <= H <= ln(#distinct values)."""
        h = discrete_entropy(np.array(codes, dtype=float))
        assert -1e-12 <= h <= np.log(max(len(set(codes)), 1)) + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=50))
    def test_permutation_invariant(self, codes):
        v = np.array(codes, dtype=float)
        gen = np.random.default_rng(0)
        np.testing.assert_allclose(
            discrete_entropy(v), discrete_entropy(gen.permutation(v))
        )


class TestDifferentialEntropy:
    def test_wider_is_higher(self):
        gen = np.random.default_rng(0)
        assert differential_entropy(gen.normal(0, 3, 200)) > differential_entropy(
            gen.normal(0, 1, 200)
        )

    def test_explicit_bandwidth(self):
        gen = np.random.default_rng(1)
        h = differential_entropy(gen.standard_normal(100), bandwidth=0.5)
        assert np.isfinite(h)


class TestFeatureEntropy:
    def test_dispatch(self):
        real = FeatureSpec(FeatureKind.REAL)
        cat = FeatureSpec(FeatureKind.CATEGORICAL, arity=2)
        v = np.array([0.0, 1.0] * 10)
        assert feature_entropy(v, cat) == pytest.approx(np.log(2))
        assert np.isfinite(feature_entropy(v, real))

    def test_dataset_entropies(self):
        schema = FeatureSchema(
            [FeatureSpec(FeatureKind.REAL), FeatureSpec(FeatureKind.CATEGORICAL, arity=3)]
        )
        gen = np.random.default_rng(0)
        x = np.column_stack(
            [gen.standard_normal(50), gen.integers(0, 3, 50).astype(float)]
        )
        ents = dataset_entropies(x, schema)
        assert ents.shape == (2,) and np.isfinite(ents).all()

    def test_width_mismatch(self):
        with pytest.raises(DataError):
            dataset_entropies(np.zeros((3, 2)), FeatureSchema.all_real(3))


class TestBatchDiscreteEntropy:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_rows(self, seed):
        gen = np.random.default_rng(seed)
        arities = [int(a) for a in gen.integers(2, 17, size=9)]
        values = np.stack([gen.integers(0, a, 35) for a in arities]).astype(float)
        values[0] = 1.0  # a single observed code: entropy 0
        got = batch_discrete_entropy(values, arities)
        for j, arity in enumerate(arities):
            assert got[j] == discrete_entropy(values[j], arity=arity)

    def test_rejects_out_of_range_and_missing(self):
        with pytest.raises(DataError, match="outside"):
            batch_discrete_entropy(np.array([[0.0, 3.0]]), [3])
        with pytest.raises(DataError, match="complete"):
            batch_discrete_entropy(np.array([[0.0, np.nan]]), [3])
