"""Tests for feature-entropy estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.errormodels import kde
from repro.errormodels.entropy import batch_discrete_entropy, dataset_entropies
from repro.utils.exceptions import DataError
from tests.errormodels.reference import discrete_entropy, feature_entropy

REAL = FeatureSpec(FeatureKind.REAL)


def column_entropy(values, spec):
    """The library's entropy of one column (NaN left out)."""
    column = np.asarray(values, dtype=float)[:, None]
    return float(dataset_entropies(column, FeatureSchema([spec]))[0])


def discrete(values, arity=5):
    return column_entropy(values, FeatureSpec(FeatureKind.CATEGORICAL, arity=arity))


class TestDiscreteEntropy:
    def test_uniform_binary(self):
        v = np.array([0.0, 1.0, 0.0, 1.0])
        np.testing.assert_allclose(discrete(v), np.log(2))

    def test_constant_is_zero(self):
        assert discrete(np.zeros(10)) == 0.0

    def test_uniform_ternary(self):
        v = np.array([0.0, 1.0, 2.0] * 5)
        np.testing.assert_allclose(discrete(v, arity=3), np.log(3))

    def test_nan_ignored(self):
        v = np.array([0.0, 1.0, np.nan])
        np.testing.assert_allclose(discrete(v), np.log(2))

    def test_all_nan_raises(self):
        with pytest.raises(DataError):
            discrete(np.array([np.nan]))

    def test_out_of_range(self):
        with pytest.raises(DataError):
            discrete(np.array([5.0]), arity=3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=100))
    def test_bounds(self, codes):
        """0 <= H <= ln(#distinct values)."""
        h = discrete(np.array(codes, dtype=float))
        assert -1e-12 <= h <= np.log(max(len(set(codes)), 1)) + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=50))
    def test_permutation_invariant(self, codes):
        v = np.array(codes, dtype=float)
        gen = np.random.default_rng(0)
        np.testing.assert_allclose(
            discrete(v), discrete(gen.permutation(v))
        )


class TestDifferentialEntropy:
    def test_wider_is_higher(self):
        gen = np.random.default_rng(0)
        assert column_entropy(gen.normal(0, 3, 200), REAL) > column_entropy(
            gen.normal(0, 1, 200), REAL
        )


class TestFeatureEntropy:
    def test_dispatch(self):
        cat = FeatureSpec(FeatureKind.CATEGORICAL, arity=2)
        v = np.array([0.0, 1.0] * 10)
        ents = dataset_entropies(np.column_stack([v, v]), FeatureSchema([cat, REAL]))
        assert ents[0] == pytest.approx(np.log(2))
        assert np.isfinite(ents[1])

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

    def test_grouped_columns_match_reference(self, monkeypatch):
        """Columns grouped by (kind, observed mask) and chunked through
        ``batch_entropy`` are bitwise the per-column reference."""
        gen = np.random.default_rng(9)
        n = 40
        specs = [REAL] * 14 + [
            FeatureSpec(FeatureKind.CATEGORICAL, arity=int(a)) for a in gen.integers(2, 6, 8)
        ]
        x = gen.normal(size=(n, len(specs)))
        for j, spec in enumerate(specs):
            if spec.is_categorical:
                x[:, j] = gen.integers(0, spec.arity, n)
        # Three mask groups per kind: complete columns, two columns sharing
        # one hole pattern, and a column with holes of its own.
        shared_holes = gen.random(n) < 0.1
        for j in (10, 11, 18, 19):
            x[shared_holes, j] = np.nan
        for j in (12, 20):
            x[gen.random(n) < 0.1, j] = np.nan
        schema = FeatureSchema(specs)
        # Three rows' kernel tensors per chunk: the 10 complete real columns
        # take four chunks.
        monkeypatch.setattr(kde, "KERNEL_CHUNK_BYTES", 3 * n * n * 8)
        got = dataset_entropies(x, schema)
        want = np.array([feature_entropy(x[:, j], spec) for j, spec in enumerate(specs)])
        assert np.array_equal(got, want)


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
