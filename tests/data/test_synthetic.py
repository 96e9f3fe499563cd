"""Tests for the synthetic data generators (DESIGN.md §5 substitutions)."""

import numpy as np
import pytest

from repro.data.synthetic import (
    ExpressionConfig,
    SNPConfig,
    make_expression_dataset,
    make_snp_dataset,
)
from repro.utils.exceptions import DataError


class TestExpressionConfig:
    def test_modules_exceed_features(self):
        with pytest.raises(DataError):
            ExpressionConfig(n_features=10, n_normal=5, n_anomaly=2, n_modules=4, module_size=5)

    def test_bad_disrupt_fraction(self):
        with pytest.raises(DataError):
            ExpressionConfig(n_features=100, n_normal=5, n_anomaly=2, disrupt_fraction=1.5)

    def test_bad_missing_rate(self):
        with pytest.raises(DataError):
            ExpressionConfig(n_features=100, n_normal=5, n_anomaly=2, missing_rate=1.0)

    def test_bad_entropy_bias(self):
        with pytest.raises(DataError):
            ExpressionConfig(n_features=100, n_normal=5, n_anomaly=2, entropy_bias=0.0)


class TestExpressionDataset:
    CFG = ExpressionConfig(
        n_features=60, n_normal=40, n_anomaly=12, n_modules=4, module_size=10,
        disrupt_fraction=0.5, name="x",
    )

    def test_geometry(self):
        ds = make_expression_dataset(self.CFG, rng=0)
        assert ds.n_samples == 52 and ds.n_features == 60
        assert ds.n_normal == 40 and ds.n_anomaly == 12
        assert ds.schema.is_all_real

    def test_metadata_structure(self):
        ds = make_expression_dataset(self.CFG, rng=0)
        module_of = ds.metadata["module_of"]
        relevant = ds.metadata["relevant_features"]
        assert (module_of >= 0).sum() == 40  # 4 modules x 10
        np.testing.assert_array_equal(np.sort(np.flatnonzero(module_of >= 0)), relevant)

    def test_records_each_anomalys_disrupted_features(self):
        """Scattered mode: each anomaly re-draws round(fraction * relevant)
        distinct relevant features, recorded sorted in anomaly order."""
        ds = make_expression_dataset(self.CFG, rng=0)
        disrupted = ds.metadata["disrupted_features"]
        relevant = ds.metadata["relevant_features"]
        assert len(disrupted) == self.CFG.n_anomaly
        for features in disrupted:
            assert len(features) == round(self.CFG.disrupt_fraction * len(relevant))
            assert np.isin(features, relevant).all()
            np.testing.assert_array_equal(features, np.unique(features))

    def test_zero_disruption_records_empty_feature_sets(self):
        cfg = ExpressionConfig(
            n_features=60, n_normal=10, n_anomaly=3, n_modules=4, module_size=10,
            disrupt_fraction=0.0,
        )
        disrupted = make_expression_dataset(cfg, rng=0).metadata["disrupted_features"]
        assert [len(features) for features in disrupted] == [0, 0, 0]

    def test_module_features_correlate(self):
        """Features in the same module must be strongly correlated among
        normal samples — the relationship FRaC learns."""
        ds = make_expression_dataset(self.CFG, rng=0)
        module_of = ds.metadata["module_of"]
        xn = ds.normals().x
        corr = np.corrcoef(xn, rowvar=False)
        m0 = np.flatnonzero(module_of == 0)
        within = np.abs(corr[np.ix_(m0, m0)][np.triu_indices(len(m0), 1)]).mean()
        irrelevant = np.flatnonzero(module_of < 0)
        across = np.abs(corr[np.ix_(m0, irrelevant)]).mean()
        assert within > 0.5
        assert across < 0.35

    def test_anomalies_preserve_marginals(self):
        """Per-feature means/stds must look alike across classes: the planted
        anomaly breaks relationships, not marginals."""
        ds = make_expression_dataset(self.CFG, rng=1)
        xn, xa = ds.normals().x, ds.anomalies().x
        # Compare per-feature std averaged over features (population level).
        assert abs(xn.std(axis=0).mean() - xa.std(axis=0).mean()) < 0.15

    def test_zero_disruption_plants_no_signal(self):
        cfg = ExpressionConfig(
            n_features=60, n_normal=40, n_anomaly=12, n_modules=4, module_size=10,
            disrupt_fraction=0.0,
        )
        ds = make_expression_dataset(cfg, rng=2)
        # Anomalies are then drawn from the same model as normals.
        xn, xa = ds.normals().x, ds.anomalies().x
        assert abs(xn.mean() - xa.mean()) < 0.1

    def test_missing_rate(self):
        cfg = ExpressionConfig(
            n_features=50, n_normal=30, n_anomaly=5, n_modules=2, module_size=5,
            missing_rate=0.1,
        )
        ds = make_expression_dataset(cfg, rng=3)
        frac = np.isnan(ds.x).mean()
        assert 0.05 < frac < 0.15

    def test_entropy_bias_scales_relevant_variance(self):
        base = make_expression_dataset(self.CFG, rng=4)
        cfg_hi = ExpressionConfig(**{**self.CFG.__dict__, "entropy_bias": 2.0})
        hi = make_expression_dataset(cfg_hi, rng=4)
        rel = base.metadata["relevant_features"]
        assert hi.x[:, rel].std() > 1.5 * base.x[:, rel].std()

    def test_deterministic(self):
        a = make_expression_dataset(self.CFG, rng=9)
        b = make_expression_dataset(self.CFG, rng=9)
        np.testing.assert_array_equal(a.x, b.x)


class TestSNPConfig:
    def test_too_many_special_blocks(self):
        with pytest.raises(DataError):
            SNPConfig(n_features=16, n_normal=5, n_anomaly=2, block_size=8,
                      relevant_blocks=2, ancestry_blocks=1)

    def test_block_size_floor(self):
        with pytest.raises(DataError):
            SNPConfig(n_features=16, n_normal=5, n_anomaly=2, block_size=1)

    def test_haplotype_floor(self):
        with pytest.raises(DataError):
            SNPConfig(n_features=16, n_normal=5, n_anomaly=2, n_haplotypes=1)


class TestSNPDataset:
    def test_geometry_and_codes(self):
        cfg = SNPConfig(n_features=40, n_normal=30, n_anomaly=10, block_size=8,
                        relevant_blocks=2)
        ds = make_snp_dataset(cfg, rng=0)
        assert ds.schema.is_all_categorical
        vals = ds.x[~np.isnan(ds.x)]
        assert set(np.unique(vals)).issubset({0.0, 1.0, 2.0})

    def test_tail_columns_filled(self):
        """n_features not divisible by block_size still yields full data."""
        cfg = SNPConfig(n_features=21, n_normal=20, n_anomaly=5, block_size=8)
        ds = make_snp_dataset(cfg, rng=1)
        assert np.isfinite(ds.x).all()
        assert (ds.metadata["block_of"] == -1).sum() == 5

    def test_ld_within_blocks(self):
        """SNPs in the same block must be statistically dependent."""
        cfg = SNPConfig(n_features=40, n_normal=200, n_anomaly=5, block_size=8,
                        n_haplotypes=3)
        ds = make_snp_dataset(cfg, rng=2)
        xn = ds.normals().x
        block0 = np.flatnonzero(ds.metadata["block_of"] == 0)
        variable = [j for j in block0 if xn[:, j].std() > 0.05]
        if len(variable) >= 2:
            corr = np.corrcoef(xn[:, variable], rowvar=False)
            assert np.abs(corr[np.triu_indices(len(variable), 1)]).max() > 0.3

    def test_ancestry_features_are_high_entropy(self):
        from tests.errormodels.reference import discrete_entropy

        cfg = SNPConfig(n_features=80, n_normal=120, n_anomaly=20, block_size=8,
                        ancestry_blocks=2, relevant_blocks=1)
        ds = make_snp_dataset(cfg, rng=3)
        xn = ds.normals().x
        ent = np.array([discrete_entropy(xn[:, j]) for j in range(ds.n_features)])
        ancestry = ds.metadata["ancestry_features"]
        background = np.setdiff1d(np.arange(ds.n_features), ancestry)
        assert ent[ancestry].mean() > ent[background].mean() + 0.2

    def test_ancestry_shift_in_anomalies(self):
        cfg = SNPConfig(n_features=80, n_normal=150, n_anomaly=60, block_size=8,
                        ancestry_blocks=3)
        ds = make_snp_dataset(cfg, rng=4)
        ancestry = ds.metadata["ancestry_features"]
        mean_n = ds.normals().x[:, ancestry].mean()
        mean_a = ds.anomalies().x[:, ancestry].mean()
        # Anomalous cohort comes from a low-minor-allele-frequency pool.
        assert mean_a < mean_n - 0.3

    def test_no_signal_config_matches_distributions(self):
        cfg = SNPConfig(n_features=48, n_normal=100, n_anomaly=100, block_size=8)
        ds = make_snp_dataset(cfg, rng=5)
        assert abs(ds.normals().x.mean() - ds.anomalies().x.mean()) < 0.08

    def test_missing_rate(self):
        cfg = SNPConfig(n_features=32, n_normal=40, n_anomaly=10, block_size=8,
                        missing_rate=0.05)
        ds = make_snp_dataset(cfg, rng=6)
        assert 0.02 < np.isnan(ds.x).mean() < 0.1

    def test_deterministic(self):
        cfg = SNPConfig(n_features=24, n_normal=20, n_anomaly=6, block_size=8)
        a, b = make_snp_dataset(cfg, rng=7), make_snp_dataset(cfg, rng=7)
        np.testing.assert_array_equal(a.x, b.x)


class TestModuleDisruptMode:
    CFG = ExpressionConfig(
        n_features=80, n_normal=30, n_anomaly=10, n_modules=5, module_size=10,
        disrupt_fraction=1 / 5, disrupt_mode="module",
    )

    def test_one_module_per_anomaly(self):
        ds = make_expression_dataset(self.CFG, rng=0)
        disrupted = ds.metadata["disrupted_modules"]
        assert len(disrupted) == 10
        assert all(len(mods) == 1 for mods in disrupted)

    def test_disrupted_features_are_the_disrupted_modules(self):
        ds = make_expression_dataset(self.CFG, rng=0)
        module_of = ds.metadata["module_of"]
        pairs = zip(ds.metadata["disrupted_features"], ds.metadata["disrupted_modules"])
        assert len(ds.metadata["disrupted_features"]) == self.CFG.n_anomaly
        for features, modules in pairs:
            np.testing.assert_array_equal(features, np.flatnonzero(np.isin(module_of, modules)))
            assert len(features) == len(modules) * self.CFG.module_size

    def test_module_fraction_rounds(self):
        cfg = ExpressionConfig(
            n_features=80, n_normal=20, n_anomaly=4, n_modules=5, module_size=10,
            disrupt_fraction=0.6, disrupt_mode="module",
        )
        ds = make_expression_dataset(cfg, rng=1)
        assert all(len(m) == 3 for m in ds.metadata["disrupted_modules"])

    def test_bad_mode(self):
        import pytest as _pytest

        with _pytest.raises(DataError):
            ExpressionConfig(
                n_features=80, n_normal=20, n_anomaly=4, disrupt_mode="pathway",
            )

    def test_scattered_mode_records_no_modules(self):
        cfg = ExpressionConfig(
            n_features=80, n_normal=20, n_anomaly=4, n_modules=5, module_size=10,
        )
        ds = make_expression_dataset(cfg, rng=2)
        assert ds.metadata["disrupted_modules"] == []
