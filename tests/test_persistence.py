"""Tests for detector persistence."""

from pathlib import Path

import numpy as np
import pytest

from repro import FRaC, FRaCConfig, random_filter_ensemble
from repro.data.schema import FeatureSchema
from repro.persistence import (
    PersistenceError,
    load_detector,
    save_detector,
    schema_digest,
)


class TestSchemaDigest:
    def test_stable(self):
        a = schema_digest(FeatureSchema.all_real(5))
        b = schema_digest(FeatureSchema.all_real(5))
        assert a == b

    def test_differs_by_kind(self):
        assert schema_digest(FeatureSchema.all_real(3)) != schema_digest(
            FeatureSchema.all_categorical(3)
        )

    def test_differs_by_width(self):
        assert schema_digest(FeatureSchema.all_real(3)) != schema_digest(
            FeatureSchema.all_real(4)
        )


class TestSaveLoad:
    def test_round_trip_scores_identical(self, tmp_path, expression_replicate, fast_config):
        rep = expression_replicate
        frac = FRaC(fast_config, rng=0).fit(rep.x_train, rep.schema)
        expected = frac.score(rep.x_test)

        p = tmp_path / "frac.pkl"
        save_detector(frac, p, schema=rep.schema, metadata={"dataset": rep.name})
        loaded, meta = load_detector(p, expected_schema=rep.schema)
        np.testing.assert_array_equal(loaded.score(rep.x_test), expected)
        assert meta["dataset"] == rep.name

    def test_ensemble_round_trip(self, tmp_path, expression_replicate, fast_config):
        rep = expression_replicate
        ens = random_filter_ensemble(p=0.3, n_members=2, config=fast_config, rng=1)
        ens.fit(rep.x_train, rep.schema)
        expected = ens.score(rep.x_test)
        p = tmp_path / "ens.pkl"
        save_detector(ens, p, schema=rep.schema)
        loaded, _ = load_detector(p)
        np.testing.assert_array_equal(loaded.score(rep.x_test), expected)

    def test_schema_mismatch_rejected(self, tmp_path, expression_replicate, fast_config):
        rep = expression_replicate
        frac = FRaC(fast_config, rng=0).fit(rep.x_train, rep.schema)
        p = tmp_path / "frac.pkl"
        save_detector(frac, p, schema=rep.schema)
        with pytest.raises(PersistenceError, match="different feature schema"):
            load_detector(p, expected_schema=FeatureSchema.all_real(3))

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no such artifact"):
            load_detector(tmp_path / "nope.pkl")

    def test_garbage_file_rejected_before_unpickling(self, tmp_path):
        p = tmp_path / "garbage.pkl"
        p.write_bytes(b"\x80\x04not a detector artifact at all" * 20)
        with pytest.raises(PersistenceError, match="does not look like"):
            load_detector(p)

    def test_no_schema_recorded_loads_anyway(self, tmp_path, expression_replicate, fast_config):
        rep = expression_replicate
        frac = FRaC(fast_config, rng=0).fit(rep.x_train, rep.schema)
        p = tmp_path / "frac.pkl"
        save_detector(frac, p)
        loaded, _ = load_detector(p, expected_schema=rep.schema)
        assert loaded is not None


class TestSavedDetectorsStillLoad:
    FIXTURES = Path(__file__).parent / "fixtures"

    def test_trees_with_retired_options_score_identically(self, snp_replicate):
        """A detector saved at commit 3db2ab8, whose trees still carry the
        since-retired ``max_features`` and ``seed`` attributes, loads and
        scores the NS values it scored when it was saved.

        Both files were written at that commit, from the repository root::

            PYTHONPATH=src python - <<'EOF'
            import numpy as np
            from repro import FRaC, FRaCConfig
            from repro.data.replicates import make_replicate
            from repro.data.synthetic import SNPConfig, make_snp_dataset
            from repro.persistence import save_detector
            cfg = SNPConfig(n_features=48, n_normal=60, n_anomaly=20, block_size=6,
                            n_haplotypes=4, relevant_blocks=5, name="snp-test")
            rep = make_replicate(make_snp_dataset(cfg, rng=11), rng=5)
            frac = FRaC(FRaCConfig.fast(), rng=0).fit(rep.x_train, rep.schema)
            save_detector(frac, "tests/fixtures/tree_detector_v1.pkl", schema=rep.schema)
            np.save("tests/fixtures/tree_detector_v1_scores.npy", frac.score(rep.x_test))
            EOF

        ``snp_replicate`` is the same replicate.
        """
        rep = snp_replicate
        loaded, _ = load_detector(
            self.FIXTURES / "tree_detector_v1.pkl", expected_schema=rep.schema
        )
        tree = loaded.models_[0].predictor
        assert tree.seed is not None and tree.max_features is None
        expected = np.load(self.FIXTURES / "tree_detector_v1_scores.npy")
        assert np.array_equal(loaded.score(rep.x_test), expected)
