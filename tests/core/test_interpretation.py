"""Tests for interpretability reports."""

import numpy as np
import pytest

from repro.core.frac import FRaC
from repro.core.interpretation import (
    FeatureContribution,
    explain_samples,
    jl_feature_attribution,
)
from repro.core.preprojection import JLFRaC
from repro.core.types import ContributionMatrix
from repro.utils.exceptions import DataError


def _cm(values, ids):
    return ContributionMatrix(
        values=np.asarray(values, dtype=float),
        feature_ids=np.asarray(ids, dtype=np.intp),
    )


class TestExplainSamples:
    def test_orders_by_contribution(self):
        cm = _cm([[1.0, 5.0, -2.0]], [0, 1, 2])
        (exp,) = explain_samples(cm, n_top=3)
        assert [fc.feature_id for fc in exp.top_features] == [1, 0, 2]
        assert exp.ns_score == pytest.approx(4.0)

    def test_shares_sum_over_positive(self):
        cm = _cm([[1.0, 3.0, -2.0]], [0, 1, 2])
        (exp,) = explain_samples(cm, n_top=3)
        shares = {fc.feature_id: fc.share for fc in exp.top_features}
        assert shares[1] == pytest.approx(0.75)
        assert shares[0] == pytest.approx(0.25)
        assert shares[2] == 0.0

    def test_slots_summed_per_feature(self):
        cm = _cm([[1.0, 2.0, 10.0]], [4, 4, 7])
        (exp,) = explain_samples(cm, n_top=2)
        by_id = {fc.feature_id: fc.contribution for fc in exp.top_features}
        assert by_id[4] == pytest.approx(3.0)
        assert by_id[7] == pytest.approx(10.0)

    def test_feature_names_used(self):
        cm = _cm([[2.0, 1.0]], [0, 1])
        (exp,) = explain_samples(cm, n_top=1, feature_names=["BRCA1", "TP53"])
        assert exp.top_features[0].feature_name == "BRCA1"
        assert "BRCA1" in str(exp)

    def test_n_top_capped(self):
        cm = _cm([[1.0, 2.0]], [0, 1])
        (exp,) = explain_samples(cm, n_top=10)
        assert len(exp.top_features) == 2

    def test_bad_n_top(self):
        with pytest.raises(DataError):
            explain_samples(_cm([[1.0]], [0]), n_top=0)

    def test_disrupted_features_explain_anomaly(self, expression_dataset, fast_config):
        """The explanation must point at the planted signal."""
        ds = expression_dataset
        frac = FRaC(fast_config, rng=0).fit(ds.normals().x, ds.schema)
        cm = frac.contributions(ds.anomalies().x[:5])
        explanations = explain_samples(cm, n_top=5)
        relevant = set(ds.metadata["relevant_features"].tolist())
        hits = [
            np.mean([fc.feature_id in relevant for fc in e.top_features])
            for e in explanations
        ]
        assert np.mean(hits) > 0.7


class TestJLAttribution:
    def test_shape_and_conservation(self, expression_replicate, fast_config):
        rep = expression_replicate
        det = JLFRaC(n_components=8, config=fast_config, rng=0)
        det.fit(rep.x_train, rep.schema)
        attr = jl_feature_attribution(det, rep.x_test)
        assert attr.shape == (rep.n_test, rep.n_features)
        assert (attr >= 0).all()
        # Row totals equal each sample's positive component contributions.
        cm = det.contributions(rep.x_test)
        positive_totals = np.maximum(cm.values, 0).sum(axis=1)
        np.testing.assert_allclose(attr.sum(axis=1), positive_totals, rtol=1e-8)
