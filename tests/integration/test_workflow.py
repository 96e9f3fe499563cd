"""A realistic downstream workflow: CSV in -> train -> persist -> explain.

Exercises the integration surface a real adopter would touch, end to end:
loading their own delimited data, training a variant, saving the fitted
detector, reloading it in a "different process" (fresh namespace), scoring
new samples, checking the AUC, and producing an explanation.
"""

import numpy as np
import pytest

from repro import FRaCConfig, FilteredFRaC, load_detector, save_detector
from repro.core import explain_samples
from repro.data import make_expression_dataset, ExpressionConfig, read_delimited, write_delimited
from repro.eval import auc_score


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    cfg = ExpressionConfig(
        n_features=30, n_normal=40, n_anomaly=12, n_modules=3, module_size=8,
        disrupt_fraction=0.6, name="cohort",
    )
    source = make_expression_dataset(cfg, rng=5)
    path = tmp_path_factory.mktemp("cohort") / "cohort.csv"
    write_delimited(source, path)
    # The CSV round trip deliberately loses generator metadata; keep the
    # planted ground truth separately, as a real study would its annotations.
    return path, set(source.metadata["relevant_features"].tolist())


class TestAdoptionWorkflow:
    def test_full_cycle(self, cohort, tmp_path):
        cohort_csv, relevant = cohort
        # 1. Load the user's data.
        ds = read_delimited(
            cohort_csv, label_column="label", anomaly_values={"1"},
            real=[f"f{i}" for i in range(30)],
        )
        assert ds.n_features == 30 and ds.n_anomaly == 12

        # 2. Train a scalable variant on normals only.
        det = FilteredFRaC(p=0.5, config=FRaCConfig.fast(), rng=0)
        det.fit(ds.normals().x, ds.schema)

        # 3. Persist, then reload and verify scoring equivalence.
        artifact = tmp_path / "detector.pkl"
        save_detector(det, artifact, schema=ds.schema)
        loaded, _ = load_detector(artifact, expected_schema=ds.schema)
        scores = loaded.score(ds.x)
        np.testing.assert_array_equal(scores, det.score(ds.x))

        # 4. The detector finds the planted anomalies.
        assert auc_score(ds.is_anomaly, scores) > 0.8

        # 5. Explanations point at planted-module features.
        cm = loaded.contributions(ds.anomalies().x[:3])
        explanations = explain_samples(cm, n_top=5, feature_names=ds.schema.names())
        hit_rates = [
            np.mean([fc.feature_id in relevant for fc in e.top_features])
            for e in explanations
        ]
        assert np.mean(hit_rates) > 0.6
