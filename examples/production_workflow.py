#!/usr/bin/env python
"""A production deployment loop: CSV in, persisted detector, explanations.

This is the path a clinical-research group would actually take:

1. load their cohort from a delimited file (``repro.data.read_delimited``);
2. train a scalable FRaC variant on the healthy samples;
3. persist the fitted detector (``repro.persistence``) so scoring nodes
   never retrain;
4. score incoming samples, check the AUC on a labelled validation slice,
   and emit per-sample molecular explanations.

Run:  python examples/production_workflow.py        (~30 seconds)
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import FRaCConfig, FilteredFRaC, load_detector, save_detector
from repro.core import explain_samples
from repro.data import ExpressionConfig, make_expression_dataset, read_delimited, write_delimited
from repro.eval import auc_score


def make_cohort_csv(path: Path) -> None:
    """Stand-in for the user's assay export."""
    cfg = ExpressionConfig(
        n_features=60, n_normal=70, n_anomaly=15, n_modules=4, module_size=11,
        disrupt_fraction=0.5, name="cohort",
    )
    write_delimited(make_expression_dataset(cfg, rng=3), path)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-demo-"))
    csv_path = workdir / "cohort.csv"
    make_cohort_csv(csv_path)

    # -- 1. load ------------------------------------------------------------
    cohort = read_delimited(csv_path, label_column="label", anomaly_values={"1"})
    print(f"Loaded {cohort} from {csv_path.name}")

    # -- 2. train on healthy samples only ------------------------------------
    detector = FilteredFRaC(p=0.4, config=FRaCConfig(), rng=0)
    detector.fit(cohort.normals().x, cohort.schema)
    print(
        f"Trained random-filter FRaC: {detector.resources.n_tasks} models, "
        f"{detector.resources.cpu_seconds:.1f}s cpu"
    )

    # -- 3. persist + reload --------------------------------------------------
    artifact = workdir / "detector.pkl"
    save_detector(detector, artifact, schema=cohort.schema,
                  metadata={"trained_on": cohort.name})
    scoring_node, meta = load_detector(artifact, expected_schema=cohort.schema)
    print(f"Persisted to {artifact.name} ({artifact.stat().st_size / 1e3:.0f} kB), "
          f"metadata: {meta}")

    # -- 4. score + AUC + explanation ------------------------------------------
    scores = scoring_node.score(cohort.x)
    print(f"\nValidation AUC {auc_score(cohort.is_anomaly, scores):.3f}")

    flagged = np.argsort(-scores)[:3]
    contributions = scoring_node.contributions(cohort.x[flagged])
    print("\nTop flagged samples and their molecular explanations:")
    for rank, explanation in enumerate(
        explain_samples(contributions, n_top=4, feature_names=cohort.schema.names())
    ):
        label = "anomaly" if cohort.is_anomaly[flagged[rank]] else "normal"
        print(f"  #{flagged[rank]} ({label}): {explanation}")


if __name__ == "__main__":
    main()
