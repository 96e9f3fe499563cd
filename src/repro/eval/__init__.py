"""Evaluation: AUC, replicate harness, and enrichment statistics."""

from repro.eval.auc import auc_from_curve, auc_score, roc_curve
from repro.eval.harness import (
    DetectorFactory,
    EvaluationResult,
    evaluate_on_replicates,
)
from repro.eval.stats import (
    MeanStd,
    enrichment_of_top_models,
    hypergeom_enrichment,
    mean_std,
)

__all__ = [
    "auc_score",
    "roc_curve",
    "auc_from_curve",
    "EvaluationResult",
    "DetectorFactory",
    "evaluate_on_replicates",
    "MeanStd",
    "mean_std",
    "hypergeom_enrichment",
    "enrichment_of_top_models",
]
