"""Interpretability reports.

"It is not enough to determine that a sample is anomalous; we also want to
derive a molecular characterization of that specific anomaly" (paper §I).
Because NS is a per-feature sum, FRaC is directly interpretable: this
module turns contribution matrices into structured per-sample reports.

For the JL variant, projected components are linear mixes of original
features; :func:`jl_feature_attribution` pushes component contributions
back through the projection weights (the paper's §II-D aggregate-output
workaround).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.preprojection import JLFRaC
from repro.core.types import ContributionMatrix
from repro.utils.exceptions import DataError


@dataclass(frozen=True)
class FeatureContribution:
    """One feature's share of one sample's anomaly score."""

    feature_id: int
    feature_name: str
    contribution: float
    share: float  # fraction of the sample's total positive contribution


@dataclass(frozen=True)
class SampleExplanation:
    """Why one sample scored the way it did."""

    sample_index: int
    ns_score: float
    top_features: tuple[FeatureContribution, ...]

    def __str__(self) -> str:
        parts = ", ".join(
            f"{fc.feature_name} ({fc.contribution:+.2f})" for fc in self.top_features
        )
        return f"sample {self.sample_index}: NS={self.ns_score:.2f}; top: {parts}"


def explain_samples(
    contributions: ContributionMatrix,
    *,
    n_top: int = 10,
    feature_names: "Sequence[str] | None" = None,
) -> list[SampleExplanation]:
    """Per-sample explanations from a contribution matrix.

    Contributions from multiple predictor slots of the same feature are
    summed first (the NS ``j``-sum); features are then ranked by their
    summed contribution, largest (most surprising) first.
    """
    if n_top < 1:
        raise DataError(f"n_top must be >= 1; got {n_top}")
    unique_ids = np.unique(contributions.feature_ids)
    per_feature = np.zeros((contributions.n_samples, len(unique_ids)))
    for t, fid in enumerate(contributions.feature_ids):
        col = int(np.searchsorted(unique_ids, fid))
        per_feature[:, col] += contributions.values[:, t]

    def name_of(fid: int) -> str:
        if feature_names is not None and 0 <= fid < len(feature_names):
            return feature_names[fid]
        return f"f{fid}"

    out = []
    for s in range(contributions.n_samples):
        row = per_feature[s]
        order = np.argsort(-row)[:n_top]
        positive_total = float(row[row > 0].sum()) or 1.0
        top = tuple(
            FeatureContribution(
                feature_id=int(unique_ids[c]),
                feature_name=name_of(int(unique_ids[c])),
                contribution=float(row[c]),
                share=float(max(row[c], 0.0) / positive_total),
            )
            for c in order
        )
        out.append(
            SampleExplanation(
                sample_index=s, ns_score=float(row.sum()), top_features=top
            )
        )
    return out


def jl_feature_attribution(
    detector: JLFRaC, x_test: np.ndarray, *, n_top: int = 10
) -> np.ndarray:
    """Per-original-feature attribution for JL pre-projection FRaC.

    Each projected component's per-sample contribution is distributed over
    original features proportionally to the component's absolute
    projection weights (aggregated over categorical one-hot columns).
    Returns an ``(n_samples, n_original_features)`` attribution matrix
    whose rows sum to each sample's total positive NS contribution.
    """
    cm = detector.contributions(x_test)
    matrix = np.abs(detector.projection_.matrix_)  # (k, d_onehot)
    weights = matrix / np.maximum(matrix.sum(axis=1, keepdims=True), 1e-300)
    positive = np.maximum(cm.values, 0.0)  # (n, k) over components
    encoded_attr = positive @ weights[cm.feature_ids]  # (n, d_onehot)
    encoder = detector._encoder
    out = np.zeros((encoded_attr.shape[0], len(encoder.schema)))
    for j, (start, stop) in enumerate(encoder.column_spans):
        out[:, j] = encoded_attr[:, start:stop].sum(axis=1)
    return out
