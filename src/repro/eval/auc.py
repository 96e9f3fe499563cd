"""ROC / AUC evaluation (Spackman 1989), the paper's accuracy metric.

AUC is computed in the Mann-Whitney (rank) form with midranks for ties:
the probability that a uniformly random anomalous sample scores above a
uniformly random normal one, counting ties as half.
"""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import DataError


def _validate(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels).ravel()
    if labels.dtype != bool:
        if labels.dtype.kind not in "iuf":
            raise DataError(f"labels must be boolean or 0/1; got dtype {labels.dtype}")
        bad = ~np.isin(labels, (0, 1))
        if bad.any():
            raise DataError(
                f"labels must be boolean or 0/1; got {np.unique(labels[bad])[:5].tolist()}"
            )
        labels = labels.astype(bool)
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if labels.shape != scores.shape:
        raise DataError(
            f"labels {labels.shape} and scores {scores.shape} differ in length"
        )
    if not np.isfinite(scores).all():
        raise DataError("scores contain non-finite values")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise DataError(
            "AUC needs at least one anomalous and one normal sample; "
            f"got {n_pos} of {len(labels)}"
        )
    return labels, scores


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of ``scores``, each tie run given its mean rank.

    A run occupying sorted positions ``start .. end - 1`` gets rank
    ``(start + end + 1) / 2``: an exact half-integer, so these equal
    ``scipy.stats.rankdata(scores, method="average")`` bit for bit.
    """
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(scores))
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve; higher scores should mark anomalies."""
    labels, scores = _validate(labels, scores)
    ranks = _midranks(scores)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def roc_curve(
    labels: np.ndarray, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, thresholds), descending thresholds, one per unique score.

    The piecewise-linear curve through these points integrates (by the
    trapezoid rule) to exactly :func:`auc_score`.
    """
    labels, scores = _validate(labels, scores)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # Collapse threshold ties: take the last index of each distinct score.
    distinct = np.flatnonzero(np.diff(sorted_scores)) if len(sorted_scores) > 1 else np.array([], dtype=np.intp)
    idx = np.concatenate([distinct, [len(sorted_scores) - 1]])
    tp = np.cumsum(sorted_labels)[idx]
    fp = np.cumsum(~sorted_labels)[idx]
    tpr = np.concatenate([[0.0], tp / labels.sum()])
    fpr = np.concatenate([[0.0], fp / (~labels).sum()])
    thresholds = np.concatenate([[np.inf], sorted_scores[idx]])
    return fpr, tpr, thresholds


def auc_from_curve(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Trapezoid-rule area under an ROC curve."""
    return float(np.trapezoid(tpr, fpr))
