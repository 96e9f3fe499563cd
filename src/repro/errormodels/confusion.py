"""Confusion-matrix error model for categorical features.

Counts holdout (prediction, truth) pairs into an ``arity x arity`` matrix
with additive (Laplace) smoothing; ``P(truth | prediction)`` is the
row-normalized count. Smoothing keeps every cell strictly positive, so
surprisal is always finite — an unseen (prediction, truth) combination is
*very* surprising, not infinitely so, matching the original FRaC release.
"""

from __future__ import annotations

import numpy as np

from repro.errormodels.base import ErrorModel
from repro.utils.exceptions import DataError, FitError
from repro.utils.validation import check_consistent_length, check_fitted


class ConfusionErrorModel(ErrorModel):
    """Smoothed confusion matrix over ``arity`` categories.

    Parameters
    ----------
    arity:
        Number of categories of the modelled feature.
    smoothing:
        Additive pseudo-count per cell (must be positive).
    """

    def __init__(self, arity: int, smoothing: float = 1.0) -> None:
        if arity < 2:
            raise DataError(f"arity must be >= 2; got {arity}")
        if smoothing <= 0:
            raise DataError(f"smoothing must be positive; got {smoothing}")
        self.arity = int(arity)
        self.smoothing = float(smoothing)
        self.log_prob_: "np.ndarray | None" = None  # (arity, arity): [pred, truth]
        self.counts_: "np.ndarray | None" = None

    def _codes(self, values: np.ndarray, name: str) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64).ravel()
        codes = np.rint(arr).astype(np.intp)
        # A prediction is produced by a classifier over the same codes, so
        # out-of-range values indicate a wiring bug, not bad data.
        if codes.size and (codes.min() < 0 or codes.max() >= self.arity):
            raise DataError(f"{name} contains codes outside [0, {self.arity})")
        return codes

    def fit(self, predictions: np.ndarray, truths: np.ndarray) -> "ConfusionErrorModel":
        pred = self._codes(predictions, "predictions")
        true = self._codes(truths, "truths")
        check_consistent_length(pred, true)
        if pred.size == 0:
            raise FitError("cannot fit a confusion error model on zero holdout pairs")
        counts = np.zeros((self.arity, self.arity), dtype=np.float64)
        np.add.at(counts, (pred, true), 1.0)
        self.counts_ = counts
        smoothed = counts + self.smoothing
        # Positive by construction: every cell is counts + smoothing with
        # smoothing validated > 0 in __init__, so each ratio is in (0, 1].
        self.log_prob_ = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))  # fraclint: disable=FRL003
        return self

    def surprisal(self, predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
        check_fitted(self, "log_prob_")
        pred = self._codes(predictions, "predictions")
        true = self._codes(truths, "truths")
        return -self.log_prob_[pred, true]

    @classmethod
    def batch_fit(
        cls,
        predictions: np.ndarray,
        truths: np.ndarray,
        arities: "list[int]",
        *,
        smoothing: float = 1.0,
    ) -> "list[ConfusionErrorModel]":
        """Fit one model per row of stacked ``(k, n)`` holdout pairs.

        Bitwise equal to ``ConfusionErrorModel(arities[j], smoothing).fit``
        on row ``j``: one ``bincount`` counts every member's (prediction,
        truth) pairs (exact small integers), the smoothing and the row
        normalization are elementwise and length-``arity`` row sums, and
        ``np.log`` runs per member on the ``(arity, arity)`` table the
        scalar fit logs, so no SIMD lane layout can move a bit.
        """
        models = [cls(arity, smoothing=smoothing) for arity in arities]
        predictions = np.asarray(predictions, dtype=np.float64)
        truths = np.asarray(truths, dtype=np.float64)
        if predictions.shape != truths.shape or predictions.shape[:1] != (len(models),):
            raise FitError(
                f"batch_fit needs matching ({len(models)}, n) stacks; got "
                f"{predictions.shape} vs {truths.shape}"
            )
        if predictions.shape[1] == 0:
            raise FitError("cannot fit a confusion error model on zero holdout pairs")
        arity = np.array([model.arity for model in models])
        width = int(arity.max())
        codes = []
        for name, values in (("predictions", predictions), ("truths", truths)):
            rounded = np.rint(values).astype(np.intp)
            if (rounded < 0).any() or (rounded >= arity[:, None]).any():
                raise DataError(f"{name} contains codes outside [0, arity)")
            codes.append(rounded)
        pred, true = codes
        cells = (np.arange(len(models))[:, None] * width + pred) * width + true
        counts = np.bincount(cells.ravel(), minlength=len(models) * width * width)
        counts = counts.reshape(len(models), width, width).astype(np.float64)
        for a in np.unique(arity):
            members = np.flatnonzero(arity == a)
            block = np.ascontiguousarray(counts[members, :a, :a])
            smoothed = block + smoothing
            ratio = smoothed / smoothed.sum(axis=2, keepdims=True)
            for j, table, probs in zip(members, block, ratio):
                models[j].counts_ = table
                # Positive by construction: smoothing > 0 in every cell.
                models[j].log_prob_ = np.log(probs)  # fraclint: disable=FRL003
        return models

    @classmethod
    def batch_mean_surprisal(
        cls, models: "list[ConfusionErrorModel]", predictions: np.ndarray, truths: np.ndarray
    ) -> np.ndarray:
        """Row-wise mean surprisal of stacked ``(k, n)`` pairs.

        Bitwise equal to ``models[j].surprisal(p_row, t_row).mean()``: the
        surprisal is a table gather (tables of smaller arity are zero
        padded; valid codes never read the padding), and the mean of a
        contiguous row runs the 1-D pairwise kernel.
        """
        for model in models:
            check_fitted(model, "log_prob_")
        width = max(model.arity for model in models)
        tables = np.zeros((len(models), width, width))
        for j, model in enumerate(models):
            tables[j, : model.arity, : model.arity] = model.log_prob_
        pred = np.rint(np.asarray(predictions, dtype=np.float64)).astype(np.intp)
        true = np.rint(np.asarray(truths, dtype=np.float64)).astype(np.intp)
        arity = np.array([model.arity for model in models])[:, None]
        for name, codes in (("predictions", pred), ("truths", true)):
            if (codes < 0).any() or (codes >= arity).any():
                raise DataError(f"{name} contains codes outside [0, arity)")
        surprisal = -tables[np.arange(len(models))[:, None], pred, true]
        return surprisal.mean(axis=1)

    @classmethod
    def batch_surprisal(
        cls, models: "list[ConfusionErrorModel]", predictions: np.ndarray, truths: np.ndarray
    ) -> np.ndarray:
        """Vectorized column-wise surprisal, bitwise equal to the scalar path.

        Surprisal here is a pure table gather (code rounding + advanced
        indexing, no float arithmetic), so stacking the ``log_prob_``
        tables and gathering once is trivially bit-identical. Mixed-arity
        groups fall back to the per-column base implementation — their
        tables cannot stack.
        """
        if not models or any(m.arity != models[0].arity for m in models):
            return super().batch_surprisal(models, predictions, truths)
        for model in models:
            check_fitted(model, "log_prob_")
        arity = models[0].arity
        pred = np.rint(np.asarray(predictions, dtype=np.float64)).astype(np.intp)
        true = np.rint(np.asarray(truths, dtype=np.float64)).astype(np.intp)
        for name, codes in (("predictions", pred), ("truths", true)):
            if codes.size and (codes.min() < 0 or codes.max() >= arity):
                raise DataError(f"{name} contains codes outside [0, {arity})")
        tables = np.stack([model.log_prob_ for model in models])  # (k, arity, arity)
        return -tables[np.arange(len(models)), pred, true]

    @property
    def model_nbytes(self) -> int:
        return 0 if self.log_prob_ is None else int(self.log_prob_.nbytes)
