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
        if not 0 < smoothing < np.inf:
            raise DataError(f"smoothing must be positive and finite; got {smoothing}")
        self.arity = int(arity)
        self.smoothing = float(smoothing)
        self.log_prob_: "np.ndarray | None" = None  # (arity, arity): [pred, truth]
        self.counts_: "np.ndarray | None" = None

    def fit(self, predictions: np.ndarray, truths: np.ndarray) -> "ConfusionErrorModel":
        p, t = np.ravel(predictions), np.ravel(truths)
        check_consistent_length(p, t)
        (fitted,) = self.batch_fit(p[None], t[None], [self.arity], smoothing=self.smoothing)
        self.counts_, self.log_prob_ = fitted.counts_, fitted.log_prob_
        return self

    def surprisal(self, predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
        check_fitted(self, "log_prob_")
        p, t = np.ravel(predictions), np.ravel(truths)
        return self.batch_surprisal([self], p[None], t[None])[0]

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

        Bitwise equal to the per-row reference fit
        (``tests/errormodels/reference.py``) of row ``j`` at
        ``arities[j]``: one ``bincount`` counts every member's (prediction,
        truth) pairs (exact small integers), the smoothing and the row
        normalization are elementwise and length-``arity`` row sums, and
        ``np.log`` runs per member on the ``(arity, arity)`` table the
        reference logs, so no SIMD lane layout can move a bit.
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
    def batch_surprisal(
        cls, models: "list[ConfusionErrorModel]", predictions: np.ndarray, truths: np.ndarray
    ) -> np.ndarray:
        """Surprisal of member-major ``(k, n)`` stacks: row ``j`` is ``models[j]``'s.

        Bitwise equal, row by row, to the per-model reference surprisal
        (``tests/errormodels/reference.py``): surprisal is a pure table
        gather (code rounding + advanced indexing, no float arithmetic),
        here from the members' ``log_prob_`` tables zero padded to the
        widest arity (valid codes never read the padding). The gathered
        stack is C-contiguous, so ``.mean(axis=1)`` runs each row's 1-D
        pairwise kernel.
        """
        for model in models:
            check_fitted(model, "log_prob_")
        arity = np.array([model.arity for model in models])
        width = int(arity.max())
        tables = np.zeros((len(models), width, width))
        for j, model in enumerate(models):
            tables[j, : model.arity, : model.arity] = model.log_prob_
        pred = np.rint(np.asarray(predictions, dtype=np.float64)).astype(np.intp)
        true = np.rint(np.asarray(truths, dtype=np.float64)).astype(np.intp)
        for name, codes in (("predictions", pred), ("truths", true)):
            if (codes < 0).any() or (codes >= arity[:, None]).any():
                raise DataError(f"{name} contains codes outside [0, arity)")
        return -tables[np.arange(len(models))[:, None], pred, true]

    @property
    def model_nbytes(self) -> int:
        return 0 if self.log_prob_ is None else int(self.log_prob_.nbytes)
