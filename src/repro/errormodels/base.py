"""Error-model interface.

FRaC converts a predictor's output into a probability of the *observed*
value via an error model estimated from cross-validation (prediction,
truth) pairs: a Gaussian over residuals for continuous features, a
confusion matrix for categorical ones (paper §I-A1). The quantity FRaC
consumes is the *surprisal* ``-log P(truth | prediction)``; natural
logarithms are used everywhere in this library (entropies included), so
surprisal and entropy subtract coherently in the NS score.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class ErrorModel(ABC):
    """Estimates ``P(observed value | predicted value)``.

    Each concrete model computes its surprisal once, in
    :meth:`batch_surprisal` over member-major stacks; :meth:`surprisal` is
    that call on a batch of one. The per-model reference bodies the batch
    forms are held to, bit for bit, are the test oracles in
    ``tests/errormodels/reference.py``.
    """

    @abstractmethod
    def fit(self, predictions: np.ndarray, truths: np.ndarray) -> "ErrorModel":
        """Fit from holdout (prediction, truth) pairs."""

    @abstractmethod
    def surprisal(self, predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
        """``-ln P(truth_i | prediction_i)`` per element (vectorized)."""

    @classmethod
    @abstractmethod
    def batch_surprisal(
        cls, models: "list[ErrorModel]", predictions: np.ndarray, truths: np.ndarray
    ) -> np.ndarray:
        """Surprisal of a group of fitted models, member-major.

        ``predictions`` and ``truths`` are ``(k, n)`` stacks whose row
        ``j`` belongs to ``models[j]``; row ``j`` of the C-contiguous
        result is ``-ln P(truths[j] | predictions[j])`` under
        ``models[j]``.
        """

    @property
    def model_nbytes(self) -> int:
        """Approximate bytes of fitted state (resource-model hook)."""
        return 0
