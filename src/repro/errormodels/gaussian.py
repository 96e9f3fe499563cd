"""Gaussian residual error model for continuous features.

The paper: "Error models simply fit a Gaussian to the error distribution,
as again there is insufficient data to accurately learn a more detailed
model." The residual is ``truth - prediction``; its fitted density is
evaluated at the test residual, and the surprisal is the negative log of
that density (a *differential* surprisal, pairing with differential
entropy in the NS score).
"""

from __future__ import annotations

import numpy as np

from repro.errormodels.base import ErrorModel
from repro.utils.exceptions import FitError
from repro.utils.validation import check_consistent_length, check_fitted

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Floor on the fitted residual scale. A near-zero sigma (a feature that is
#: predicted essentially perfectly in CV) would make any test deviation
#: carry unbounded surprisal; the floor caps a single feature's influence,
#: mirroring the regularized error models of the original FRaC release.
SIGMA_FLOOR = 1e-6


class GaussianErrorModel(ErrorModel):
    """``truth - prediction ~ N(mu, sigma^2)``, fit by moments."""

    def __init__(self, sigma_floor: float = SIGMA_FLOOR) -> None:
        if not 0 < sigma_floor < np.inf:
            raise ValueError(f"sigma_floor must be positive and finite; got {sigma_floor}")
        self.sigma_floor = float(sigma_floor)
        self.mu_: "float | None" = None
        self.sigma_: "float | None" = None

    def fit(self, predictions: np.ndarray, truths: np.ndarray) -> "GaussianErrorModel":
        p, t = np.ravel(predictions), np.ravel(truths)
        check_consistent_length(p, t)
        (fitted,) = self.batch_fit(p[None], t[None], sigma_floor=self.sigma_floor)
        self.mu_, self.sigma_ = fitted.mu_, fitted.sigma_
        return self

    def surprisal(self, predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
        check_fitted(self, "sigma_")
        p, t = np.asarray(predictions), np.asarray(truths)
        return self.batch_surprisal([self], p[None], t[None])[0]

    @classmethod
    def batch_fit(
        cls,
        predictions: np.ndarray,
        truths: np.ndarray,
        *,
        sigma_floor: float = SIGMA_FLOOR,
    ) -> "list[GaussianErrorModel]":
        """Fit one model per row of stacked ``(k, n)`` holdout pairs.

        Bitwise equal to the per-row reference fit
        (``tests/errormodels/reference.py``): the residual subtraction is
        elementwise, and contiguous-row ``mean(axis=1)`` / ``std(axis=1)``
        replay each row's 1-D pairwise reductions. Any non-finite residual
        raises :class:`FitError` for the whole batch.
        """
        predictions = np.ascontiguousarray(np.asarray(predictions, dtype=np.float64))
        truths = np.ascontiguousarray(np.asarray(truths, dtype=np.float64))
        if predictions.shape != truths.shape or predictions.ndim != 2:
            raise FitError(
                f"batch_fit needs matching (k, n) stacks; got "
                f"{predictions.shape} vs {truths.shape}"
            )
        if predictions.shape[1] == 0:
            raise FitError("cannot fit a Gaussian error model on zero holdout pairs")
        resid = truths - predictions
        if not np.isfinite(resid).all():
            raise FitError("holdout residuals contain non-finite values")
        mus = resid.mean(axis=1)
        sigmas = resid.std(axis=1)
        models = []
        for mu, sigma in zip(mus, sigmas):
            model = cls(sigma_floor=sigma_floor)
            model.mu_ = float(mu)
            model.sigma_ = float(max(float(sigma), model.sigma_floor))
            models.append(model)
        return models

    @classmethod
    def batch_surprisal(
        cls, models: "list[GaussianErrorModel]", predictions: np.ndarray, truths: np.ndarray
    ) -> np.ndarray:
        """Surprisal of member-major ``(k, n)`` stacks: row ``j`` is ``models[j]``'s.

        Bitwise equal, row by row, to the per-model reference surprisal
        (``tests/errormodels/reference.py``): broadcasting per-model column
        scalars through the elementwise ops replays its float sequence
        exactly (each element sees the same operands in the same order).
        The result is C-contiguous, so ``.mean(axis=1)`` runs each row's
        1-D pairwise kernel, as the reference's ``surprisal(...).mean()``
        does. The one op that is *not* broadcast is ``np.log(sigma)``:
        numpy's SIMD log over a vector of sigmas is not guaranteed
        bit-identical to the scalar ``np.log`` of one sigma, so the log of
        each sigma is taken as a scalar and only then assembled.
        """
        for model in models:
            check_fitted(model, "sigma_")
        predictions = np.ascontiguousarray(np.asarray(predictions, dtype=np.float64))
        truths = np.ascontiguousarray(np.asarray(truths, dtype=np.float64))
        mu = np.array([model.mu_ for model in models])[:, None]
        sigma = np.array([model.sigma_ for model in models])[:, None]
        # Positive by construction: fit() floors sigma_ at sigma_floor,
        # which __init__ validates to be > 0.
        log_sigma = np.array([np.log(model.sigma_) for model in models])[:, None]  # fraclint: disable=FRL003
        z = (truths - predictions - mu) / sigma
        return 0.5 * z * z + log_sigma + 0.5 * _LOG_2PI

    @property
    def model_nbytes(self) -> int:
        return 16
