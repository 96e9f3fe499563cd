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
        if sigma_floor <= 0:
            raise ValueError(f"sigma_floor must be positive; got {sigma_floor}")
        self.sigma_floor = float(sigma_floor)
        self.mu_: "float | None" = None
        self.sigma_: "float | None" = None

    def fit(self, predictions: np.ndarray, truths: np.ndarray) -> "GaussianErrorModel":
        predictions = np.asarray(predictions, dtype=np.float64).ravel()
        truths = np.asarray(truths, dtype=np.float64).ravel()
        check_consistent_length(predictions, truths)
        if predictions.size == 0:
            raise FitError("cannot fit a Gaussian error model on zero holdout pairs")
        resid = truths - predictions
        if not np.isfinite(resid).all():
            raise FitError("holdout residuals contain non-finite values")
        self.mu_ = float(resid.mean())
        self.sigma_ = float(max(resid.std(), self.sigma_floor))
        return self

    def surprisal(self, predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
        check_fitted(self, "sigma_")
        predictions = np.asarray(predictions, dtype=np.float64)
        truths = np.asarray(truths, dtype=np.float64)
        z = (truths - predictions - self.mu_) / self.sigma_
        # Positive by construction: fit() floors sigma_ at sigma_floor,
        # which __init__ validates to be > 0.
        return 0.5 * z * z + np.log(self.sigma_) + 0.5 * _LOG_2PI  # fraclint: disable=FRL003

    @classmethod
    def batch_fit(
        cls,
        predictions: np.ndarray,
        truths: np.ndarray,
        *,
        sigma_floor: float = SIGMA_FLOOR,
    ) -> "list[GaussianErrorModel]":
        """Fit one model per row of stacked ``(k, n)`` holdout pairs.

        Bitwise equal to fitting each row through :meth:`fit`: the
        residual subtraction is elementwise, and contiguous-row
        ``mean(axis=1)`` / ``std(axis=1)`` replay each row's 1-D pairwise
        reductions. Any non-finite residual raises the same
        :class:`FitError` the scalar path would, for the whole batch.
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
    def batch_mean_surprisal(
        cls,
        models: "list[GaussianErrorModel]",
        predictions: np.ndarray,
        truths: np.ndarray,
    ) -> np.ndarray:
        """Row-wise mean surprisal (the CV calibration figure).

        Bitwise equal to ``model.surprisal(p_row, t_row).mean()`` per
        member: broadcasting per-model column scalars keeps every
        elementwise operand identical, the row mean runs the contiguous
        1-D pairwise kernel, and ``np.log(sigma)`` stays a per-model
        scalar call exactly as in :meth:`batch_surprisal`.
        """
        for model in models:
            check_fitted(model, "sigma_")
        predictions = np.ascontiguousarray(np.asarray(predictions, dtype=np.float64))
        truths = np.ascontiguousarray(np.asarray(truths, dtype=np.float64))
        mu = np.array([model.mu_ for model in models])
        sigma = np.array([model.sigma_ for model in models])
        log_sigma = np.array([np.log(model.sigma_) for model in models])  # fraclint: disable=FRL003 -- sigma_ floored positive by fit()
        z = (truths - predictions - mu[:, None]) / sigma[:, None]
        s = 0.5 * z * z + log_sigma[:, None] + 0.5 * _LOG_2PI
        return s.mean(axis=1)

    @classmethod
    def batch_surprisal(
        cls, models: "list[GaussianErrorModel]", predictions: np.ndarray, truths: np.ndarray
    ) -> np.ndarray:
        """Vectorized column-wise surprisal, bitwise equal to the scalar path.

        Broadcasting a per-model row vector through the elementwise ops
        replays the scalar path's float sequence exactly (each element sees
        the same operands in the same order). The one op that is *not*
        broadcast is ``np.log(sigma)``: numpy's SIMD log over a vector of
        sigmas is not guaranteed bit-identical to the scalar ``np.log``
        the per-model path calls, so the log of each sigma is taken as a
        scalar and only then assembled into the row.
        """
        for model in models:
            check_fitted(model, "sigma_")
        predictions = np.asarray(predictions, dtype=np.float64)
        truths = np.asarray(truths, dtype=np.float64)
        mu = np.array([model.mu_ for model in models])
        sigma = np.array([model.sigma_ for model in models])
        log_sigma = np.array([np.log(model.sigma_) for model in models])  # fraclint: disable=FRL003 -- sigma_ floored positive by fit()
        z = (truths - predictions - mu) / sigma
        return 0.5 * z * z + log_sigma + 0.5 * _LOG_2PI

    @property
    def model_nbytes(self) -> int:
        return 16
