"""Scalar reference implementations of the NS statistics: the test oracles.

The library computes each error model's fit and surprisal, and each
feature entropy, once: in the batched, member-major ``(k, n)`` form of
:mod:`repro.errormodels`. The one-row-at-a-time bodies it grew from live
here, verbatim, as the standard the equivalence suites hold the batched
code to with ``np.array_equal``:

- :class:`ReferenceGaussianErrorModel` and
  :class:`ReferenceConfusionErrorModel` subclass the library models and
  override only ``fit`` and ``surprisal``, so constructor validation is
  shared. Their methods also work unbound on a fitted library model
  (:func:`surprisal` dispatches that way);
- :class:`GaussianKDE` with :func:`silverman_bandwidth` is the per-row
  KDE entropy; :func:`discrete_entropy` the per-row plug-in entropy;
  :func:`feature_entropy` picks one by schema kind, as
  ``dataset_entropies`` did column by column.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import FeatureSpec
from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.gaussian import GaussianErrorModel
from repro.errormodels.kde import BANDWIDTH_FLOOR, _quartile
from repro.utils.exceptions import DataError, FitError
from repro.utils.validation import check_consistent_length, check_fitted

_LOG_2PI = float(np.log(2.0 * np.pi))


class ReferenceGaussianErrorModel(GaussianErrorModel):
    """The per-model Gaussian fit and surprisal."""

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
        return 0.5 * z * z + np.log(self.sigma_) + 0.5 * _LOG_2PI


class ReferenceConfusionErrorModel(ConfusionErrorModel):
    """The per-model confusion-matrix fit and surprisal."""

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
        self.log_prob_ = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return self

    def surprisal(self, predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
        check_fitted(self, "log_prob_")
        # Named explicitly: ``self`` may be a library model (no ``_codes``).
        pred = ReferenceConfusionErrorModel._codes(self, predictions, "predictions")
        true = ReferenceConfusionErrorModel._codes(self, truths, "truths")
        return -self.log_prob_[pred, true]


_ORACLES = {
    GaussianErrorModel: ReferenceGaussianErrorModel,
    ConfusionErrorModel: ReferenceConfusionErrorModel,
}


def surprisal(model, predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """The reference surprisal of a fitted library error model."""
    return _ORACLES[type(model)].surprisal(model, predictions, truths)


def silverman_bandwidth(values: np.ndarray) -> float:
    """Silverman's rule of thumb: ``0.9 * min(sd, IQR/1.34) * n^{-1/5}``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    n = values.size
    if n < 2:
        return BANDWIDTH_FLOOR
    sd = float(values.std())
    ordered = np.sort(values)
    iqr = _quartile(ordered, 0.75) - _quartile(ordered, 0.25)
    spread_candidates = [s for s in (sd, iqr / 1.34) if s > 0]
    if not spread_candidates:
        return BANDWIDTH_FLOOR
    return max(0.9 * min(spread_candidates) * n ** (-0.2), BANDWIDTH_FLOOR)


class GaussianKDE:
    """1-D Gaussian kernel density estimate.

    Parameters
    ----------
    bandwidth:
        Kernel standard deviation; ``None`` selects Silverman's rule at fit
        time.
    """

    def __init__(self, bandwidth: "float | None" = None) -> None:
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive; got {bandwidth}")
        self.bandwidth = bandwidth
        self.samples_: "np.ndarray | None" = None
        self.bandwidth_: "float | None" = None

    def fit(self, values: np.ndarray) -> "GaussianKDE":
        values = np.asarray(values, dtype=np.float64).ravel()
        values = values[np.isfinite(values)]
        if values.size == 0:
            raise FitError("cannot fit a KDE on zero finite values")
        self.samples_ = values
        self.bandwidth_ = (
            self.bandwidth if self.bandwidth is not None else silverman_bandwidth(values)
        )
        return self

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at query points (vectorized; O(n_query * n_train))."""
        check_fitted(self, "samples_")
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        h = self.bandwidth_
        z = (x[:, None] - self.samples_[None, :]) / h
        # logsumexp over kernels, numerically stable.
        log_kernels = -0.5 * z * z
        m = log_kernels.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(log_kernels - m).sum(axis=1))
        # Positive by construction: fit() rejects empty samples (size >= 1)
        # and bandwidth_ is validated > 0 or floored at BANDWIDTH_FLOOR.
        return lse - np.log(self.samples_.size * h) - 0.5 * _LOG_2PI

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def entropy(self) -> float:
        """Resubstitution estimate of the differential entropy (nats)."""
        check_fitted(self, "samples_")
        return float(-self.logpdf(self.samples_).mean())


def discrete_entropy(values: np.ndarray, arity: "int | None" = None) -> float:
    """Plug-in Shannon entropy (nats) of integer-coded values.

    NaN entries (missing values) are ignored. ``arity`` only validates the
    code range; zero-frequency categories contribute nothing either way.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise DataError("cannot estimate entropy from zero observed values")
    codes = np.rint(values).astype(np.intp)
    if arity is not None and codes.size and (codes.min() < 0 or codes.max() >= arity):
        raise DataError(f"codes outside [0, {arity})")
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    # Positive by construction: np.unique(return_counts=True) only reports
    # observed categories, so every count (and frequency p) is >= 1/n > 0.
    return float(-(p * np.log(p)).sum())


def feature_entropy(column: np.ndarray, spec: FeatureSpec) -> float:
    """Entropy of one feature column according to its schema kind."""
    if spec.is_categorical:
        return discrete_entropy(column, arity=spec.arity)
    return GaussianKDE().fit(column).entropy()
