"""Gaussian kernel density estimation (Rosenblatt 1956).

The paper estimates the differential entropy of a continuous feature by
"fitting a Gaussian kernel density estimator to the feature values over the
training set, and computing the differential entropy of f(x)" (§II-A). We
use Silverman's rule-of-thumb bandwidth and estimate the entropy by the
resubstitution (empirical-mean) estimator
``H ~= -(1/n) sum_i ln f_hat(x_i)``, which converges to the differential
entropy of the estimated density.
"""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import FitError
from repro.utils.validation import check_fitted

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Bandwidth floor, for degenerate (constant or near-constant) samples.
BANDWIDTH_FLOOR = 1e-9


def _quartile(sorted_values: np.ndarray, q: float) -> float:
    """``np.percentile(values, 100 * q)`` (linear method), bit for bit.

    Replays numpy's virtual-index arithmetic and its two-branch lerp on
    pre-sorted data, skipping the quantile dispatch machinery — the
    engine computes two quartiles per trained feature, and the dispatch
    costs an order of magnitude more than the order statistic itself.
    """
    n = sorted_values.size
    virtual = q * (n - 1)
    lo = int(virtual)
    a = float(sorted_values[lo])
    b = float(sorted_values[min(lo + 1, n - 1)])
    t = virtual - lo
    if t >= 0.5:
        return b - (b - a) * (1.0 - t)
    return a + (b - a) * t


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


def batch_silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Row-wise Silverman bandwidths, bit-equal to the scalar rule.

    Rows must be finite (the scalar path's finiteness compaction is a
    no-op then, and a contiguous row runs the same reduction kernels as
    the compacted copy). The spread statistics batch — a contiguous-row
    ``std(axis=1)`` replays each row's 1-D pairwise ``std()`` and sorting
    is exact — while the quartile lerp and the floor/min scalar
    arithmetic replay per row.
    """
    samples = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
    k, n = samples.shape
    if n < 2:
        return np.full(k, BANDWIDTH_FLOOR)
    sds = samples.std(axis=1)
    ordered = np.sort(samples, axis=1)
    out = np.empty(k)
    for i in range(k):
        sd = float(sds[i])
        iqr = _quartile(ordered[i], 0.75) - _quartile(ordered[i], 0.25)
        spread_candidates = [s for s in (sd, iqr / 1.34) if s > 0]
        if not spread_candidates:
            out[i] = BANDWIDTH_FLOOR
        else:
            out[i] = max(0.9 * min(spread_candidates) * n ** (-0.2), BANDWIDTH_FLOOR)
    return out


def batch_entropy(samples: np.ndarray, *, chunk_bytes: int = 1 << 25) -> np.ndarray:
    """Row-wise resubstitution entropies, one KDE per row of ``samples``.

    Bitwise equal to ``GaussianKDE().fit(row).entropy()`` for each
    (finite) row: elementwise kernel evaluation is position-independent,
    and the logsumexp/mean reductions run over the contiguous last axis,
    which replays the per-row 2-D reductions of the scalar path.  The
    ``np.log`` normalizer stays a per-row *scalar* call — the scalar
    path's ``np.log(python float)`` is not the SIMD array log.  Rows are
    chunked so the (chunk, n, n) kernel tensor stays under
    ``chunk_bytes``.

    The logsumexp needs no max shift here, though the scalar path takes
    one: the queries are the samples themselves, so each row of log
    kernels holds its diagonal ``-0.5 * 0.0 * 0.0 = -0.0`` and otherwise
    terms ``<= -0.0``. The row max is ``-0.0``, so ``exp(lk - max)`` is
    ``exp(lk)`` and ``max + log(S)`` is ``log(S)``, bit for bit, with
    the kernel sum ``S >= 1``.
    """
    samples = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
    k, n = samples.shape
    if n == 0:
        raise FitError("cannot fit a KDE on zero finite values")
    out = np.empty(k)
    if k == 0:
        return out
    h = batch_silverman_bandwidth(samples)
    log_norm = np.array([np.log(n * hi) for hi in h])  # fraclint: disable=FRL003 -- per-row scalar np.log replays logpdf's normalizer bit for bit (h floored positive)
    rows_per_chunk = max(1, int(chunk_bytes // max(n * n * 8, 1)))
    for lo in range(0, k, rows_per_chunk):
        hi = min(lo + rows_per_chunk, k)
        s = samples[lo:hi]
        z = (s[:, :, None] - s[:, None, :]) / h[lo:hi, None, None]
        lse = np.log(np.exp(-0.5 * z * z).sum(axis=2))
        logpdf = lse - log_norm[lo:hi, None] - 0.5 * _LOG_2PI
        out[lo:hi] = -logpdf.mean(axis=1)
    return out


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
        return lse - np.log(self.samples_.size * h) - 0.5 * _LOG_2PI  # fraclint: disable=FRL003

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def entropy(self) -> float:
        """Resubstitution estimate of the differential entropy (nats)."""
        check_fitted(self, "samples_")
        return float(-self.logpdf(self.samples_).mean())
