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

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Bandwidth floor, for degenerate (constant or near-constant) samples.
BANDWIDTH_FLOOR = 1e-9

#: Byte budget of one ``(rows, n, n)`` kernel tensor in :func:`batch_entropy`;
#: rows are chunked to stay under it, so a whole data set's worth of rows
#: costs a few MiB of transients, not ``k * n * n * 8`` bytes.
KERNEL_CHUNK_BYTES = 1 << 20


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


def batch_silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Row-wise Silverman bandwidths: ``0.9 * min(sd, IQR/1.34) * n^{-1/5}``.

    Bit-equal to the per-row reference rule
    (``tests/errormodels/reference.py``) on finite rows (its finiteness
    compaction is a no-op then, and a contiguous row runs the same
    reduction kernels as the compacted copy). The spread statistics batch — a contiguous-row
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


def batch_entropy(samples: np.ndarray) -> np.ndarray:
    """Row-wise resubstitution entropies, one KDE per row of ``samples``.

    Every row must be finite: a NaN or infinite value would make the row's
    entropy NaN and, through the NS sum, every score, so it raises
    :class:`FitError` (drop missing values before the call, as
    :func:`repro.errormodels.entropy.dataset_entropies` does).

    Bitwise equal to the per-row reference KDE entropy
    (``tests/errormodels/reference.py``): elementwise kernel evaluation is
    position-independent, and the logsumexp/mean reductions run over the
    contiguous last axis, which replays the reference's per-row 2-D
    reductions. The ``np.log`` normalizer stays a per-row *scalar* call,
    as the reference's ``np.log(python float)`` is not the SIMD array log.
    Rows are chunked so the ``(chunk, n, n)`` kernel tensor stays under
    :data:`KERNEL_CHUNK_BYTES`.

    The logsumexp needs no max shift here, though the reference takes
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
    if not np.isfinite(samples).all():
        raise FitError("batch_entropy needs finite rows")
    out = np.empty(k)
    if k == 0:
        return out
    h = batch_silverman_bandwidth(samples)
    log_norm = np.array([np.log(n * hi) for hi in h])  # fraclint: disable=FRL003 -- per-row scalar np.log replays the reference KDE's normalizer bit for bit (h floored positive)
    rows_per_chunk = max(1, KERNEL_CHUNK_BYTES // (n * n * 8))
    for lo in range(0, k, rows_per_chunk):
        hi = min(lo + rows_per_chunk, k)
        s = samples[lo:hi]
        z = (s[:, :, None] - s[:, None, :]) / h[lo:hi, None, None]
        lse = np.log(np.exp(-0.5 * z * z).sum(axis=2))
        logpdf = lse - log_norm[lo:hi, None] - 0.5 * _LOG_2PI
        out[lo:hi] = -logpdf.mean(axis=1)
    return out
