"""Closed-form ridge regression.

A fast, deterministic linear regressor used as a cheap alternative to the
SVR in tests and as a baseline learner. Solves
``min_w ||Xw - y||^2 + alpha ||w||^2`` via the normal equations in whichever
of the primal/dual forms is smaller (n x n vs d x d), which matters in the
paper's regime of tiny n and huge d.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from repro.learners.base import Regressor
from repro.utils.validation import check_2d, check_fitted


def spd_factor(gram: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor of an SPD matrix, via ``dpotrf``.

    The raw LAPACK routine, not ``scipy.linalg.cho_factor``: at FRaC's
    per-feature matrix sizes (tens of rows) the scipy wrapper's validation
    layer costs several times the factorization itself, and the engine
    calls this once per (feature group, fold). Bitwise contract:
    ``spd_solve(spd_factor(g), b)`` is ``dpotrf`` + ``dpotrs``, which is
    exactly the call sequence inside ``dposv`` — so factoring once and
    solving per column replays a one-shot solve identically.
    """
    factor, info = lapack.dpotrf(gram, lower=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Gram matrix is not positive definite (dpotrf info={info})"
        )
    return factor


def spd_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve against a :func:`spd_factor` result, via ``dpotrs``."""
    solution, info = lapack.dpotrs(factor, rhs, lower=0)
    if info != 0:  # pragma: no cover - dpotrs only fails on bad arguments
        raise np.linalg.LinAlgError(f"dpotrs failed (info={info})")
    return solution


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float; ``ValueError`` unless it is positive and finite
    (NaN fits NaN coefficients, infinity all-zero ones)."""
    alpha = float(alpha)
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite; got {alpha}")
    return alpha


class RidgeRegressor(Regressor):
    """L2-regularized linear least squares with intercept.

    Parameters
    ----------
    alpha:
        Regularization strength (must be positive and finite; the dual
        form requires an invertible Gram matrix).
    """

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = check_alpha(alpha)
        self.coef_: "np.ndarray | None" = None
        self.intercept_: float = 0.0

    def _reset(self) -> None:
        self.coef_ = None
        self.intercept_ = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RidgeRegressor":
        x, y = self._validate_xy(x, y)
        n, d = x.shape
        x_mean = x.mean(axis=0)
        y_mean = y.mean()
        xc = x - x_mean
        yc = y - y_mean
        if d == 0:
            self.coef_ = np.zeros(0)
            self.intercept_ = float(y_mean)
            return self
        if d <= n:
            gram = xc.T @ xc
            gram.flat[:: d + 1] += self.alpha
            self.coef_ = spd_solve(spd_factor(gram), xc.T @ yc)
        else:
            # Dual (kernelized) form: w = X^T (XX^T + alpha I)^{-1} y.
            gram = xc @ xc.T
            gram.flat[:: n + 1] += self.alpha
            self.coef_ = xc.T @ spd_solve(spd_factor(gram), yc)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        x = check_2d(x, "X", allow_nan=False)
        if x.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"X has {x.shape[1]} features but model was fit with {self.coef_.shape[0]}"
            )
        return x @ self.coef_ + self.intercept_

    @property
    def model_nbytes(self) -> int:
        return 0 if self.coef_ is None else int(self.coef_.nbytes) + 8
