"""One-class SVM (Scholkopf et al., "New support vector algorithms", 2000).

The second competing method the paper cites. We implement the linear
nu-one-class SVM by solving its dual

    min_a  1/2 a' Q a   s.t.  0 <= a_i <= 1/(nu n),  sum(a) = 1,

with ``Q = X X'`` (linear kernel), via SLSQP — perfectly adequate at the
paper's sample sizes. The anomaly score of ``x`` is ``rho - w.x`` (distance
below the separating hyperplane; higher = more anomalous).

Preprocessing scales each column by its training standard deviation but
does **not** center: the linear one-class SVM separates the data from the
origin, so centering (which puts the origin in the middle of the training
cloud) would make the problem degenerate. This mirrors the scale-to-range
preprocessing conventional with libSVM.
"""

from __future__ import annotations

import numpy as np

from repro.core.imputation import Preprocessor
from repro.core.types import AnomalyDetector
from repro.data.schema import FeatureSchema
from repro.utils.exceptions import DataError, FitError, NotFittedError
from repro.utils.validation import check_2d


class OneClassSVM(AnomalyDetector):
    """Linear nu-one-class SVM.

    Parameters
    ----------
    nu:
        Upper bound on the training outlier fraction / lower bound on the
        support-vector fraction; in (0, 1].
    """

    def __init__(self, nu: float = 0.1) -> None:
        if not 0.0 < nu <= 1.0:
            raise DataError(f"nu must lie in (0, 1]; got {nu}")
        self.nu = float(nu)
        self._pre: "Preprocessor | None" = None
        self._scale: "np.ndarray | None" = None
        self.coef_: "np.ndarray | None" = None
        self.rho_: float = 0.0

    def _prepare(self, x: np.ndarray) -> np.ndarray:
        """Impute then scale (no centering; see module docstring)."""
        out = self._pre.transform(x)
        return out / self._scale

    def fit(self, x_train: np.ndarray, schema: FeatureSchema) -> "OneClassSVM":
        # Imported here so that ``import repro`` does not load scipy.optimize.
        from scipy import optimize

        x_train = check_2d(x_train, "x_train")
        if x_train.shape[0] < 2:
            raise DataError("one-class SVM needs at least 2 training samples")
        self._pre = Preprocessor(schema, standardize=False).fit(x_train)
        filled = self._pre.transform(x_train)
        sd = filled.std(axis=0)
        self._scale = np.where(sd > 0, sd, 1.0)
        x = filled / self._scale
        n = x.shape[0]
        upper = 1.0 / (self.nu * n)
        q = x @ x.T

        alpha0 = np.full(n, 1.0 / n)
        res = optimize.minimize(
            lambda a: 0.5 * a @ q @ a,
            alpha0,
            jac=lambda a: q @ a,
            bounds=[(0.0, upper)] * n,
            constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0,
                          "jac": lambda a: np.ones_like(a)}],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-10},
        )
        if not res.success and not np.isfinite(res.fun):
            raise FitError(f"one-class SVM dual failed to converge: {res.message}")
        alpha = np.clip(res.x, 0.0, upper)
        self.coef_ = x.T @ alpha
        # rho from margin support vectors (0 < alpha < upper); fall back to
        # the median decision value of all support vectors.
        decision = x @ self.coef_
        margin = (alpha > 1e-8 * upper) & (alpha < upper * (1 - 1e-8))
        if margin.any():
            self.rho_ = float(decision[margin].mean())
        else:
            sv = alpha > 1e-8 * upper
            self.rho_ = float(np.median(decision[sv])) if sv.any() else float(np.median(decision))
        return self

    def score(self, x_test: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise NotFittedError("OneClassSVM is not fitted; call fit() first")
        x = self._prepare(check_2d(x_test, "x_test"))
        return self.rho_ - x @ self.coef_
