"""Missing-value imputation and feature standardization.

FRaC itself treats a *missing test target* as a zero NS contribution, but
predictors need finite *inputs*, so missing input entries are imputed from
training statistics: column mean for real features, column mode for
categorical ones. Continuous columns are optionally standardized with
training mean/std — NS is invariant under affine per-feature rescaling
(surprisal and entropy shift by the same ``ln a``), but the learners'
regularization and tolerance parameters are not, so standardization keeps
SVR hyper-parameters meaningful across features.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import FeatureSchema
from repro.utils.exceptions import DataError
from repro.utils.validation import check_2d, check_fitted


class Preprocessor:
    """Fit train-set statistics; impute (and standardize) matrices."""

    def __init__(self, schema: FeatureSchema, standardize: bool = True) -> None:
        self.schema = schema
        self.standardize = standardize
        self.fill_: "np.ndarray | None" = None
        self.mean_: "np.ndarray | None" = None
        self.scale_: "np.ndarray | None" = None

    def fit(self, x: np.ndarray) -> "Preprocessor":
        x = check_2d(x, "x_train")
        self.schema.validate_matrix(x)
        n_features = x.shape[1]
        fill = np.zeros(n_features)
        mean = np.zeros(n_features)
        scale = np.ones(n_features)
        missing = np.isnan(x)
        n_observed = x.shape[0] - missing.sum(axis=0)
        if n_features and not n_observed.all():
            # Report the lowest offending column, as the per-column loop did.
            j = int(np.flatnonzero(n_observed == 0)[0])
            raise DataError(f"feature {j} has no observed training values")
        is_real = np.zeros(n_features, dtype=bool)
        is_real[self.schema.real_indices] = True
        has_nan = missing.any(axis=0)

        # NaN-free real columns take the batched path: gathering rows of
        # the transpose yields a C-contiguous (k, n) matrix whose axis-1
        # reductions run the same 1-D pairwise kernel as a per-column
        # ``col.mean()`` / ``col.std()`` — bitwise-equal statistics.
        # ``np.nanmean`` over the full matrix would NOT be: with NaNs
        # present it reduces in a different association order than the
        # compacted ``col[~isnan]`` the per-column path used.
        complete = np.flatnonzero(is_real & ~has_nan)
        if complete.size:
            xt = x.T[complete]
            mean[complete] = xt.mean(axis=1)
            sd = xt.std(axis=1)
            scale[complete] = np.where(sd > 0.0, sd, 1.0)
        for j in np.flatnonzero(is_real & has_nan):
            col = x[:, j]
            observed = col[~np.isnan(col)]
            mean[j] = float(observed.mean())
            sd_j = float(observed.std())
            scale[j] = sd_j if sd_j > 0 else 1.0
        if not self.standardize:
            # Fill value in *standardized* units is 0 (the mean); raw
            # units fall back to the column mean itself.
            fill[is_real] = mean[is_real]
        for j in np.flatnonzero(~is_real):
            col = x[:, j]
            observed = col[~np.isnan(col)]
            codes, counts = np.unique(observed.astype(np.intp), return_counts=True)
            fill[j] = float(codes[np.argmax(counts)])
        self.fill_ = fill
        self.mean_ = mean
        self.scale_ = scale
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Standardized (real columns) + imputed copy of ``x``."""
        check_fitted(self, "fill_")
        x = check_2d(x, "x")
        self.schema.validate_matrix(x)
        out = x.copy()
        real = self.schema.real_indices
        if self.standardize and len(real):
            out[:, real] = (out[:, real] - self.mean_[real]) / self.scale_[real]
        missing = np.isnan(out)
        if missing.any():
            out[missing] = np.broadcast_to(self.fill_, out.shape)[missing]
        return out

    def transform_keep_missing(self, x: np.ndarray) -> np.ndarray:
        """Standardize only — missing entries stay NaN (for *target* reads)."""
        check_fitted(self, "fill_")
        x = check_2d(x, "x")
        self.schema.validate_matrix(x)
        out = x.copy()
        real = self.schema.real_indices
        if self.standardize and len(real):
            out[:, real] = (out[:, real] - self.mean_[real]) / self.scale_[real]
        return out
