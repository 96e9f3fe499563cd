"""Feature entropy estimation (the ``H(f_i)`` term of NS, and the ranking
criterion of entropy filtering).

Discrete features use the plug-in (maximum likelihood) estimator over
training-set frequencies; continuous features use the differential entropy
of a Gaussian KDE (see :mod:`repro.errormodels.kde`). All entropies are in
nats, matching the natural-log surprisals of the error models.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import FeatureSchema, FeatureSpec
from repro.errormodels.kde import GaussianKDE
from repro.utils.exceptions import DataError


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
    return float(-(p * np.log(p)).sum())  # fraclint: disable=FRL003


def batch_discrete_entropy(values: np.ndarray, arities: "list[int]") -> np.ndarray:
    """:func:`discrete_entropy` of each row of a complete ``(k, n)`` stack.

    Bitwise equal to ``discrete_entropy(values[j], arity=arities[j])``:
    one ``bincount`` counts every row's codes (the frequencies ``np.unique``
    reports, in the same ascending order), and the final
    ``-(p * log p).sum()`` runs per row on the 1-D frequency vector the
    scalar path builds, so the log and the sum see the same arrays.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != len(arities):
        raise DataError(f"need a ({len(arities)}, n) stack; got {values.shape}")
    if np.isnan(values).any():
        raise DataError("batch_discrete_entropy needs complete rows")
    if values.shape[1] == 0:
        raise DataError("cannot estimate entropy from zero observed values")
    codes = np.rint(values).astype(np.intp)
    arity = np.asarray(arities, dtype=np.intp)
    if (codes < 0).any() or (codes >= arity[:, None]).any():
        raise DataError("codes outside [0, arity)")
    width = int(arity.max())
    counts = np.bincount(
        (codes + np.arange(len(arity))[:, None] * width).ravel(), minlength=len(arity) * width
    ).reshape(len(arity), width)
    freqs = counts / values.shape[1]
    out = np.empty(len(arity))
    for j in range(len(arity)):  # fraclint: disable=FRL015 -- per-row log replay; the counting above is batched
        p = freqs[j][counts[j] > 0]  # fraclint: disable=FRL016 -- the 1-D frequency vector the scalar path logs
        # Positive by construction: only observed codes are kept.
        out[j] = -(p * np.log(p)).sum()  # fraclint: disable=FRL003,FRL018
    return out


def differential_entropy(values: np.ndarray, bandwidth: "float | None" = None) -> float:
    """KDE-based differential entropy (nats) of real values (paper §II-A)."""
    return GaussianKDE(bandwidth=bandwidth).fit(values).entropy()


def feature_entropy(column: np.ndarray, spec: FeatureSpec) -> float:
    """Entropy of one feature column according to its schema kind."""
    if spec.is_categorical:
        return discrete_entropy(column, arity=spec.arity)
    return differential_entropy(column)


def dataset_entropies(x: np.ndarray, schema: FeatureSchema) -> np.ndarray:
    """Per-feature entropies for a whole (training) matrix."""
    if x.shape[1] != len(schema):
        raise DataError(
            f"matrix has {x.shape[1]} columns but schema describes {len(schema)}"
        )
    return np.array([feature_entropy(x[:, j], schema[j]) for j in range(len(schema))])
