"""Feature entropy estimation (the ``H(f_i)`` term of NS, and the ranking
criterion of entropy filtering).

Discrete features use the plug-in (maximum likelihood) estimator over
training-set frequencies; continuous features use the differential entropy
of a Gaussian KDE (:func:`repro.errormodels.kde.batch_entropy`). All
entropies are in nats, matching the natural-log surprisals of the error
models. Both estimators take member-major ``(k, n)`` stacks of complete
rows; :func:`dataset_entropies` forms those stacks for a whole matrix.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import FeatureSchema
from repro.errormodels.kde import batch_entropy
from repro.utils.exceptions import DataError


def batch_discrete_entropy(values: np.ndarray, arities: "list[int]") -> np.ndarray:
    """Plug-in Shannon entropy (nats) of each row of a complete ``(k, n)`` stack.

    Row ``j`` holds integer codes in ``[0, arities[j])``. Bitwise equal to
    the per-row reference plug-in entropy of row ``j``
    (``tests/errormodels/reference.py``): one ``bincount`` counts every
    row's codes (the frequencies ``np.unique`` reports, in the same
    ascending order), and the final ``-(p * log p).sum()`` runs per row on
    the 1-D frequency vector the reference builds, so the log and the sum
    see the same arrays.
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
    for j in range(len(arity)):
        p = freqs[j][counts[j] > 0]
        # Positive by construction: only observed codes are kept.
        out[j] = -(p * np.log(p)).sum()  # fraclint: disable=FRL003
    return out


def dataset_entropies(
    x: np.ndarray, schema: FeatureSchema, columns: "np.ndarray | None" = None
) -> np.ndarray:
    """Per-feature entropies of a whole (training) matrix, or of ``columns``.

    Returns one entropy per listed column (default: every column), in the
    order given. Missing (NaN) values are left out of each column's
    estimate. Columns are grouped by (kind, observed-row mask), as the
    engine's planner groups targets, and each group's observed rows go
    through one :func:`batch_discrete_entropy` or
    :func:`~repro.errormodels.kde.batch_entropy` call; each column's
    entropy is bitwise the per-column reference estimate of its kind
    (``tests/errormodels/reference.py``), whichever columns share its call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != len(schema):
        raise DataError(
            f"matrix has {x.shape[1]} columns but schema describes {len(schema)}"
        )
    columns = (
        np.arange(len(schema)) if columns is None else np.asarray(columns, dtype=np.intp)
    )
    observed = ~np.isnan(x)
    groups: "dict[tuple[bool, bytes], list[int]]" = {}
    for pos, j in enumerate(columns):
        key = (schema[int(j)].is_categorical, observed[:, j].tobytes())
        groups.setdefault(key, []).append(pos)
    out = np.empty(len(columns))
    for (categorical, _), positions in groups.items():
        cols = columns[positions]
        stack = x.T[np.ix_(cols, np.flatnonzero(observed[:, cols[0]]))]
        if categorical:
            out[positions] = batch_discrete_entropy(stack, [schema[int(j)].arity for j in cols])
        else:
            out[positions] = batch_entropy(stack)
    return out
