"""Input-validation helpers used across the library.

These raise :class:`~repro.utils.exceptions.DataError` /
:class:`~repro.utils.exceptions.NotFittedError` with actionable messages
instead of letting numpy broadcast errors surface deep inside the engine.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.utils.exceptions import DataError, NotFittedError


def check_2d(x: np.ndarray, name: str = "X", *, allow_nan: bool = True) -> np.ndarray:
    """Validate that ``x`` is a 2-D float array; returns it as float64.

    ``allow_nan=False`` additionally rejects NaN entries (NaN encodes a
    *missing value* elsewhere in the library, which some consumers — e.g.
    the JL projector — cannot handle).
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-D (samples x features); got shape {arr.shape}")
    if not allow_nan and np.isnan(arr).any():
        raise DataError(f"{name} contains NaN but NaN (missing values) is not supported here")
    if np.isinf(arr).any():
        raise DataError(f"{name} contains infinite values")
    return arr


def check_consistent_length(*arrays: np.ndarray) -> int:
    """Validate that all arrays share the same first-dimension length."""
    lengths = {np.asarray(a).shape[0] for a in arrays if a is not None}
    if len(lengths) > 1:
        raise DataError(f"inconsistent first-dimension lengths: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def check_count(value: int, name: str, minimum: int) -> int:
    """``value`` as an ``int``; :class:`DataError` unless it is an integer
    (Python or numpy; not a bool, and not a float even when whole) of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer; got {value!r}")
    if value < minimum:
        raise DataError(f"{name} must be >= {minimum}; got {value}")
    return int(value)


def check_feature_index(index: int, n_features: int) -> int:
    """Validate a feature index against the feature count."""
    index = int(index)
    if not 0 <= index < n_features:
        raise DataError(f"feature index {index} out of range [0, {n_features})")
    return index


def check_fitted(obj: object, attr: str) -> None:
    """Raise :class:`NotFittedError` unless ``obj.<attr>`` exists and is set."""
    if getattr(obj, attr, None) is None:
        raise NotFittedError(
            f"{type(obj).__name__} is not fitted yet; call fit() before using it"
        )


def check_probability(p: float, name: str = "p", *, inclusive_low: bool = False) -> float:
    """Validate a probability-like scalar in (0, 1] (or [0, 1])."""
    p = float(p)
    low_ok = p >= 0.0 if inclusive_low else p > 0.0
    if not (low_ok and p <= 1.0):
        bracket = "[0, 1]" if inclusive_low else "(0, 1]"
        raise DataError(f"{name} must lie in {bracket}; got {p}")
    return p
