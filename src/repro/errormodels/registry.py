"""Name-based error-model construction.

Maps each error model's short name (``"gaussian"``, ``"confusion"``) to
its class, mirroring :mod:`repro.learners.registry`. Saved detectors do
not use these names: :mod:`repro.persistence` pickles the fitted model
objects themselves. fraclint's FRL012 (registry-completeness) checks,
cross-module, that every concrete
:class:`~repro.errormodels.base.ErrorModel` subclass appears here, so
the table names every model the library has.
"""

from __future__ import annotations

from typing import Callable

from repro.errormodels.base import ErrorModel
from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.gaussian import GaussianErrorModel

__all__ = [
    "ERROR_MODELS",
    "error_model_constructor",
    "error_model_name",
    "make_error_model",
]

ERROR_MODELS: dict[str, Callable[..., ErrorModel]] = {
    "gaussian": GaussianErrorModel,
    "confusion": ConfusionErrorModel,
}


def error_model_constructor(name: str) -> Callable[..., ErrorModel]:
    """The registered constructor for ``name`` (ValueError if unknown)."""
    try:
        return ERROR_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown error model {name!r}; available: {sorted(ERROR_MODELS)}"
        ) from None


def error_model_name(model: ErrorModel) -> str:
    """The serialized name of ``model``'s class (ValueError if unregistered).

    The round-trip contract FRL012 enforces statically, checked here
    dynamically: ``error_model_constructor(error_model_name(m))`` is
    ``type(m)`` for every registered model.
    """
    for name, ctor in ERROR_MODELS.items():
        if type(model) is ctor:
            return name
    raise ValueError(
        f"{type(model).__name__} is not registered in "
        f"repro.errormodels.registry; available: {sorted(ERROR_MODELS)}"
    )


def make_error_model(name: str, **params) -> ErrorModel:
    """Construct the error model registered under ``name``."""
    return error_model_constructor(name)(**params)
