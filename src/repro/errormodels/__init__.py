"""Error models and entropy estimators for the NS score."""

from repro.errormodels.base import ErrorModel
from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.entropy import (
    batch_discrete_entropy,
    dataset_entropies,
    differential_entropy,
    discrete_entropy,
    feature_entropy,
)
from repro.errormodels.gaussian import GaussianErrorModel
from repro.errormodels.kde import GaussianKDE, silverman_bandwidth
from repro.errormodels.registry import (
    ERROR_MODELS,
    error_model_constructor,
    error_model_name,
    make_error_model,
)

__all__ = [
    "ErrorModel",
    "GaussianErrorModel",
    "ConfusionErrorModel",
    "ERROR_MODELS",
    "error_model_constructor",
    "error_model_name",
    "make_error_model",
    "GaussianKDE",
    "silverman_bandwidth",
    "discrete_entropy",
    "batch_discrete_entropy",
    "differential_entropy",
    "feature_entropy",
    "dataset_entropies",
]
