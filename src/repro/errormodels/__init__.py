"""Error models and entropy estimators for the NS score."""

from repro.errormodels.base import ErrorModel
from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.entropy import batch_discrete_entropy, dataset_entropies
from repro.errormodels.gaussian import GaussianErrorModel
from repro.errormodels.kde import batch_entropy
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
    "batch_entropy",
    "batch_discrete_entropy",
    "dataset_entropies",
]
