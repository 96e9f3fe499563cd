"""Error models and entropy estimators for the NS score."""

from repro.errormodels.base import ErrorModel
from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.entropy import batch_discrete_entropy, dataset_entropies
from repro.errormodels.gaussian import GaussianErrorModel
from repro.errormodels.kde import batch_entropy

__all__ = [
    "ErrorModel",
    "GaussianErrorModel",
    "ConfusionErrorModel",
    "batch_entropy",
    "batch_discrete_entropy",
    "dataset_entropies",
]
