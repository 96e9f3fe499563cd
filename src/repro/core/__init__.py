"""FRaC core: the NS engine, the detector, and the scalable variants."""

from repro.core.config import FRaCConfig
from repro.core.diverse import DiverseFRaC
from repro.core.engine import (
    FeatureBatch,
    FeatureTask,
    kfold_indices,
    plan_feature_batches,
    run_feature_batch,
    run_feature_task,
    run_feature_tasks,
)
from repro.core.ensemble import (
    FRaCEnsemble,
    combine_contributions,
    diverse_ensemble,
    random_filter_ensemble,
)
from repro.core.filtering import (
    FilteredFRaC,
    entropy_filter,
    filter_size,
    random_filter,
)
from repro.core.frac import (
    FRaC,
    all_others_selector,
    diverse_selector,
    fixed_inputs_selector,
    subset_selector,
)
from repro.core.imputation import Preprocessor
from repro.core.interpretation import (
    FeatureContribution,
    SampleExplanation,
    explain_samples,
    jl_feature_attribution,
)
from repro.core.preprojection import JLFRaC
from repro.core.types import AnomalyDetector, ContributionMatrix, FeatureModel

__all__ = [
    "FRaCConfig",
    "FRaC",
    "AnomalyDetector",
    "ContributionMatrix",
    "FeatureModel",
    "FeatureTask",
    "FeatureBatch",
    "kfold_indices",
    "plan_feature_batches",
    "run_feature_task",
    "run_feature_tasks",
    "run_feature_batch",
    "Preprocessor",
    "all_others_selector",
    "subset_selector",
    "diverse_selector",
    "fixed_inputs_selector",
    "FilteredFRaC",
    "random_filter",
    "entropy_filter",
    "filter_size",
    "DiverseFRaC",
    "FRaCEnsemble",
    "combine_contributions",
    "random_filter_ensemble",
    "diverse_ensemble",
    "JLFRaC",
    "FeatureContribution",
    "SampleExplanation",
    "explain_samples",
    "jl_feature_attribution",
]
