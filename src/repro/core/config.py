"""FRaC configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.parallel.executor import ExecutionConfig
from repro.utils.exceptions import DataError
from repro.utils.validation import check_count


@dataclass(frozen=True)
class FRaCConfig:
    """Hyper-parameters of a FRaC run.

    Attributes
    ----------
    n_folds:
        Cross-validation folds used to gather (prediction, truth) pairs for
        the error models (paper §I-A1). Capped at the number of usable
        training rows per feature.
    regressor / classifier:
        Registry names of the per-feature learners (see
        :mod:`repro.learners.registry`). The paper's settings are
        ``"linear_svr"`` for expression data and ``"tree"`` for SNP data;
        ``"ridge"`` is a fast drop-in for the SVR in tests. A regressor
        with a batched counterpart
        (:data:`repro.learners.registry.BATCHED_REGRESSORS`) trains its
        real-valued targets in groups, byte-identical to per-feature
        training (:func:`repro.core.engine.run_feature_batch`); a
        classifier in :data:`repro.learners.registry.BATCHED_CLASSIFIERS`
        does the same for integer-coded categorical targets.
    regressor_params / classifier_params:
        Extra constructor arguments for the learners.
    n_predictors:
        Predictors trained per feature (the ``j`` sum of the NS formula).
        Plain FRaC uses 1; diverse FRaC can use more, each drawing its own
        input subset.
    standardize:
        Standardize real features with training statistics before
        modelling (keeps SVR hyper-parameters meaningful across features;
        NS itself is invariant to per-feature affine rescaling).
    confusion_smoothing:
        Laplace pseudo-count of the categorical error model.
    sigma_floor:
        Scale floor of the Gaussian error model (in standardized units).
    min_observed:
        Features with fewer observed training values are skipped entirely
        (they cannot support CV).
    execution:
        How the per-feature work items are mapped (serial/thread/process).
    """

    n_folds: int = 5
    regressor: str = "linear_svr"
    classifier: str = "tree"
    regressor_params: Mapping[str, object] = field(default_factory=dict)
    classifier_params: Mapping[str, object] = field(default_factory=dict)
    n_predictors: int = 1
    standardize: bool = True
    confusion_smoothing: float = 1.0
    sigma_floor: float = 1e-3
    min_observed: int = 4
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        check_count(self.n_folds, "n_folds", 2)
        check_count(self.n_predictors, "n_predictors", 1)
        check_count(self.min_observed, "min_observed", 2)
        # NaN fails every comparison, so a `<= 0` test would let it through.
        for name in ("sigma_floor", "confusion_smoothing"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DataError(f"{name} must be positive and finite; got {value}")

    @classmethod
    def paper_expression(cls, **overrides) -> "FRaCConfig":
        """The paper's expression-data setting: linear SVM predictors."""
        defaults = dict(regressor="linear_svr", classifier="tree")
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper_snp(cls, **overrides) -> "FRaCConfig":
        """The paper's SNP-data setting: decision-tree predictors.

        Trees also serve as the regressor so that JL pre-projection on SNP
        data models the (all-real) projected space with trees — the paper's
        §IV setup, and its hypothesis for JL's weakness on discrete data.
        """
        defaults = dict(regressor="tree_regressor", classifier="tree")
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def fast(cls, **overrides) -> "FRaCConfig":
        """A cheap configuration for tests: ridge + shallow trees."""
        defaults = dict(
            regressor="ridge",
            classifier="tree",
            classifier_params={"max_depth": 4},
            n_folds=3,
        )
        defaults.update(overrides)
        return cls(**defaults)
