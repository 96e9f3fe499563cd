"""Diverse FRaC (paper §II-B).

Every feature keeps a model, but each model's inputs are an independent
random subset: feature ``j != i`` feeds the predictor of feature ``i`` with
probability ``p``. This halves (at ``p = 1/2``) each learning problem,
reduces overfitting, and lets subtle patterns be learned when the features
carrying a masking stronger pattern happen to be absent. Optionally more
than one predictor per feature is trained, each with its own subset
(``n_predictors``), at proportional extra cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.frac import FRaC, TrainingSet, diverse_selector
from repro.core.types import AnomalyDetector, ContributionMatrix
from repro.data.schema import FeatureSchema
from repro.parallel.resources import ResourceReport
from repro.utils.exceptions import NotFittedError
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_probability


class DiverseFRaC(AnomalyDetector):
    """FRaC with per-feature random input subsets.

    Parameters
    ----------
    p:
        Probability that each other feature is an input (the paper runs
        ``p = 1/2`` standalone and ``p = 1/20`` inside ensembles).
    n_predictors:
        Independent predictors (input subsets) per feature.
    config, rng:
        Passed to the inner :class:`FRaC`.
    """

    def __init__(
        self,
        p: float = 0.5,
        n_predictors: int = 1,
        config: "FRaCConfig | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        check_probability(p, "p")
        self.p = float(p)
        base = config or FRaCConfig()
        # The j-sum of the NS formula: predictor multiplicity lives in the
        # engine config.
        if n_predictors != base.n_predictors:
            base = FRaCConfig(
                **{
                    **{f: getattr(base, f) for f in base.__dataclass_fields__},
                    "n_predictors": n_predictors,
                }
            )
        self.config = base
        self._rng = rng
        self._inner: "FRaC | None" = None

    def fit(self, x_train: np.ndarray, schema: FeatureSchema) -> "DiverseFRaC":
        return self.fit_prepared(
            TrainingSet(x_train, schema, standardize=self.config.standardize)
        )

    def fit_prepared(self, training: TrainingSet) -> "DiverseFRaC":
        """:meth:`fit` on a prepared training set (see :meth:`FRaC.fit_prepared`)."""
        (seed_inner,) = spawn_seeds(self._rng, 1)
        self._inner = FRaC(
            self.config,
            input_selector=diverse_selector(len(training.schema), self.p),
            rng=seed_inner,
        )
        self._inner.fit_prepared(training)
        return self

    def contributions(self, x_test: np.ndarray) -> ContributionMatrix:
        self._check_fitted()
        return self._inner.contributions(x_test)

    def score(self, x_test: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self._inner.score(x_test)

    def structure(self) -> dict[int, np.ndarray]:
        self._check_fitted()
        return self._inner.structure()

    @property
    def resources(self) -> ResourceReport:
        self._check_fitted()
        return self._inner.resources

    def model_quality(self) -> np.ndarray:
        self._check_fitted()
        return self._inner.model_quality()

    def _check_fitted(self) -> None:
        if self._inner is None:
            raise NotFittedError("DiverseFRaC is not fitted; call fit() first")
