"""Feature filtering (paper §II-A): random and entropy criteria.

A filter ranks features by some property and keeps a fraction ``p``:

- *random* filtering keeps a uniform random subset (the paper's most
  effective criterion on most data sets);
- *entropy* filtering keeps the highest-entropy features (discrete plug-in
  entropy for categorical features, KDE differential entropy for real
  ones) — inconsistent in the paper, but spectacular on the confounded
  schizophrenia data.

*Full* filtering (models only see kept features) and *partial* filtering
(models for kept features, trained on all features) are expressed as FRaC
wiring in :class:`FilteredFRaC`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.frac import FRaC, TrainingSet, subset_selector
from repro.core.types import AnomalyDetector, ContributionMatrix
from repro.data.schema import FeatureSchema
from repro.errormodels.entropy import dataset_entropies
from repro.parallel.resources import ResourceReport
from repro.utils.exceptions import DataError, NotFittedError
from repro.utils.rng import as_generator, spawn_seeds
from repro.utils.validation import check_2d, check_probability

FILTER_METHODS = ("random", "entropy")
FILTER_MODES = ("full", "partial")


def filter_size(n_features: int, p: float) -> int:
    """Number of kept features at fraction ``p`` (at least 2, so kept
    features can still predict each other under full filtering)."""
    return max(2, int(round(p * n_features)))


def random_filter(
    n_features: int, p: float, rng: "int | np.random.Generator | None" = None
) -> np.ndarray:
    """Uniformly random kept-feature subset (sorted)."""
    check_probability(p, "p")
    gen = as_generator(rng)
    k = filter_size(n_features, p)
    return np.sort(gen.choice(n_features, size=k, replace=False))


def entropy_filter(x_train: np.ndarray, schema: FeatureSchema, p: float) -> np.ndarray:
    """Keep the top-``p`` fraction of features by training-set entropy."""
    check_probability(p, "p")
    x_train = check_2d(x_train, "x_train")
    entropies = dataset_entropies(x_train, schema)
    k = filter_size(len(schema), p)
    # Highest entropy first; stable tie-break by feature index.
    order = np.lexsort((np.arange(len(schema)), -entropies))
    return np.sort(order[:k])


class FilteredFRaC(AnomalyDetector):
    """FRaC on a filtered feature set (paper §II-A).

    Parameters
    ----------
    p:
        Fraction of features kept.
    method:
        ``"random"`` or ``"entropy"``.
    mode:
        ``"full"`` — kept features are both targets and the only inputs
        (the paper's headline filtering variant); ``"partial"`` — kept
        features are targets but models train on *all* features (evaluated
        in the paper, found inferior; provided for completeness).
    config, rng:
        Passed to the inner :class:`FRaC`.
    """

    def __init__(
        self,
        p: float = 0.05,
        method: str = "random",
        mode: str = "full",
        config: "FRaCConfig | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        check_probability(p, "p")
        if method not in FILTER_METHODS:
            raise DataError(f"method must be one of {FILTER_METHODS}; got {method!r}")
        if mode not in FILTER_MODES:
            raise DataError(f"mode must be one of {FILTER_MODES}; got {mode!r}")
        self.p = float(p)
        self.method = method
        self.mode = mode
        self.config = config or FRaCConfig()
        self._rng = rng
        self.kept_features_: "np.ndarray | None" = None
        self._inner: "FRaC | None" = None

    def fit(self, x_train: np.ndarray, schema: FeatureSchema) -> "FilteredFRaC":
        return self.fit_prepared(
            TrainingSet(x_train, schema, standardize=self.config.standardize)
        )

    def fit_prepared(self, training: TrainingSet) -> "FilteredFRaC":
        """:meth:`fit` on a prepared training set (see :meth:`FRaC.fit_prepared`)."""
        schema = training.schema
        seed_select, seed_inner = spawn_seeds(self._rng, 2)
        if self.method == "random":
            kept = random_filter(len(schema), self.p, np.random.default_rng(seed_select))
        else:
            kept = entropy_filter(training.x_train, schema, self.p)
        self.kept_features_ = kept
        if self.mode == "full":
            # Only kept columns are resident: models never touch the rest.
            self._inner = FRaC(
                self.config,
                target_features=kept,
                input_selector=subset_selector(kept),
                resident_features=len(kept),
                rng=seed_inner,
            )
        else:
            self._inner = FRaC(self.config, target_features=kept, rng=seed_inner)
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
            raise NotFittedError("FilteredFRaC is not fitted; call fit() first")
