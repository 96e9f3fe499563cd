"""Variant construction by name.

Maps the method names used in the paper's tables to configured detector
factories, given a study's settings and a data set's kind.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.baselines import LOFDetector, MahalanobisDetector, OneClassSVM, ZScoreDetector
from repro.core import (
    DiverseFRaC,
    FilteredFRaC,
    FRaC,
    JLFRaC,
    diverse_ensemble,
    random_filter_ensemble,
)
from repro.core.types import AnomalyDetector
from repro.experiments.settings import StudySettings
from repro.utils.exceptions import DataError

#: Methods appearing in the paper's result tables.
PAPER_METHODS = (
    "full",
    "random_ensemble",
    "jl",
    "entropy",
    "diverse",
    "diverse_ensemble",
)

#: Additional methods this library implements (paper §II mentions partial
#: filtering and single random filters; baselines come from the FRaC/CSAX
#: comparison papers).
EXTRA_METHODS = (
    "random_filter",
    "partial_filter",
    "lof",
    "ocsvm",
    "zscore",
    "mahalanobis",
)

ALL_METHODS = PAPER_METHODS + EXTRA_METHODS


def make_detector(
    method: str,
    dataset: str,
    settings: StudySettings,
    rng: "int | np.random.SeedSequence | None" = None,
    *,
    jl_components: "int | None" = None,
) -> AnomalyDetector:
    """Build one unfitted detector for ``method`` on ``dataset``."""
    cfg = settings.config_for(dataset)
    if method == "full":
        return FRaC(cfg, rng=rng)
    if method == "random_ensemble":
        return random_filter_ensemble(
            p=settings.filter_p, n_members=settings.n_members, config=cfg, rng=rng
        )
    if method == "jl":
        return JLFRaC(
            n_components=jl_components or settings.jl_components, config=cfg, rng=rng
        )
    if method == "entropy":
        return FilteredFRaC(p=settings.filter_p, method="entropy", config=cfg, rng=rng)
    if method == "diverse":
        return DiverseFRaC(p=settings.diverse_p, config=cfg, rng=rng)
    if method == "diverse_ensemble":
        return diverse_ensemble(
            p=settings.diverse_ensemble_p,
            n_members=settings.n_members,
            config=cfg,
            rng=rng,
        )
    if method == "random_filter":
        return FilteredFRaC(p=settings.filter_p, method="random", config=cfg, rng=rng)
    if method == "partial_filter":
        return FilteredFRaC(
            p=settings.filter_p, method="random", mode="partial", config=cfg, rng=rng
        )
    if method == "lof":
        return LOFDetector()
    if method == "ocsvm":
        return OneClassSVM()
    if method == "zscore":
        return ZScoreDetector()
    if method == "mahalanobis":
        return MahalanobisDetector()
    raise DataError(f"unknown method {method!r}; available: {ALL_METHODS}")


def detector_factory(
    method: str,
    dataset: str,
    settings: StudySettings,
    **kwargs,
) -> Callable[[int, np.random.SeedSequence], AnomalyDetector]:
    """Factory usable with :func:`repro.eval.evaluate_on_replicates`."""

    def factory(i: int, seed: np.random.SeedSequence) -> AnomalyDetector:
        return make_detector(method, dataset, settings, rng=seed, **kwargs)

    return factory
