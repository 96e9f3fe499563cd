"""Bootstrapped FRaC runs (the CSAX substrate; Noto et al. 2015).

The paper under reproduction describes CSAX as the system built *on top
of* FRaC: "we then used FRaC as a component of CSAX, a method for
identifying and interpreting anomalies in individual gene expression
samples ... CSAX includes bootstrapping over multiple FRaC runs" (§I).
This module provides that bootstrap layer: ``B`` FRaC detectors, each
trained on a bootstrap resample of the normal training set, yielding for
every test sample both a stabilized anomaly score and — the part CSAX
needs — per-feature anomaly *ranks* whose consistency across bootstrap
runs separates systematic dysregulation from noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.frac import FRaC
from repro.core.types import AnomalyDetector
from repro.data.schema import FeatureSchema
from repro.parallel.resources import ResourceReport
from repro.utils.exceptions import DataError, NotFittedError
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class BootstrapScores:
    """Scores of one test set under a bootstrapped FRaC.

    Attributes
    ----------
    ns_scores:
        ``(n_samples,)`` mean NS score across bootstrap runs.
    feature_ranks:
        ``(n_runs, n_samples, n_features)`` per-run rank of each feature's
        NS contribution within each sample (0 = most anomalous feature).
    feature_ids:
        Feature ids indexing the last axis of ``feature_ranks``.
    """

    ns_scores: np.ndarray
    feature_ranks: np.ndarray
    feature_ids: np.ndarray

    def median_ranks(self) -> np.ndarray:
        """``(n_samples, n_features)`` median rank across runs — CSAX's
        stabilized per-sample feature ordering."""
        return np.median(self.feature_ranks, axis=0)


class BootstrapFRaC(AnomalyDetector):
    """``n_runs`` FRaC detectors on bootstrap resamples of the training set.

    Parameters
    ----------
    n_runs:
        Bootstrap replicates (CSAX used on the order of tens).
    config:
        Engine configuration shared by every run.
    subsample:
        Fraction of training rows drawn (with replacement) per run.
    """

    def __init__(
        self,
        n_runs: int = 10,
        config: "FRaCConfig | None" = None,
        subsample: float = 1.0,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        if n_runs < 1:
            raise DataError(f"n_runs must be >= 1; got {n_runs}")
        if not 0.0 < subsample <= 1.0:
            raise DataError(f"subsample must lie in (0, 1]; got {subsample}")
        self.n_runs = int(n_runs)
        self.config = config or FRaCConfig()
        self.subsample = float(subsample)
        self._rng = rng
        self.runs_: "list[FRaC] | None" = None

    def fit(self, x_train: np.ndarray, schema: FeatureSchema) -> "BootstrapFRaC":
        x_train = check_2d(x_train, "x_train")
        n = x_train.shape[0]
        if n < 4:
            raise DataError(f"bootstrapping needs at least 4 training samples; got {n}")
        size = max(4, int(round(self.subsample * n)))
        runs = []
        # Each run is a full FRaC fit on an independent resample.
        for seed in spawn_seeds(self._rng, self.n_runs):
            gen = np.random.default_rng(seed)
            rows = gen.integers(0, n, size=size)
            frac = FRaC(self.config, rng=gen)
            frac.fit(x_train[rows], schema)
            runs.append(frac)
        self.runs_ = runs
        return self

    def bootstrap_scores(self, x_test: np.ndarray) -> BootstrapScores:
        """Full per-run scoring (NS scores + per-feature ranks)."""
        if self.runs_ is None:
            raise NotFittedError("BootstrapFRaC is not fitted; call fit() first")
        x_test = check_2d(x_test, "x_test")
        ns_total = None
        all_ranks = []
        feature_ids = None
        for frac in self.runs_:
            cm = frac.contributions(x_test)
            order = np.argsort(cm.feature_ids)
            # Align feature order across runs.
            values = cm.values[:, order]
            if feature_ids is None:
                feature_ids = cm.feature_ids[order]
            # Rank features within each sample: 0 = largest contribution.
            ranks = np.argsort(np.argsort(-values, axis=1), axis=1)
            all_ranks.append(ranks)
            ns = values.sum(axis=1)
            ns_total = ns if ns_total is None else ns_total + ns
        return BootstrapScores(
            ns_scores=ns_total / self.n_runs,
            feature_ranks=np.stack(all_ranks).astype(np.float64),
            feature_ids=feature_ids,
        )

    def score(self, x_test: np.ndarray) -> np.ndarray:
        """Mean NS across bootstrap runs (the stabilized anomaly score)."""
        return self.bootstrap_scores(x_test).ns_scores

    @property
    def resources(self) -> ResourceReport:
        if self.runs_ is None:
            raise NotFittedError("BootstrapFRaC is not fitted")
        total = self.runs_[0].resources
        for frac in self.runs_[1:]:
            total = total + frac.resources
        return total
