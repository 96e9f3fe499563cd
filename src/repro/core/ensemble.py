"""FRaC ensembles (paper §II-C).

Because NS is a sum of per-feature terms, ensembling is a per-feature
combine: within each member, a feature's predictor slots add (the NS
``j``-sum); *across* members, a feature covered by several members
contributes the **median** of its per-member scores; the sample's ensemble
NS is the sum over all features covered by at least one member. The paper
runs ensembles of 10 random full-filter members at p = 0.05 and of 10
diverse members at p = 1/20.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.diverse import DiverseFRaC
from repro.core.filtering import FilteredFRaC
from repro.core.frac import TrainingSet
from repro.core.types import AnomalyDetector, ContributionMatrix
from repro.data.schema import FeatureSchema
from repro.parallel.faults import FailureReport
from repro.parallel.resources import ResourceReport
from repro.telemetry.spans import span
from repro.utils.exceptions import DataError, NotFittedError
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_2d, check_count

#: A member factory builds one (unfitted) detector from its member index
#: and seed. Members must expose ``config``, ``fit_prepared`` and
#: ``contributions`` (:class:`DiverseFRaC`, :class:`FilteredFRaC`).
MemberFactory = Callable[[int, np.random.SeedSequence], AnomalyDetector]


def combine_contributions(members: Sequence[ContributionMatrix]) -> np.ndarray:
    """Median-per-feature ensemble NS scores (paper §II-C).

    Within a member, slots sharing a feature id are summed first; across
    members, each feature's score is the median over the members that cover
    it; the result is the per-sample sum over covered features.
    """
    if not members:
        raise DataError("cannot combine zero ensemble members")
    n = members[0].n_samples
    if any(m.n_samples != n for m in members):
        raise DataError("ensemble members scored different numbers of samples")

    # feature id -> list of per-member (n,) score vectors
    per_feature: dict[int, list[np.ndarray]] = {}
    for cm in members:
        member_feature_totals: dict[int, np.ndarray] = {}
        for t, fid in enumerate(cm.feature_ids):
            fid = int(fid)
            if fid in member_feature_totals:
                member_feature_totals[fid] = member_feature_totals[fid] + cm.values[:, t]
            else:
                member_feature_totals[fid] = cm.values[:, t]
        for fid, vec in member_feature_totals.items():
            per_feature.setdefault(fid, []).append(vec)

    total = np.zeros(n)
    for vecs in per_feature.values():
        if len(vecs) == 1:
            total += vecs[0]
        else:
            total += np.median(np.stack(vecs), axis=0)
    return total


class FRaCEnsemble(AnomalyDetector):
    """An ensemble of independently-seeded FRaC variant members.

    Members train on one shared :class:`~repro.core.frac.TrainingSet`, so
    the training matrix is preprocessed once and each target's entropy
    computed once per ensemble fit; they must therefore agree on
    ``config.standardize``.
    """

    def __init__(
        self,
        member_factory: MemberFactory,
        n_members: int = 10,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.member_factory = member_factory
        self.n_members = check_count(n_members, "n_members", 1)
        self._rng = rng
        self.members_: "list[AnomalyDetector] | None" = None
        #: Union of the members' per-feature failure reports (features a
        #: member dropped after exhausting retries; see repro.parallel).
        self.failure_report_: "FailureReport | None" = None

    def fit(self, x_train: np.ndarray, schema: FeatureSchema) -> "FRaCEnsemble":
        seeds = spawn_seeds(self._rng, self.n_members)
        members = [self.member_factory(i, seed) for i, seed in enumerate(seeds)]
        training = TrainingSet(x_train, schema, standardize=members[0].config.standardize)
        report = FailureReport()
        for i, member in enumerate(members):
            with span(f"ensemble.member[{i}]"):
                member.fit_prepared(training)
            member_report = getattr(member, "failure_report_", None)
            if member_report is not None:
                report.extend(member_report)
        self.members_ = members
        self.failure_report_ = report
        return self

    def score(self, x_test: np.ndarray) -> np.ndarray:
        if self.members_ is None:
            raise NotFittedError("FRaCEnsemble is not fitted; call fit() first")
        x_test = check_2d(x_test, "x_test")
        return combine_contributions([m.contributions(x_test) for m in self.members_])

    @property
    def resources(self) -> ResourceReport:
        """Members run sequentially: times add, memory peaks take the max."""
        if self.members_ is None:
            raise NotFittedError("FRaCEnsemble is not fitted")
        total = self.members_[0].resources
        for m in self.members_[1:]:
            total = total + m.resources
        return total

    def structure(self) -> list[dict[int, np.ndarray]]:
        if self.members_ is None:
            raise NotFittedError("FRaCEnsemble is not fitted")
        return [m.structure() for m in self.members_]


# Factories are picklable callables (not closures) so fitted ensembles can
# be persisted with repro.persistence.


class _RandomFilterFactory:
    def __init__(self, p: float, config: "FRaCConfig | None") -> None:
        self.p = p
        self.config = config

    def __call__(self, i: int, seed: np.random.SeedSequence) -> FilteredFRaC:
        return FilteredFRaC(
            p=self.p, method="random", mode="full", config=self.config, rng=seed
        )


class _DiverseFactory:
    def __init__(self, p: float, config: "FRaCConfig | None") -> None:
        self.p = p
        self.config = config

    def __call__(self, i: int, seed: np.random.SeedSequence) -> DiverseFRaC:
        return DiverseFRaC(p=self.p, config=self.config, rng=seed)


def random_filter_ensemble(
    p: float = 0.05,
    n_members: int = 10,
    config: "FRaCConfig | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> FRaCEnsemble:
    """The paper's "Ensemble of Random Filtering": 10 full random filters
    at 5% kept, combined by per-feature median (§III-B1)."""
    return FRaCEnsemble(_RandomFilterFactory(p, config), n_members=n_members, rng=rng)


def diverse_ensemble(
    p: float = 1.0 / 20.0,
    n_members: int = 10,
    config: "FRaCConfig | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> FRaCEnsemble:
    """The paper's "Diverse Ensemble": 10 diverse FRaC members at p = 1/20
    (chosen to compare fairly with the filtering ensembles, §III-B2)."""
    return FRaCEnsemble(_DiverseFactory(p, config), n_members=n_members, rng=rng)
