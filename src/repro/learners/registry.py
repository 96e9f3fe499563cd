"""Name-based learner construction.

The experiment harness refers to learners by short names (``"linear_svr"``,
``"tree"``...) so that configurations are serializable; this registry maps
those names to constructors.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable

from repro.learners.base import BaseLearner, Classifier, Regressor
from repro.learners.batched import BatchedRidge
from repro.learners.decision_tree import (
    BatchedTreeClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
)
from repro.learners.dummy import MajorityClassifier, MeanRegressor
from repro.learners.knn import KNNClassifier, KNNRegressor
from repro.learners.linear_svm import LinearSVC, LinearSVR
from repro.learners.naive_bayes import CategoricalNB
from repro.learners.ridge import RidgeRegressor

REGRESSORS: dict[str, Callable[..., Regressor]] = {
    "linear_svr": LinearSVR,
    "ridge": RidgeRegressor,
    "tree_regressor": DecisionTreeRegressor,
    "knn_regressor": KNNRegressor,
    "mean": MeanRegressor,
}

#: Regressors with a group counterpart, keyed by the *same* registry name
#: as the per-feature learner so one config string selects both. The
#: engine trains every target of such a regressor through the group class
#: (:func:`repro.core.engine.run_feature_batch`, alone or in a group),
#: without a per-task seed, so it must be deterministic without one. It
#: must accept the identical constructor parameters and produce fitted
#: per-feature learners bitwise equal to ``REGRESSORS[name]``'s — the
#: reference the equivalence suites (tests/learners/test_batched_ridge.py,
#: tests/core/test_batched_equivalence.py) compare every entry against.
BATCHED_REGRESSORS: dict[str, type[BatchedRidge]] = {
    "ridge": BatchedRidge,
}

#: Classifiers that grow a whole target group at once, keyed like
#: ``BATCHED_REGRESSORS``: same registry name and constructor parameters
#: as the per-feature classifier, fitted trees bitwise equal to it
#: (tests/learners/test_batched_tree.py, tests/core/test_batched_equivalence.py).
#: The engine asks the class's ``accepts(design)`` whether a target group
#: grows this way.
BATCHED_CLASSIFIERS: dict[str, type[BatchedTreeClassifier]] = {
    "tree": BatchedTreeClassifier,
}

CLASSIFIERS: dict[str, Callable[..., Classifier]] = {
    "linear_svc": LinearSVC,
    "tree": DecisionTreeClassifier,
    "knn": KNNClassifier,
    "naive_bayes": CategoricalNB,
    "majority": MajorityClassifier,
}


def learner_constructor(name: str) -> Callable[..., BaseLearner]:
    """The registered constructor for ``name`` (ValueError if unknown)."""
    table = {**REGRESSORS, **CLASSIFIERS}
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown learner {name!r}; available: {sorted(table)}") from None


@functools.lru_cache(maxsize=None)
def learner_accepts_param(name: str, param: str) -> bool:
    """Whether ``name``'s constructor accepts keyword argument ``param``.

    Cached: the engine asks this once per feature task, and signature
    inspection costs more than a small fit. The registry tables are
    module-level constants, so the answer for a name never changes
    within a process.

    Decided by signature inspection, not by try/except around construction:
    catching ``TypeError`` there cannot distinguish "this learner takes no
    seed" from "the caller passed a bad parameter", and the engine must
    never silently drop a seed on the latter (determinism would quietly
    depend on user typos). Constructors with ``**kwargs`` are assumed to
    accept everything, as are the rare callables ``inspect`` cannot see
    through.
    """
    ctor = learner_constructor(name)
    try:
        sig = inspect.signature(ctor)
    except (TypeError, ValueError):  # e.g. C-implemented callables
        return True
    params = sig.parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return True
    candidate = params.get(param)
    return candidate is not None and candidate.kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )


def make_learner(name: str, **kwargs) -> BaseLearner:
    """Instantiate a learner by registry name, forwarding hyper-parameters."""
    return learner_constructor(name)(**kwargs)

