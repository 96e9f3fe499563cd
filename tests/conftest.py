"""Shared fixtures: small, fast synthetic data sets and configs."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro.core.config import FRaCConfig
from repro.data.replicates import make_replicate
from repro.data.schema import FeatureSchema
from repro.data.synthetic import (
    ExpressionConfig,
    SNPConfig,
    make_expression_dataset,
    make_snp_dataset,
)
from repro.learners import decision_tree, registry


@pytest.fixture(scope="session", autouse=True)
def _session_trace():
    """Record the whole test session's telemetry when REPRO_TRACE is set.

    CI exports ``REPRO_TRACE=trace.jsonl`` on the tier-1 job, uploads the
    file as an artifact, and smoke-checks that ``python -m repro trace``
    parses it with zero errors (docs/observability.md). Unset (the
    default), telemetry stays off and this fixture is a no-op.
    """
    path = os.environ.get("REPRO_TRACE")
    if not path:
        yield
        return
    from repro.telemetry import runtime

    runtime.configure(trace_path=path)
    yield
    runtime.shutdown()


@pytest.fixture
def per_feature_path(monkeypatch):
    """Context manager that forces the per-feature reference learners.

    Inside the block neither ``"ridge"`` nor ``"tree"`` has a group
    counterpart, so ``run_feature_batch`` trains every feature on its
    each-member side: a fresh ``RidgeRegressor`` / ``DecisionTreeClassifier``
    per fold, the reference side of the byte-equivalence suites. Every
    tree also takes the dense sorted sweep, the split search independent
    of the group builder. Outside it the group learners run. Error
    models, entropies and CV means take the same batched calls on both
    sides; their oracles are the per-row reference implementations in
    ``tests/errormodels/reference.py``.
    """

    @contextlib.contextmanager
    def force():
        with monkeypatch.context() as patch:
            patch.delitem(registry.BATCHED_REGRESSORS, "ridge")
            patch.delitem(registry.BATCHED_CLASSIFIERS, "tree")
            patch.setattr(decision_tree, "_FAST_MAX_CODE", -1)  # no code qualifies
            yield

    return force


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def expression_dataset():
    """A small expression data set with a clear planted signal."""
    cfg = ExpressionConfig(
        n_features=40,
        n_normal=45,
        n_anomaly=15,
        n_modules=4,
        module_size=8,
        loading=1.0,
        noise_sd=0.4,
        disrupt_fraction=0.6,
        name="expr-test",
    )
    return make_expression_dataset(cfg, rng=7)


@pytest.fixture(scope="session")
def snp_dataset():
    """A small SNP data set with broken-LD anomalies."""
    cfg = SNPConfig(
        n_features=48,
        n_normal=60,
        n_anomaly=20,
        block_size=6,
        n_haplotypes=4,
        relevant_blocks=5,
        name="snp-test",
    )
    return make_snp_dataset(cfg, rng=11)


@pytest.fixture(scope="session")
def expression_replicate(expression_dataset):
    return make_replicate(expression_dataset, rng=3)


@pytest.fixture(scope="session")
def snp_replicate(snp_dataset):
    return make_replicate(snp_dataset, rng=5)


@pytest.fixture
def fast_config():
    return FRaCConfig.fast()


@pytest.fixture
def real_schema():
    return FeatureSchema.all_real(6)


@pytest.fixture
def snp_schema():
    return FeatureSchema.all_categorical(6, arity=3)
