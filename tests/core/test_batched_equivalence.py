"""The byte-equivalence proof harness for batched training.

The batched path must be a pure execution strategy: every score,
contribution, surprisal, and persisted artifact a detector produces
through it must equal — ``np.array_equal``, never ``allclose`` — what
the per-feature reference path produces (forced by the
``per_feature_path`` fixture), in every
execution mode, including under NaN-masked features and
``min_observed`` dropouts. Telemetry must be replay-identical too: the
per-feature ``FoldTrained`` / task-lifecycle event counts cannot depend
on the path taken.
"""

import numpy as np
import pytest

from repro import FRaC, FRaCConfig
from repro.core.engine import (
    FeatureBatch,
    MAX_BATCH_FEATURES,
    feature_task_key,
    plan_feature_batches,
)
from repro.core.frac import fixed_inputs_selector
from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.parallel.executor import ExecutionConfig
from repro.telemetry import EventBus, MemorySink
from repro.telemetry import runtime as telemetry_runtime


def make_mixed_data(rng_seed=3, n=60, d=12, nan_frac=0.05, starve=()):
    """Mixed real/categorical matrix with NaN holes; ``starve`` features
    keep so few observed rows they fall under ``min_observed``."""
    rng = np.random.default_rng(rng_seed)
    x = rng.normal(size=(n, d))
    specs = []
    for j in range(d):
        if j % 4 == 3:
            x[:, j] = rng.integers(0, 3, n)
            specs.append(FeatureSpec(FeatureKind.CATEGORICAL, arity=3, name=f"c{j}"))
        else:
            specs.append(FeatureSpec(FeatureKind.REAL, name=f"r{j}"))
    x[rng.random((n, d)) < nan_frac] = np.nan
    for j in starve:
        x[2:, j] = np.nan  # 2 observed rows < any sane min_observed
    x_test = rng.normal(size=(20, d))
    for j in range(d):
        if j % 4 == 3:
            x_test[:, j] = rng.integers(0, 3, 20)
    return x, x_test, FeatureSchema(tuple(specs))


def fit_both(x, schema, per_feature_path, *, config=None, rng=0):
    """(batched detector, per-feature detector) on identical data/seed."""
    cfg = config or FRaCConfig(regressor="ridge", classifier="tree")
    batched = FRaC(cfg, rng=rng).fit(x, schema=schema)
    with per_feature_path():
        scalar = FRaC(cfg, rng=rng).fit(x, schema=schema)
    return batched, scalar


def assert_models_identical(a, b):
    assert len(a.models_) == len(b.models_)
    for ma, mb in zip(a.models_, b.models_):
        if ma is None or mb is None:
            assert ma is None and mb is None
            continue
        assert ma.feature_id == mb.feature_id
        np.testing.assert_array_equal(ma.input_ids, mb.input_ids)
        assert ma.entropy == mb.entropy
        assert ma.cv_mean_surprisal == mb.cv_mean_surprisal
        pa, pb = ma.predictor, mb.predictor
        if hasattr(pa, "coef_"):
            np.testing.assert_array_equal(pa.coef_, pb.coef_)
            assert pa.intercept_ == pb.intercept_


class TestByteEquivalence:
    def test_scores_contributions_and_surprisals(self, per_feature_path):
        x, x_test, schema = make_mixed_data()
        batched, scalar = fit_both(x, schema, per_feature_path)
        np.testing.assert_array_equal(batched.score(x_test), scalar.score(x_test))
        np.testing.assert_array_equal(
            batched.contributions(x_test).values,
            scalar.contributions(x_test).values,
        )
        cv_b = [m.cv_mean_surprisal for m in batched.models_ if m is not None]
        cv_s = [m.cv_mean_surprisal for m in scalar.models_ if m is not None]
        assert cv_b == cv_s

    def test_fitted_artifacts_identical(self, per_feature_path):
        x, _, schema = make_mixed_data()
        batched, scalar = fit_both(x, schema, per_feature_path)
        assert_models_identical(batched, scalar)

    def test_min_observed_dropouts_match(self, per_feature_path):
        x, x_test, schema = make_mixed_data(starve=(1, 5))
        batched, scalar = fit_both(x, schema, per_feature_path)
        holes_b = [m is None for m in batched.models_]
        holes_s = [m is None for m in scalar.models_]
        assert holes_b == holes_s
        np.testing.assert_array_equal(batched.score(x_test), scalar.score(x_test))

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_batched_scores_identical_across_modes(self, mode, per_feature_path):
        x, x_test, schema = make_mixed_data()
        cfg = FRaCConfig(
            regressor="ridge",
            classifier="tree",
            execution=ExecutionConfig(mode=mode, n_workers=2),
        )
        det = FRaC(cfg, rng=0)
        det.fit(x, schema=schema)
        reference, _ = fit_both(x, schema, per_feature_path)
        np.testing.assert_array_equal(det.score(x_test), reference.score(x_test))


class TestTelemetryReplayIdentical:
    def _event_multiset(self, x, schema):
        cfg = FRaCConfig(regressor="ridge", classifier="tree")
        sink = MemorySink()
        previous = telemetry_runtime.set_bus(EventBus([sink]))
        try:
            det = FRaC(cfg, rng=0)
            det.fit(x, schema=schema)
            _, x_test, _ = make_mixed_data()
            det.score(x_test)
        finally:
            telemetry_runtime.set_bus(previous)
        out = {}
        for record in sink.records:
            e = record.event
            if e.name == "FoldTrained":
                key = (e.name, e.feature_id, e.slot, e.fold)
            elif e.name in ("FeatureTaskStarted", "FeatureTaskFinished"):
                key = (e.name, tuple(e.key))
            elif e.name == "ScoreComputed":
                key = (e.name, e.n_samples, e.n_models)
            else:
                continue
            out[key] = out.get(key, 0) + 1
        return out

    def test_per_feature_event_counts_match(self, per_feature_path):
        x, _, schema = make_mixed_data()
        batched = self._event_multiset(x, schema)
        with per_feature_path():
            scalar = self._event_multiset(x, schema)
        assert batched == scalar


class TestPlanFeatureBatches:
    def _shared(self, x, schema, config, rng=0):
        det = FRaC(config, rng=rng)
        det.fit(x, schema=schema)  # warm path to borrow its task builder
        return det

    def test_grouping_and_passthrough(self):
        # Fixed-panel wiring makes every real feature share (rows, inputs):
        # one group; categorical targets stay per-feature.
        x, _, schema = make_mixed_data(nan_frac=0.0)
        from repro.core.engine import SharedTrainState, FeatureTask

        real = [j for j in range(12) if j % 4 != 3]
        cat = [j for j in range(12) if j % 4 == 3]
        panel = np.asarray(real[:2], dtype=np.intp)
        tasks = [
            FeatureTask(feature_id=j, input_ids=panel, seed=j, slot=0)
            for j in range(12)
            if j not in panel
        ]
        shared = SharedTrainState(
            x_imputed=np.nan_to_num(x),
            x_targets=x,
            schema=schema,
            config=FRaCConfig(regressor="ridge", classifier="tree"),
            fold_seed=7,
        )
        batches, passthrough = plan_feature_batches(tasks, shared)
        grouped = sorted(t.feature_id for b in batches for t in b.tasks)
        assert grouped == [j for j in real if j not in panel]
        assert sorted(tasks[p].feature_id for p in passthrough) == cat

    def test_max_batch_chunking(self):
        from repro.core.engine import SharedTrainState, FeatureTask

        n_features = MAX_BATCH_FEATURES + 5
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, n_features))
        schema = FeatureSchema(
            tuple(FeatureSpec(FeatureKind.REAL, name=f"r{j}") for j in range(n_features))
        )
        panel = np.array([0, 1], dtype=np.intp)
        tasks = [
            FeatureTask(feature_id=j, input_ids=panel, seed=j, slot=0)
            for j in range(2, n_features)
        ]
        shared = SharedTrainState(
            x_imputed=x,
            x_targets=x,
            schema=schema,
            config=FRaCConfig(regressor="ridge", classifier="tree"),
        )
        batches, passthrough = plan_feature_batches(tasks, shared)
        assert passthrough == []
        sizes = [len(b.tasks) for b in batches]
        assert max(sizes) <= MAX_BATCH_FEATURES
        assert sum(sizes) == len(tasks)
        # Chunk boundaries must not change membership order.
        flat = [t.feature_id for b in batches for t in b.tasks]
        assert flat == [t.feature_id for t in tasks]

    def test_batch_keys_are_member_feature_keys(self):
        from repro.core.engine import FeatureTask, batch_task_key

        tasks = tuple(
            FeatureTask(feature_id=j, input_ids=np.array([0]), seed=10 + j, slot=0)
            for j in (3, 4)
        )
        batch = FeatureBatch(tasks=tasks, indices=(0, 1))
        assert batch_task_key(batch) == tuple(feature_task_key(t) for t in tasks)


class TestFixedInputsSelector:
    def test_selector_excludes_target_overlap(self):
        from repro.utils.exceptions import DataError

        gen = np.random.default_rng(0)
        sel = fixed_inputs_selector([1, 2, 3])
        np.testing.assert_array_equal(sel(0, 0, gen), np.array([1, 2, 3]))
        with pytest.raises(DataError):
            sel(2, 0, gen)

    def test_panel_wiring_is_byte_equivalent_with_real_groups(self, per_feature_path):
        """With a shared fixed panel the planner forms genuine multi-member
        batches (not singletons); equivalence must hold there too."""
        x, x_test, schema = make_mixed_data(nan_frac=0.0)
        panel = [0, 2]
        targets = [j for j in range(12) if j not in panel]

        def fit():
            det = FRaC(
                FRaCConfig(regressor="ridge", classifier="tree"),
                target_features=targets,
                input_selector=fixed_inputs_selector(panel),
                rng=0,
            )
            return det.fit(x, schema=schema)

        batched = fit()
        with per_feature_path():
            scalar = fit()
        np.testing.assert_array_equal(batched.score(x_test), scalar.score(x_test))
        assert_models_identical(batched, scalar)
