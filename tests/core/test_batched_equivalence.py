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

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import FRaC, FRaCConfig
from repro.core import engine
from repro.core.engine import (
    FeatureBatch,
    FeatureTask,
    MAX_BATCH_FEATURES,
    SharedTrainState,
    feature_task_key,
    plan_feature_batches,
)
from repro.core.frac import fixed_inputs_selector
from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.parallel import CheckpointJournal, RetryPolicy
from repro.parallel.executor import ExecutionConfig
from repro.persistence import load_detector, save_detector
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


def count_events(sink):
    """Multiset of the per-feature events whose counts must not depend on
    the training path."""
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
        return count_events(sink)

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
        from repro.core.engine import batch_task_key

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


# -- categorical (tree) batching ----------------------------------------------


SNP_CONFIG = FRaCConfig.paper_snp(classifier_params={"max_depth": 6})
MIXED_CONFIG = FRaCConfig(regressor="ridge", classifier="tree")


class _KindSelector:
    """Categorical targets read the other categorical columns, real targets
    all other columns: integer-coded designs for the trees of mixed data."""

    def __init__(self, schema):
        self._categorical = np.array([spec.is_categorical for spec in schema])

    def __call__(self, target, slot, gen):
        pool = self._categorical if self._categorical[target] else np.ones_like(
            self._categorical
        )
        ids = np.flatnonzero(pool)
        return ids[ids != target]


def snp_data(snp_replicate, nan_frac=0.04):
    """The SNP replicate with NaN holes, so targets fall into several
    observed-row mask groups (mode imputation keeps the codes integer)."""
    rng = np.random.default_rng(21)
    x = snp_replicate.x_train.copy()
    x[rng.random(x.shape) < nan_frac] = np.nan
    return x, snp_replicate.x_test, snp_replicate.schema


#: case -> (data from the SNP replicate fixture, config, input selector class)
CASES = {
    "snp": (snp_data, SNP_CONFIG, None),
    "mixed": (lambda rep: make_mixed_data(), MIXED_CONFIG, _KindSelector),
}


def fit_case(name, rep, checkpoint=None, execution=None):
    make, config, selector = CASES[name]
    x, x_test, schema = make(rep)
    if execution is not None:
        config = replace(config, execution=execution)
    kwargs = {} if selector is None else {"input_selector": selector(schema)}
    det = FRaC(config, rng=5, **kwargs).fit(x, schema, checkpoint=checkpoint)
    return det, x_test


def model_bytes(model):
    return pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("case", sorted(CASES))
class TestCategoricalBatching:
    def test_every_task_takes_the_batch_path(self, case, snp_replicate, monkeypatch):
        def per_feature(task):
            raise AssertionError(f"feature {task.feature_id} ran per feature")

        monkeypatch.setattr(engine, "run_feature_task", per_feature)
        fit_case(case, snp_replicate)

    def test_scores_contributions_and_artifacts(self, case, snp_replicate, per_feature_path):
        batched, x_test = fit_case(case, snp_replicate)
        with per_feature_path():
            scalar, _ = fit_case(case, snp_replicate)
        np.testing.assert_array_equal(batched.score(x_test), scalar.score(x_test))
        np.testing.assert_array_equal(
            batched.contributions(x_test).values, scalar.contributions(x_test).values
        )
        assert len(batched.models_) == len(scalar.models_)
        for a, b in zip(batched.models_, scalar.models_):
            assert model_bytes(a) == model_bytes(b)

    def test_saved_detectors_score_identically(
        self, case, snp_replicate, per_feature_path, tmp_path
    ):
        batched, x_test = fit_case(case, snp_replicate)
        with per_feature_path():
            scalar, _ = fit_case(case, snp_replicate)
        loaded = []
        for name, det in (("batched", batched), ("scalar", scalar)):
            save_detector(det, tmp_path / f"{name}.pkl")
            loaded.append(load_detector(tmp_path / f"{name}.pkl")[0])
        for a, b in zip(loaded[0].models_, loaded[1].models_):
            assert model_bytes(a) == model_bytes(b)
        np.testing.assert_array_equal(loaded[0].score(x_test), loaded[1].score(x_test))

    def test_checkpoint_journals_identical(
        self, case, snp_replicate, per_feature_path, tmp_path
    ):
        entries = []
        for name in ("batched", "scalar"):
            with CheckpointJournal(tmp_path / f"{name}.journal") as journal:
                if name == "scalar":
                    with per_feature_path():
                        fit_case(case, snp_replicate, checkpoint=journal)
                else:
                    fit_case(case, snp_replicate, checkpoint=journal)
                entries.append(journal.entries())
        assert entries[0].keys() == entries[1].keys()
        for key, value in entries[0].items():
            other = entries[1][key]
            if value is None:
                assert other is None
                continue
            assert model_bytes(value[0]) == model_bytes(other[0])
            # cpu_seconds is a measurement; the rest of the cost is a formula.
            assert replace(value[1], cpu_seconds=0.0) == replace(other[1], cpu_seconds=0.0)

    def test_event_counts_replay_identical(self, case, snp_replicate, per_feature_path):
        def events():
            sink = MemorySink()
            previous = telemetry_runtime.set_bus(EventBus([sink]))
            try:
                det, x_test = fit_case(case, snp_replicate)
                det.score(x_test)
            finally:
                telemetry_runtime.set_bus(previous)
            return count_events(sink)

        batched = events()
        with per_feature_path():
            scalar = events()
        assert batched == scalar
        assert any(key[0] == "FoldTrained" for key in batched)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_modes(self, case, mode, snp_replicate, per_feature_path):
        det, x_test = fit_case(
            case, snp_replicate, execution=ExecutionConfig(mode=mode, n_workers=2)
        )
        with per_feature_path():
            reference, _ = fit_case(case, snp_replicate)
        np.testing.assert_array_equal(det.score(x_test), reference.score(x_test))


def test_non_integer_categorical_designs_pass_through():
    """All-others wiring on mixed data hands the trees real-valued inputs:
    the dense sorted search, so the planner leaves those tasks per feature."""
    x, _, schema = make_mixed_data(nan_frac=0.0)
    tasks = [
        FeatureTask(feature_id=j, input_ids=np.delete(np.arange(12), j), seed=j)
        for j in range(12)
    ]
    shared = SharedTrainState(x_imputed=x, x_targets=x, schema=schema, config=MIXED_CONFIG)
    batches, passthrough = plan_feature_batches(tasks, shared)
    assert sorted(t.feature_id for b in batches for t in b.tasks) == [
        j for j in range(12) if j % 4 != 3
    ]
    assert [tasks[p].feature_id for p in passthrough] == [3, 7, 11]


class TestPassthroughBesideBatches:
    """``linear_svr`` + ``tree`` on mixed data: the categorical targets
    batch, and the real targets run per feature in the same fit."""

    CONFIG = FRaCConfig(regressor="linear_svr", classifier="tree")
    REAL = [j for j in range(12) if j % 4 != 3]

    def fit(self, config=None, **kwargs):
        x, x_test, schema = make_mixed_data()
        det = FRaC(config or self.CONFIG, rng=5, input_selector=_KindSelector(schema))
        return det.fit(x, schema, **kwargs), x_test

    def fail_on(self, monkeypatch, feature_id, message):
        run_one = engine.run_feature_task

        def run(task):
            if task.feature_id == feature_id:
                raise RuntimeError(message)
            return run_one(task)

        monkeypatch.setattr(engine, "run_feature_task", run)

    def test_passthrough_completions_journal_as_they_finish(self, tmp_path, monkeypatch):
        """A crash late in the per-feature run keeps every feature that
        finished before it in the journal; the resume runs only the rest."""
        path = tmp_path / "fit.journal"
        with monkeypatch.context() as patch:
            self.fail_on(patch, self.REAL[-1], "killed")
            with CheckpointJournal(path) as journal, pytest.raises(RuntimeError, match="killed"):
                self.fit(checkpoint=journal)
        with CheckpointJournal(path) as journal:
            assert {key[0] for key in journal.entries()} == set(range(12)) - {self.REAL[-1]}
        with CheckpointJournal(path) as journal:
            resumed, x_test = self.fit(checkpoint=journal)
            assert journal.appended == 1
        clean, _ = self.fit()
        np.testing.assert_array_equal(resumed.score(x_test), clean.score(x_test))

    def test_failures_and_events_carry_task_indices(self, monkeypatch):
        """The per-feature run reports its tasks under their own indices
        (here the feature ids), not their positions in that run."""
        self.fail_on(monkeypatch, 5, "injected")
        config = replace(
            self.CONFIG,
            execution=ExecutionConfig(retry=RetryPolicy(max_retries=0, on_exhaustion="skip")),
        )
        sink = MemorySink()
        previous = telemetry_runtime.set_bus(EventBus([sink]))
        try:
            det, _ = self.fit(config)
        finally:
            telemetry_runtime.set_bus(previous)
        [failure] = list(det.failure_report_)
        assert (failure.index, failure.key[0]) == (5, 5)
        lifecycle = [
            r.event
            for r in sink.records
            if r.event.name in ("FeatureTaskStarted", "FeatureTaskFinished")
        ]
        assert {e.key[0] for e in lifecycle} == set(range(12))
        assert all(e.index == e.key[0] for e in lifecycle)
