"""The per-feature FRaC engine: cross-validated feature models.

One *work item* = one (target feature, predictor slot) pair. Executing an
item (``run_feature_task``):

1. selects the training rows where the target is observed;
2. k-fold cross-validates a fresh predictor to gather holdout
   (prediction, truth) pairs;
3. fits the error model (Gaussian residual / confusion matrix) on those
   pairs;
4. refits the predictor on all usable rows;
5. estimates the feature's training-set entropy.

Items only carry small picklable payloads (:class:`FeatureTask`); the
training matrix travels through the executor's shared-state channel (see
:mod:`repro.parallel.executor`), so process-mode workers inherit it via
fork instead of pickling it per item.

Batched execution
-----------------
:func:`run_feature_tasks` is the single entry point. Tasks whose learner
has a group counterpart are grouped by target kind and observed-row mask
(:func:`plan_feature_batches`), and each group is executed by
:func:`run_feature_batch`: the row, fold, and target gathers happen once
per group instead of once per feature.

- Real-valued targets batch when the regressor is in
  :data:`~repro.learners.registry.BATCHED_REGRESSORS`: the centering is
  shared, while each member keeps its own input columns, Gram
  factorization, and solves (the masked solver protocol of
  :mod:`repro.learners.batched`).
- Categorical targets batch when the classifier is in
  :data:`~repro.learners.registry.BATCHED_CLASSIFIERS` (trees without
  ``max_features``) and the group's design is small integer codes: each
  fold grows every member's tree at once, level by level, from one-hot
  count products (:meth:`~repro.learners.decision_tree.
  BatchedTreeClassifier.fit_group`), and the confusion-matrix fits and
  discrete entropies batch with them.

The batched path is **byte-identical** to the per-feature path — NS
scores, contributions, ``cv_mean_surprisal``, persisted artifacts — and
preserves its observable semantics: checkpoint journals keep per-feature
keys (the two paths' journals interchange), telemetry stays per-feature
(batch items run quiet; the orchestrator re-emits the task lifecycle per
feature, and ``FoldTrained`` is emitted per (feature, fold) either way),
and a failed batch decomposes into per-feature execution under the
caller's retry policy.

:func:`run_feature_task` is the one per-feature path. It serves learners
without a group counterpart (the paper-exact ``linear_svr``,
``tree_regressor``, ``max_features`` trees), categorical designs that are
not small integer codes, decomposed batches, and deterministic fault
injection: ``fault_plan`` targets the per-feature index space, so plans
route the whole run down this path.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.types import FeatureModel
from repro.data.schema import FeatureSchema
from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.entropy import batch_discrete_entropy, discrete_entropy
from repro.errormodels.gaussian import GaussianErrorModel
from repro.errormodels.kde import GaussianKDE, batch_entropy
from repro.learners.registry import (
    BATCHED_CLASSIFIERS,
    learner_accepts_param,
    make_batched_learner,
    make_learner,
    supports_batching,
)
from repro.learners.ridge import RidgeRegressor
from repro.parallel.executor import get_shared, run_tasks
from repro.parallel.faults import FailureReport, FaultPlan, RetryPolicy
from repro.parallel.profiling import cpu_seconds
from repro.parallel.resources import TaskCost, design_matrix_bytes, training_work_units
from repro.telemetry.events import (
    CheckpointHit,
    CheckpointMiss,
    FeatureTaskFinished,
    FeatureTaskStarted,
    FoldTrained,
)
from repro.telemetry.runtime import get_bus
from repro.telemetry.spans import span
from repro.utils.exceptions import DataError
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class FeatureTask:
    """Picklable description of one (feature, predictor-slot) work item."""

    feature_id: int
    input_ids: np.ndarray
    seed: int
    slot: int = 0


@dataclass(frozen=True)
class SharedTrainState:
    """Read-only training state shared with all workers.

    ``x_imputed`` has every entry finite (model *inputs*); ``x_targets``
    keeps missing entries as NaN so target reads respect missingness. Both
    are in standardized units when the config says so.

    ``fold_seed`` pins the run's CV fold layout: every task with the same
    usable-row count draws the identical permutation (see
    :func:`fold_rng`), which is what lets the batched planner group tasks
    by their usable rows and know the fold layout matches too.
    """

    x_imputed: np.ndarray
    x_targets: np.ndarray
    schema: FeatureSchema
    config: FRaCConfig
    fold_seed: int = 0


def fold_rng(fold_seed: int, n: int) -> np.random.Generator:
    """The generator that deals the k-fold permutation for ``n`` rows.

    Seeded by ``(run fold seed, row count)`` — not by the per-task seed —
    so tasks whose usable rows coincide share one fold layout. Shared
    layouts are a *requirement* of the batched path (fold gathers are
    computed once per group) and harmless to the per-feature path: folds
    stay deterministic per run, and the per-task stream still
    independently seeds the learners.
    """
    return np.random.default_rng(np.random.SeedSequence([int(fold_seed), int(n)]))


def kfold_indices(
    n: int, k: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded k-fold split of ``range(n)`` into (train, holdout) pairs."""
    if n < 2:
        raise DataError(f"cannot cross-validate {n} samples")
    k = max(2, min(k, n))
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        holdout = folds[i]
        # Known k-fold cost: k small, indices O(n), and the layout is
        # memoized per row count (shared_folds), so it is paid once per
        # group, not per feature.
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((train, holdout))
    return out


#: Fold-layout memo. The permutation depends only on ``(fold_seed, n,
#: k)`` — exactly the sharing contract :func:`fold_rng` encodes — so
#: every task with the same usable-row count reuses one dealt layout
#: instead of re-seeding a generator per task. Entries are treated as
#: read-only; the bound only guards pathological studies that sweep
#: thousands of distinct row counts. Thread-mode tasks share the memo,
#: so every access holds ``_FOLD_CACHE_LOCK`` (FRL021): the check-then-
#: insert and the capacity ``clear()`` must be atomic with respect to
#: each other.
_FOLD_CACHE: "dict[tuple[int, int, int], list[tuple[np.ndarray, np.ndarray]]]" = {}
_FOLD_CACHE_LOCK = threading.Lock()


def shared_folds(
    fold_seed: int, n: int, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Memoized ``kfold_indices(n, k, fold_rng(fold_seed, n))``.

    The memo is purely an optimization: the value for a key is a pure
    function of the key, so a process-mode worker repopulating its own
    copy-on-write snapshot recomputes the identical layout — losing the
    write at the harvest barrier costs time, never correctness (the
    audited FRL025 suppressions below).
    """
    key = (int(fold_seed), int(n), int(k))
    with _FOLD_CACHE_LOCK:
        folds = _FOLD_CACHE.get(key)
        if folds is None:
            folds = kfold_indices(n, k, fold_rng(fold_seed, n))
            if len(_FOLD_CACHE) >= 1024:
                _FOLD_CACHE.clear()  # fraclint: disable=FRL025 — pure memo; a worker-local clear only costs recompute
            _FOLD_CACHE[key] = folds  # fraclint: disable=FRL025 — pure memo; key determines value, lost writes recompute identically
    return folds


def _make_predictor(name: str, params: dict, seed: int):
    """Instantiate a learner, injecting the task seed when supported.

    Support is decided by inspecting the learner's signature
    (:func:`repro.learners.registry.learner_accepts_param`) rather than by
    catching ``TypeError``: a blanket except would also swallow the
    TypeError caused by a bad *user* parameter and retry without the seed,
    turning a configuration mistake into a silently nondeterministic run.
    Genuine construction errors always propagate.
    """
    if learner_accepts_param(name, "seed"):
        return make_learner(name, **{**params, "seed": seed})
    return make_learner(name, **params)


def _learner_seed(task: FeatureTask) -> int:
    """The seed a task's learners are constructed with."""
    rng = np.random.default_rng(task.seed)
    return int(rng.integers(0, 2**31 - 1))


def feature_task_key(task: FeatureTask) -> tuple[int, int, int]:
    """Stable checkpoint-journal key for one work item.

    ``(feature_id, slot, seed)`` pins the task's RNG stream (the input
    draw and learner seed), and the task seed is spawned from the same
    root stream as the run's shared ``fold_seed`` — so equal keys within
    one detector configuration imply bit-identical results (the
    idempotence resume relies on), while any change to the root seed or
    task layout changes the keys and naturally invalidates stale journal
    entries. The batched executor path journals under these same
    per-feature keys, so batched and per-feature journals interchange.
    """
    return (int(task.feature_id), int(task.slot), int(task.seed))


def run_feature_task(task: FeatureTask) -> "tuple[FeatureModel, TaskCost] | None":
    """Execute one work item against the executor-shared training state.

    Returns ``None`` when the feature cannot support a model (too few
    observed values); the caller simply drops it from the NS sum, which is
    the "otherwise: 0" branch of the NS definition applied at train time.
    """
    shared: SharedTrainState = get_shared()
    cfg = shared.config
    start = cpu_seconds()

    target_col = shared.x_targets[:, task.feature_id]
    rows = np.flatnonzero(~np.isnan(target_col))
    if len(rows) < cfg.min_observed:
        return None
    y = target_col[rows]
    input_ids = np.asarray(task.input_ids, dtype=np.intp)
    x_in = shared.x_imputed[np.ix_(rows, input_ids)]

    spec = shared.schema[task.feature_id]
    learner_seed = _learner_seed(task)
    if spec.is_categorical:
        make = lambda: _make_predictor(cfg.classifier, dict(cfg.classifier_params), learner_seed)
        error_model = ConfusionErrorModel(spec.arity, smoothing=cfg.confusion_smoothing)
        entropy = discrete_entropy(y, arity=spec.arity)
    else:
        make = lambda: _make_predictor(cfg.regressor, dict(cfg.regressor_params), learner_seed)
        error_model = GaussianErrorModel(sigma_floor=cfg.sigma_floor)
        entropy = GaussianKDE().fit(y).entropy()

    # Cross-validation pass: gather holdout (prediction, truth) pairs.
    # Fold events are worker-side: visible in serial/thread modes, muted in
    # forked process workers (whose bus is dropped; see executor._init_worker).
    bus = get_bus()
    preds = np.empty(len(rows))
    folds = shared_folds(shared.fold_seed, len(rows), cfg.n_folds)
    # The per-feature fit loop the paper profiles (O(f) dispatch). The
    # batched path (run_feature_batch below) replaces it wherever the
    # learner has a group counterpart; it stays for unbatched learners,
    # fault plans and decomposed batches, and as the byte-equivalence
    # reference the proof harnesses compare against.
    for fold, (train_idx, holdout_idx) in enumerate(folds):
        model = make()
        model.fit(x_in[train_idx], y[train_idx])
        preds[holdout_idx] = model.predict(x_in[holdout_idx])
        _emit_fold_trained(bus, task, fold, len(folds))
    error_model.fit(preds, y)
    cv_mean_surprisal = float(error_model.surprisal(preds, y).mean())

    # Final predictor: refit on every usable row.
    predictor = make().fit(x_in, y)

    cost = TaskCost(
        cpu_seconds=cpu_seconds() - start,
        design_bytes=design_matrix_bytes(len(rows), max(len(input_ids), 1)),
        model_bytes=int(getattr(predictor, "model_nbytes", 0)) + error_model.model_nbytes,
        work_units=training_work_units(len(folds) + 1, len(rows), len(input_ids)),
    )
    return (
        FeatureModel(
            feature_id=task.feature_id,
            input_ids=input_ids,
            predictor=predictor,
            error_model=error_model,
            entropy=entropy,
            cv_mean_surprisal=cv_mean_surprisal,
        ),
        cost,
    )


def _emit_fold_trained(bus, task: FeatureTask, fold: int, n_folds: int) -> None:
    if bus is not None:
        bus.emit(
            FoldTrained(
                feature_id=int(task.feature_id),
                slot=int(task.slot),
                fold=fold,
                n_folds=n_folds,
            )
        )


# -- batched execution -------------------------------------------------------

#: Largest feature group executed as one batch. Grouping is what amortizes
#: the gathers and the centering; the cap only bounds how much completed
#: work one mid-batch crash can lose before the next journal append (batch
#: results stream to the checkpoint per batch, not per run).
MAX_BATCH_FEATURES = 64


@dataclass(frozen=True)
class FeatureBatch:
    """A group of tasks of one target kind sharing ``(rows, folds)``, each
    member carrying its own input subset.

    ``indices`` are the member positions in the task list handed to
    :func:`plan_feature_batches`, so the orchestrator can place results
    and re-emit per-feature telemetry without searching. ``group`` is a
    short content digest of the observed-mask byte pattern, stamped onto
    the batch's ``fit.batch`` span so a trace alone reveals how the
    planner grouped the feature space.
    """

    tasks: tuple[FeatureTask, ...]
    indices: tuple[int, ...]
    group: str = ""


def batch_task_key(batch: FeatureBatch) -> tuple:
    """Journal key of a batch: the tuple of its members' per-feature keys."""
    return tuple(feature_task_key(task) for task in batch.tasks)


def plan_feature_batches(
    tasks: "list[FeatureTask]",
    shared: SharedTrainState,
    max_batch: int = MAX_BATCH_FEATURES,
) -> "tuple[list[FeatureBatch], list[int]]":
    """Group batchable tasks; return ``(batches, passthrough_indices)``.

    A real-valued task is batchable when the regressor has a batched
    counterpart (:data:`~repro.learners.registry.BATCHED_REGRESSORS`). A
    categorical task is batchable when the classifier has a group
    counterpart (:data:`~repro.learners.registry.BATCHED_CLASSIFIERS`)
    whose ``accepts`` takes the classifier parameters and the group's
    design over the rows and input columns the group uses: for trees, no
    ``max_features`` and small non-negative integer codes — then every
    fold's row subset is too. Everything else passes through to
    :func:`run_feature_task`.

    Group identity is the target kind plus the byte pattern of the
    target's observed-row mask: equal masks mean equal usable rows, and —
    because the fold permutation is dealt by :func:`fold_rng` from the
    shared fold seed and the row count — equal rows imply an equal fold
    layout. Input ids are per member (the all-others wiring,
    diverse-FRaC's per-feature draws, fixed panels alike). Groups larger
    than ``max_batch`` split into consecutive chunks (bitwise results are
    independent of batch boundaries; only amortization and checkpoint
    granularity change).

    Ordering is deterministic: groups appear in first-member order and
    members in task order, so plans are identical across runs and modes.
    """
    cfg = shared.config
    group_tree = BATCHED_CLASSIFIERS.get(cfg.classifier)
    batchable = {False: supports_batching(cfg.regressor), True: group_tree is not None}
    by_mask: "dict[tuple[bytes, bool], list[int]]" = {}
    passthrough: list[int] = []
    for pos, task in enumerate(tasks):
        categorical = shared.schema[task.feature_id].is_categorical
        if not batchable[categorical]:
            passthrough.append(pos)
            continue
        observed = ~np.isnan(shared.x_targets[:, task.feature_id])
        by_mask.setdefault((observed.tobytes(), categorical), []).append(pos)
    batches: list[FeatureBatch] = []
    for (mask_bytes, categorical), positions in by_mask.items():
        if categorical and not group_tree.accepts(
            cfg.classifier_params, _group_design(shared, mask_bytes, [tasks[p] for p in positions])
        ):
            passthrough.extend(positions)
            continue
        # Deterministic plan-group fingerprint: a content digest of the
        # mask itself, so equal groups carry equal labels across runs,
        # machines, and batch-size splits (telemetry join key only —
        # never fed back into computation).
        group = hashlib.sha256(mask_bytes).hexdigest()[:12]
        for lo in range(0, len(positions), max_batch):
            chunk = positions[lo : lo + max_batch]
            batches.append(
                FeatureBatch(
                    tasks=tuple(tasks[p] for p in chunk),
                    indices=tuple(chunk),
                    group=group,
                )
            )
    return batches, sorted(passthrough)


def _group_design(shared: SharedTrainState, mask_bytes: bytes, tasks: "list[FeatureTask]"):
    """The group's design: its observed rows, the input columns its members use."""
    rows = np.flatnonzero(np.frombuffer(mask_bytes, dtype=bool))
    cols = np.unique(np.concatenate([np.asarray(t.input_ids, dtype=np.intp) for t in tasks]))
    return shared.x_imputed[np.ix_(rows, cols)]


def run_feature_batch(batch: FeatureBatch) -> "list[tuple[FeatureModel, TaskCost] | None]":
    """Execute one task group against the executor-shared training state.

    Returns one per-member result in ``batch.tasks`` order, each exactly
    what :func:`run_feature_task` would have produced for that task.
    Members agree on the observed-row mask — hence on the fold layout —
    but each has its own input columns. The row gather, the design
    validation, the target gather and the fold layout happen once per
    group; then the members' target kind picks the learner side:

    - real targets (:func:`_fit_real_group`): per fold one centering of
      the shared design, then per member its own column gather, Gram +
      Cholesky and gemv solves through
      :meth:`repro.learners.batched.MaskedSolver.member`;
    - categorical targets (:func:`_fit_categorical_group`): per fold one
      group tree build, :meth:`repro.learners.decision_tree.
      BatchedTreeClassifier.fit_group`, whose row routing gives the
      holdout predictions, and one more build for the final trees.

    Either way every member float is bit-identical to the per-feature
    path. Members share their rows by construction, so the under-
    ``min_observed`` check decides once for the whole group.

    Each execution is bracketed by a ``fit.batch`` span whose attrs carry
    the batch size and the planner's group fingerprint — the measurement
    substrate for pricing per-group amortization from a trace alone
    (observation only; the batch wave's quiet task lifecycle and the
    byte-equivalence proof are unaffected).
    """
    with span(
        "fit.batch",
        attrs={"batch_size": len(batch.tasks), "group": batch.group},
    ):
        shared: SharedTrainState = get_shared()
        cfg = shared.config
        start = cpu_seconds()
        rows = np.flatnonzero(~np.isnan(shared.x_targets[:, batch.tasks[0].feature_id]))
        if len(rows) < cfg.min_observed:
            return [None] * len(batch.tasks)

        x_full = shared.x_imputed[rows]
        # One design validation for the whole group (covers every member's
        # column subset and every fold's row slice); solvers skip re-checks.
        check_2d(x_full, "X", allow_nan=False)
        ids_list = [np.asarray(task.input_ids, dtype=np.intp) for task in batch.tasks]
        feat = np.fromiter(
            (task.feature_id for task in batch.tasks), dtype=np.intp, count=len(batch.tasks)
        )
        # (k, n) with contiguous member rows: row j is exactly the 1-D target
        # vector the per-feature path gathers for member j.
        ys = shared.x_targets.T[np.ix_(feat, rows)]
        folds = shared_folds(shared.fold_seed, len(rows), cfg.n_folds)
        if shared.schema[batch.tasks[0].feature_id].is_categorical:
            fitted = _fit_categorical_group(batch, shared, x_full, ys, ids_list, folds)
        else:
            fitted = _fit_real_group(batch, shared, x_full, ys, ids_list, folds)
        refit, error_models, entropies, cv_means = fitted
        shared_cpu = cpu_seconds() - start
        out: "list[tuple[FeatureModel, TaskCost] | None]" = []
        for j, task in enumerate(batch.tasks):
            per0 = cpu_seconds()
            error_model = error_models[j]
            predictor = refit(j)
            cost = TaskCost(
                # Shared work is split evenly; per-member tails are measured.
                # The deterministic components (bytes, work units) use the
                # same formulas as the per-feature path.
                cpu_seconds=shared_cpu / len(batch.tasks) + (cpu_seconds() - per0),
                design_bytes=design_matrix_bytes(len(rows), max(len(ids_list[j]), 1)),
                model_bytes=int(getattr(predictor, "model_nbytes", 0))
                + error_model.model_nbytes,
                work_units=training_work_units(
                    len(folds) + 1, len(rows), len(ids_list[j])
                ),
            )
            out.append(
                (
                    FeatureModel(
                        feature_id=task.feature_id,
                        input_ids=ids_list[j],
                        predictor=predictor,
                        error_model=error_model,
                        entropy=float(entropies[j]),
                        cv_mean_surprisal=float(cv_means[j]),
                    ),
                    cost,
                )
            )
        return out


def _fit_real_group(batch, shared, x_full, ys, ids_list, folds):
    """Ridge side of :func:`run_feature_batch`: ``(refit, error models,
    entropies, CV mean surprisals)``, ``refit(j)`` fitting member ``j``'s
    final predictor."""
    cfg = shared.config
    learner = make_batched_learner(cfg.regressor, **dict(cfg.regressor_params))
    bus = get_bus()
    preds = np.empty(ys.shape)
    for fold, (train_idx, holdout_idx) in enumerate(folds):
        # One gather + one mean/centering pass per (group, fold); the
        # remaining per-member cost is the column gather and its own
        # Gram factorization (a shared factor is not bit-reachable here —
        # see repro.learners.batched).
        solver = learner.masked_solver(x_full[train_idx], check=False)
        x_holdout = x_full[holdout_idx]
        # ascontiguousarray: the column gather is F-contiguous, whose
        # axis-1 reduction takes a strided kernel; each member's
        # reference y.mean() is the 1-D pairwise kernel, which only the
        # C-contiguous rows replay.
        y_fold = np.ascontiguousarray(ys[:, train_idx])
        if not np.isfinite(y_fold).all():
            # The same error fit_column raises per member; failing the
            # batch routes every member down the per-feature path, which
            # reports it with the offending feature attached.
            raise ValueError("target y contains non-finite values")
        # Contiguous-row axis-1 reductions run the same pairwise kernel
        # as each member's scalar y.mean(); broadcast centering is
        # elementwise — both bit-identical to the per-member ops.
        y_means = y_fold.mean(axis=1)
        y_centered = y_fold - y_means[:, None]
        for j, task in enumerate(batch.tasks):
            member = solver.member(ids_list[j])
            model = member.solve_centered(y_centered[j], y_means[j])
            # The gemv predict() runs, minus its isfinite re-scan of rows
            # validated once above.
            # ascontiguousarray: the column gather is F-contiguous and
            # gemv dispatches differently there; the reference path's
            # np.ix_ gather is C-contiguous, so replay that layout.
            x_m = np.ascontiguousarray(x_holdout[:, ids_list[j]])
            preds[j, holdout_idx] = x_m @ model.coef_ + model.intercept_
            _emit_fold_trained(bus, task, fold, len(folds))

    final = learner.masked_solver(x_full, check=False)
    # Batched per-member tail: KDE entropies, Gaussian error models, and
    # CV mean surprisals all batch across the group's contiguous rows
    # with the same bit-preservation arguments as the training half (see
    # repro.errormodels.kde.batch_entropy / GaussianErrorModel.batch_fit).
    # Only the final refit stays per member — its Gram is the member's own.
    error_models = GaussianErrorModel.batch_fit(preds, ys, sigma_floor=cfg.sigma_floor)
    return (
        lambda j: final.member(ids_list[j]).fit_column(ys[j]),
        error_models,
        batch_entropy(ys),
        GaussianErrorModel.batch_mean_surprisal(error_models, preds, ys),
    )


def _fit_categorical_group(batch, shared, x_full, ys, ids_list, folds):
    """Tree side of :func:`run_feature_batch`, same return shape as
    :func:`_fit_real_group`; the final trees are grown in one build."""
    cfg = shared.config
    params = dict(cfg.classifier_params)
    learner = BATCHED_CLASSIFIERS[cfg.classifier](**params)
    bus = get_bus()
    preds = np.empty(ys.shape)
    for fold, (train_idx, holdout_idx) in enumerate(folds):
        # The build routes every row, so the holdout predictions are the
        # fold trees' leaves at the holdout rows, with no predict pass.
        fold_preds = learner.fit_group(x_full, ys, ids_list, train=train_idx)
        preds[:, holdout_idx] = fold_preds[:, holdout_idx]
        for task in batch.tasks:
            _emit_fold_trained(bus, task, fold, len(folds))
    # Each final predictor is constructed exactly as the per-feature path
    # constructs it (same parameters, same task seed), then receives its tree.
    predictors = [
        _make_predictor(cfg.classifier, params, _learner_seed(task)) for task in batch.tasks
    ]
    learner.fit_group(x_full, ys, ids_list, models=predictors)
    arities = [shared.schema[task.feature_id].arity for task in batch.tasks]
    error_models = ConfusionErrorModel.batch_fit(
        preds, ys, arities, smoothing=cfg.confusion_smoothing
    )
    return (
        predictors.__getitem__,
        error_models,
        batch_discrete_entropy(ys, arities),
        ConfusionErrorModel.batch_mean_surprisal(error_models, preds, ys),
    )


class _FanoutJournal:
    """Checkpoint adapter fanning one batch append into per-feature appends.

    The batch wave journals through this wrapper so the on-disk journal
    only ever contains *per-feature* entries — the same keys and values
    the per-feature path writes, streamed per completed batch. Resume
    reads the journal at per-feature granularity (the orchestrator's
    pre-pass), so ``entries()`` is empty by construction: cached features
    never reach the batch wave.
    """

    def __init__(self, journal, batches: "list[FeatureBatch]") -> None:
        self._journal = journal
        self._keys = {batch_task_key(b): [feature_task_key(t) for t in b.tasks] for b in batches}
        self.path = getattr(journal, "path", "?")

    def entries(self) -> dict:
        return {}

    def append(self, key, value) -> None:
        for feature_key, feature_value in zip(self._keys[key], value):
            self._journal.append(feature_key, feature_value)


def run_feature_tasks(
    tasks: "list[FeatureTask]",
    shared: SharedTrainState,
    *,
    checkpoint=None,
    fault_plan: "FaultPlan | None" = None,
    failures: "FailureReport | None" = None,
) -> "list[tuple[FeatureModel, TaskCost] | None]":
    """Execute every work item, batched where the learners support it.

    The single training entry point: targets whose learner has a group
    counterpart run through the batch path, everything else per feature,
    with the per-feature path's observable behaviour either way (see the
    module docstring). ``fault_plan`` indices address the per-feature task
    list, so any plan routes execution down the per-feature path — which
    keeps every fault-injection proof exact, and lets a poison-plan resume
    prove that a batched-written journal replays with zero re-executions.
    """
    if fault_plan is not None:
        return _run_per_feature(tasks, shared, checkpoint, failures, fault_plan=fault_plan)
    return _run_batched(tasks, shared, checkpoint, failures)


def _run_per_feature(tasks, shared, checkpoint, failures, *, fault_plan=None, indices=None):
    """The per-feature scheduler over ``tasks`` (numbered by ``indices``)."""
    return run_tasks(
        run_feature_task,
        tasks,
        shared=shared,
        config=shared.config.execution,
        checkpoint=checkpoint,
        task_key=feature_task_key,
        fault_plan=fault_plan,
        failures=failures,
        indices=indices,
    )


def _run_batched(tasks, shared, checkpoint, failures):
    """Batched orchestration with per-feature observable semantics.

    The plan covers the tasks the journal does not hold yet; when nothing
    in it groups, the per-feature scheduler runs every task. Otherwise:

    1. *Checkpoint hits* resolve without execution, emitting the same
       ``CheckpointHit`` and cached-``FeatureTaskFinished`` events, in the
       same task order, as the per-feature scheduler.
    2. *Batch wave*: batches run as quiet coarse items (no batch-level
       lifecycle events); completed batches stream to the journal through
       :class:`_FanoutJournal` at per-feature keys. Transient faults retry
       at batch granularity under the caller's retry budget, and exhausted
       batches are *decomposed*, never skipped outright.
    3. *Lifecycle re-emission*: each batch-completed feature gets its
       ``CheckpointMiss`` (when journaling) and its
       ``FeatureTaskStarted``/``FeatureTaskFinished`` pair, so per-feature
       event counts are replay-identical with the per-feature path.
    4. *Decomposed + passthrough run*: members of failed batches and
       tasks without a group learner run through the per-feature
       scheduler under the caller's own retry policy, numbered by their
       task index. Their events are the real ones, and each completion is
       journaled as it finishes (skipped features are not journaled).
    """
    keys = [feature_task_key(task) for task in tasks]
    completed = {} if checkpoint is None else checkpoint.entries()
    pending = [i for i, key in enumerate(keys) if key not in completed]
    batches, passthrough = plan_feature_batches([tasks[i] for i in pending], shared)
    if not batches:
        return _run_per_feature(tasks, shared, checkpoint, failures)
    execution = shared.config.execution
    bus = get_bus()
    results: "list" = [None] * len(tasks)

    # 1. Checkpoint hits.
    for i, key in enumerate(keys):
        if key in completed:
            results[i] = completed[key]
            if bus is not None:
                bus.emit(CheckpointHit(index=i, key=key))
                bus.emit(FeatureTaskFinished(index=i, status="cached", attempts=0, key=key))

    # 2. Batch wave (quiet: lifecycle is re-emitted per feature below).
    base = execution.retry or RetryPolicy(max_retries=0)
    wave_policy = replace(
        base,
        on_exhaustion="skip",
        task_timeout=(
            None
            if base.task_timeout is None
            # A batch is up to max-batch features of work; scale the
            # per-feature budget so grouping cannot induce timeouts.
            else base.task_timeout * max(len(b.tasks) for b in batches)
        ),
    )
    wave_failures = FailureReport()
    wave_values = run_tasks(
        run_feature_batch,
        batches,
        shared=shared,
        config=replace(execution, retry=wave_policy),
        checkpoint=None if checkpoint is None else _FanoutJournal(checkpoint, batches),
        task_key=batch_task_key,
        failures=wave_failures,
        quiet=True,
    )
    failed_batches = set(wave_failures.indices())
    leftover = [pending[pos] for pos in passthrough]
    done: list[int] = []
    for b, (batch, values) in enumerate(zip(batches, wave_values)):
        if b in failed_batches:
            leftover.extend(pending[pos] for pos in batch.indices)
            continue
        for pos, value in zip(batch.indices, values):
            results[pending[pos]] = value
            done.append(pending[pos])

    # 3. Re-emit the per-feature lifecycle for batch-completed features.
    if bus is not None:
        for i in sorted(done):
            if checkpoint is not None:
                bus.emit(CheckpointMiss(index=i, key=keys[i]))
            bus.emit(FeatureTaskStarted(index=i, attempt=0, key=keys[i]))
            bus.emit(
                FeatureTaskFinished(
                    index=i, status="ok", attempts=1, key=keys[i], duration_s=None
                )
            )

    # 4. Decomposed batch members + passthrough tasks run per feature.
    if leftover:
        leftover.sort()
        values = _run_per_feature(
            [tasks[i] for i in leftover], shared, checkpoint, failures, indices=leftover
        )
        for i, value in zip(leftover, values):
            results[i] = value
    return results


def gather_surprisals(
    models: list[FeatureModel],
    x_test_imputed: np.ndarray,
    x_test_targets: np.ndarray,
    out: np.ndarray,
) -> None:
    """Batched masked scoring, written into ``out`` in place.

    The per-model gather loop this replaces made seventeen-odd numpy
    dispatches per feature model (mask, row copy, ``predict``
    validation, scalar surprisal) on arrays small enough that dispatch
    dominated. The batched path (ROADMAP Open
    item 1, scoring half) groups models by (observed-mask bytes, error-
    model type) and amortizes everything the group shares — the mask, the
    truth gather, the surprisal math (one
    :meth:`~repro.errormodels.base.ErrorModel.batch_surprisal` call), the
    entropy subtraction, and the masked scatter — while keeping the
    result bitwise equal to the scalar loop (kept as the test oracle
    ``reference_gather_surprisals`` in tests/core/test_batched_scoring.py):

    - gathers and scatters are pure copies;
    - linear predictions stay one gemv *per model* — stacking coefficient
      vectors into one GEMM is **not** columnwise bit-identical to the
      per-model gemv (measured; docs/performance.md) — but skip
      ``predict``'s re-validation scan, which is a bitwise no-op;
    - batched surprisal broadcasts per-model rows through the same
      elementwise ops the scalar path runs, with per-model scalar
      ``np.log`` replay where SIMD would move a bit;
    - subtracting a per-model entropy row is elementwise identical to
      subtracting each scalar.
    """
    groups: "dict[tuple[bytes, type], list[int]]" = {}
    masks: "dict[tuple[bytes, type], np.ndarray]" = {}
    for t, fm in enumerate(models):
        observed = ~np.isnan(x_test_targets[:, fm.feature_id])
        key = (observed.tobytes(), type(fm.error_model))
        groups.setdefault(key, []).append(t)
        masks.setdefault(key, observed)
    for key, cols in groups.items():
        mask = masks[key]
        if not mask.any():
            continue
        rows = np.flatnonzero(mask)
        full = len(rows) == mask.shape[0]
        x_obs = x_test_imputed if full else x_test_imputed[rows]
        feat = np.fromiter(
            (models[t].feature_id for t in cols), dtype=np.intp, count=len(cols)
        )
        truths = x_test_targets[:, feat] if full else x_test_targets[np.ix_(rows, feat)]
        preds = np.empty((len(rows), len(cols)))
        for j, t in enumerate(cols):
            fm = models[t]
            # ascontiguousarray: the reference loop gathered with np.ix_
            # (C-contiguous); a bare column gather is F-contiguous and
            # gemv's transpose dispatch there is not bit-identical.
            x_member = np.ascontiguousarray(x_obs[:, fm.input_ids])
            predictor = fm.predictor
            if type(predictor) is RidgeRegressor:
                # The gemv predict() runs, minus its isfinite re-scan of
                # rows already validated at fit/impute time.
                preds[:, j] = x_member @ predictor.coef_ + predictor.intercept_
            else:
                preds[:, j] = predictor.predict(x_member)
        error_type = key[1]
        surprisal = error_type.batch_surprisal(
            [models[t].error_model for t in cols], preds, truths
        )
        entropy = np.array([models[t].entropy for t in cols])
        cols_arr = np.asarray(cols, dtype=np.intp)
        if full:
            out[:, cols_arr] = surprisal - entropy
        else:
            out[np.ix_(rows, cols_arr)] = surprisal - entropy


def score_contributions(
    models: list[FeatureModel],
    x_test_imputed: np.ndarray,
    x_test_targets: np.ndarray,
) -> np.ndarray:
    """NS contribution matrix ``(n_test, n_models)`` for fitted models.

    Missing test targets contribute exactly zero (the NS definition's
    "otherwise" branch). The batched gather runs under a ``score.batch``
    span (nested inside the caller's ``score.contributions``) so traces
    separate the hot scoring work from the preprocessing around it.
    Traces from before the scoring rewrite name the same work
    ``score.gather``; ``repro trace diff`` matches the two populations
    through their shared qualname.
    """
    n = x_test_imputed.shape[0]
    out = np.zeros((n, len(models)))
    with span("score.batch", attrs={"n_models": len(models), "n_samples": int(n)}):
        gather_surprisals(models, x_test_imputed, x_test_targets, out)
    return out
