"""BatchedTreeClassifier vs the dense sorted sweep: tree-for-tree equality.

``BatchedTreeClassifier(**p).fit_group(x, ys, ids, train=t, models=ms)``
grows every member's tree level by level for the whole group; the
contract (see :class:`repro.learners.decision_tree._GroupClassifierBuilder`)
is that ``ms[j].tree_`` equals the tree the dense sweep grows on
``x[t][:, ids[j]]`` and ``ys[j, t]`` (``_ClassifierBuilder.build``, the
oracle of ``dense_tree``) on all five arrays (``np.array_equal``, same
dtypes), and that the returned predictions equal that tree's ``predict``
at every row of ``x`` — the holdout rows included.
"""

import numpy as np
import pytest

from repro import FRaC, FRaCConfig
from repro.core.engine import FeatureTask, SharedTrainState, plan_feature_batches
from repro.learners import decision_tree
from repro.learners.decision_tree import (
    BatchedTreeClassifier,
    DecisionTreeClassifier,
    _ClassifierBuilder,
    _TermTable,
)
from repro.learners.registry import BATCHED_CLASSIFIERS
from tests.learners.test_decision_tree import FIELDS, dense_tree


def assert_group_matches(x, ys, ids, params, train=None):
    """Group-fit every member and compare with the dense sweep's tree."""
    train = np.arange(len(x)) if train is None else np.asarray(train)
    models = [DecisionTreeClassifier(**params) for _ in ids]
    preds = BatchedTreeClassifier(**params).fit_group(x, ys, ids, train=train, models=models)
    assert preds.shape == (len(ids), len(x))
    for j, member_ids in enumerate(ids):
        ref = dense_tree(x[np.ix_(train, member_ids)], ys[j, train], **params)
        got = models[j]
        for field in FIELDS:
            a, b = getattr(got.tree_, field), getattr(ref, field)
            assert a.dtype == b.dtype, (j, field)
            assert np.array_equal(a, b), (j, field, params)
        assert got.n_nodes == ref.n_nodes
        if len(member_ids):
            assert np.array_equal(preds[j], ref.predict(x[:, member_ids])), (j, params)
            assert np.array_equal(got.predict(x[:, member_ids]), preds[j])


def snp_group(rng, n, d, k, arity, n_classes=None):
    """Integer design plus ``k`` targets, half copied from input columns."""
    x = rng.integers(0, arity, size=(n, d)).astype(np.float64)
    ys = rng.integers(0, n_classes or arity, size=(k, n)).astype(np.float64)
    for j in range(0, k, 2):
        ys[j] = x[:, rng.integers(d)]
    return x, ys


class TestTreeForTree:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_depth", range(1, 9))
    def test_depths_and_criteria(self, criterion, max_depth):
        rng = np.random.default_rng(max_depth)
        x, ys = snp_group(rng, 90, 10, 6, 3)
        ids = [np.delete(np.arange(10), j) for j in range(6)]
        assert_group_matches(x, ys, ids, dict(criterion=criterion, max_depth=max_depth))

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 3, 10, 45, 46])
    @pytest.mark.parametrize("min_samples_split", [2, 4, 91])
    def test_leaf_and_split_floors(self, min_samples_leaf, min_samples_split):
        rng = np.random.default_rng(min_samples_leaf * 100 + min_samples_split)
        x, ys = snp_group(rng, 90, 8, 4, 3)
        ids = [np.arange(8)] * 4
        assert_group_matches(
            x,
            ys,
            ids,
            dict(
                max_depth=6,
                min_samples_leaf=min_samples_leaf,
                min_samples_split=min_samples_split,
            ),
        )

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_arities(self, arity):
        rng = np.random.default_rng(arity)
        x, ys = snp_group(rng, 70, 9, 5, arity)
        ids = [rng.permutation(9)[: rng.integers(1, 10)] for _ in range(5)]
        assert_group_matches(x, ys, ids, dict(max_depth=5, min_samples_leaf=1))

    def test_codes_up_to_the_table_cap(self):
        # Codes 0..15 are the largest the group search takes.
        rng = np.random.default_rng(16)
        x, ys = snp_group(rng, 120, 6, 4, 16, n_classes=11)
        assert_group_matches(x, ys, [np.arange(6)] * 4, dict(max_depth=8, min_samples_leaf=1))

    def test_class_absent_from_fold_training_rows(self):
        # Class 2 of member 0 lives only in the holdout rows, so the fold
        # tree knows two classes; member 1 keeps all three.
        rng = np.random.default_rng(7)
        x, ys = snp_group(rng, 60, 5, 2, 3)
        ys[0] = rng.integers(0, 2, 60)
        holdout = np.arange(50, 60)
        ys[0, holdout[:4]] = 2
        train = np.arange(50)
        assert_group_matches(x, ys, [np.arange(5)] * 2, dict(max_depth=4), train=train)

    def test_single_class_member_is_a_leaf(self):
        rng = np.random.default_rng(8)
        x, ys = snp_group(rng, 40, 4, 3, 3)
        ys[1] = 1.0
        assert_group_matches(x, ys, [np.arange(4)] * 3, dict(max_depth=4))

    def test_constant_and_tied_columns(self):
        rng = np.random.default_rng(9)
        x, ys = snp_group(rng, 80, 8, 4, 3)
        x[:, 0] = 1.0  # constant: no boundary at all
        x[:, 3] = x[:, 2]  # tied twin: equal impurities everywhere
        x[:, 6] = 2.0 - x[:, 5]  # mirrored: same split, other side
        ys[0] = x[:, 2]
        assert_group_matches(x, ys, [np.arange(8)] * 4, dict(max_depth=6))

    def test_constant_design(self):
        x = np.zeros((30, 4))
        ys = np.random.default_rng(10).integers(0, 3, (2, 30)).astype(np.float64)
        assert_group_matches(x, ys, [np.arange(4)] * 2, dict(max_depth=3))

    def test_unsorted_ids_tie_break_by_position(self):
        """Tied twin columns: the tree must pick the twin that comes first
        in the member's ``ids``, not the one with the smaller global id."""
        rng = np.random.default_rng(11)
        x, ys = snp_group(rng, 80, 6, 3, 3)
        x[:, 4] = x[:, 1]
        ys[:] = x[:, 1]
        ids = [np.array([4, 0, 1, 5]), np.array([1, 3, 4]), np.array([5, 2, 0, 4, 3, 1])]
        assert_group_matches(x, ys, ids, dict(max_depth=3))
        models = [DecisionTreeClassifier(max_depth=3) for _ in ids]
        BatchedTreeClassifier(max_depth=3).fit_group(x, ys, ids, models=models)
        # Member 0 splits on its position 0 (global 4) and member 1 on its
        # position 0 (global 1): the twin that comes first in each.
        assert models[0].tree_.feature[0] == 0
        assert models[1].tree_.feature[0] == 0

    def test_repeated_ids_tie_break_by_first_position(self):
        """A repeated input keeps its first position, which can exceed the
        number of distinct columns the group uses: a mirrored twin splits
        the root with left sizes ``a`` and ``a + 1`` at equal impurity,
        and the smaller size must win as in the dense search."""
        rng = np.random.default_rng(15)
        x = np.ones((41, 2))
        x[rng.permutation(41)[:20], 0] = 0.0
        x[:, 1] = 1.0 - x[:, 0]
        ys = np.stack([x[:, 0], x[:, 1]])
        ids = [np.array([1, 1, 1, 0]), np.array([0, 1])]
        assert_group_matches(x, ys, ids, dict(max_depth=2))
        models = [DecisionTreeClassifier(max_depth=2) for _ in ids]
        BatchedTreeClassifier(max_depth=2).fit_group(x, ys, ids, models=models)
        # 20 rows hold code 0 in column 0 and 21 in column 1, so column 0's
        # boundary leaves the smaller left side, wherever it sits in ids.
        assert models[0].tree_.feature[0] == 3
        assert models[1].tree_.feature[0] == 0

    def test_member_without_inputs(self):
        rng = np.random.default_rng(12)
        x, ys = snp_group(rng, 40, 5, 3, 3)
        ids = [np.arange(5), np.zeros(0, dtype=np.intp), np.array([2])]
        assert_group_matches(x, ys, ids, dict(max_depth=4))

    def test_non_integer_columns_outside_the_members_inputs(self):
        # Only the columns some member uses must be integer coded.
        rng = np.random.default_rng(13)
        x, ys = snp_group(rng, 50, 6, 2, 3)
        x[:, 5] = rng.normal(size=50)
        assert_group_matches(x, ys, [np.arange(5), np.array([4, 2])], dict(max_depth=4))

    def test_random_groups(self):
        """Random shapes, parameters, folds and wiring in one sweep."""
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(5, 90))
            d = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            x, ys = snp_group(rng, n, d, k, int(rng.integers(2, 5)))
            ids = [rng.permutation(d)[: rng.integers(0, d + 1)] for _ in range(k)]
            params = dict(
                criterion=["gini", "entropy"][int(rng.integers(2))],
                max_depth=int(rng.integers(1, 9)),
                min_samples_leaf=int(rng.integers(1, 4)),
                min_samples_split=int(rng.integers(2, 7)),
            )
            train = np.sort(rng.permutation(n)[: max(1, int(0.8 * n))])
            assert_group_matches(x, ys, ids, params, train=train)

    def test_random_groups_with_repeated_ids(self):
        """Input selectors drawn with replacement, on binary columns where
        equal-impurity boundaries are common."""
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            x, ys = snp_group(rng, n, d, k, 2)
            ids = [rng.integers(0, d, size=rng.integers(1, 3 * d + 2)) for _ in range(k)]
            params = dict(max_depth=int(rng.integers(1, 5)), min_samples_leaf=1)
            assert_group_matches(x, ys, ids, params)


def per_side_impurities(criterion, counts, n_classes):
    """The dense sweep's ``_impurity_from_counts`` on each side's own classes."""
    builder = _ClassifierBuilder(
        criterion, np.empty(0), max_depth=1, min_samples_leaf=1, min_samples_split=2
    )
    return np.array(
        [
            builder._impurity_from_counts(
                side[:k][None, :], np.array([[float(side.sum())]])
            )[0]
            for side, k in zip(counts, n_classes)
        ]
    )


class TestTermTable:
    """Table impurities against the dense sweep's, bit for bit."""

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_entries", [_TermTable.MAX_ENTRIES, 0])
    def test_every_two_class_side(self, criterion, max_entries, monkeypatch):
        # Every (c, t) with t <= 64, as the two-class side (c, t - c); with
        # max_entries 0 the terms are computed on the fly.
        monkeypatch.setattr(_TermTable, "MAX_ENTRIES", max_entries)
        n = 64
        t, c = np.nonzero(np.tril(np.ones((n + 1, n + 1), dtype=bool)))
        t, c = t[t > 0], c[t > 0]
        counts = np.stack([c, t - c], axis=1)
        table = _TermTable(criterion, n, np.array([2]))
        assert (table.table is None) == (max_entries == 0)
        got = table.impurity(counts.T + t * table.stride)
        want = per_side_impurities(criterion, counts, np.full(len(t), 2))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("widest", [4, 7, 8, 9, 16])
    def test_members_with_different_class_counts(self, criterion, widest):
        """Zero-padded columns: sums below eight columns stay left to
        right; wider groups sum each member's own width."""
        rng = np.random.default_rng(widest)
        n_classes = np.array([1, 2, 3, widest - 1, widest])
        owner = rng.integers(0, len(n_classes), 400)
        counts = np.zeros((400, widest), dtype=np.intp)
        for i, k in enumerate(n_classes[owner]):
            counts[i, :k] = rng.integers(0, 12, k)
        counts[counts.sum(axis=1) == 0, 0] = 1
        sizes = counts.sum(axis=1)
        table = _TermTable(criterion, int(sizes.max()), n_classes)
        assert (table.width is None) == (widest < 8)
        got = table.impurity(counts.T + sizes * table.stride, owner)
        assert np.array_equal(got, per_side_impurities(criterion, counts, n_classes[owner]))


class TestMixedClassCounts:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_one_to_four_classes_in_one_level(self, criterion):
        rng = np.random.default_rng(18)
        x = rng.integers(0, 3, size=(80, 6)).astype(np.float64)
        ys = np.stack([rng.integers(0, k, 80) for k in (1, 2, 3, 4)]).astype(np.float64)
        ys[3, :4] = np.arange(4)  # every class present
        assert_group_matches(x, ys, [np.arange(6)] * 4, dict(criterion=criterion, max_depth=5))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_class_counts_across_the_sequential_sum_width(self, criterion):
        # 2, 5, 9 and 12 classes: padded rows of 12 would change the sums
        # of the 5-class member, so the level sums by width.
        rng = np.random.default_rng(19)
        x = rng.integers(0, 4, size=(150, 5)).astype(np.float64)
        ys = np.stack([rng.integers(0, k, 150) for k in (2, 5, 9, 12)]).astype(np.float64)
        ys[:, :12] = np.minimum(np.arange(12), [[1], [4], [8], [11]])
        assert_group_matches(
            x, ys, [np.arange(5)] * 4, dict(criterion=criterion, max_depth=6, min_samples_leaf=1)
        )

    def test_without_a_term_table(self, monkeypatch):
        monkeypatch.setattr(_TermTable, "MAX_ENTRIES", 0)
        rng = np.random.default_rng(20)
        x, ys = snp_group(rng, 70, 6, 4, 3)
        for criterion in ("gini", "entropy"):
            assert_group_matches(x, ys, [np.arange(6)] * 4, dict(criterion=criterion, max_depth=6))


class TestContract:
    def test_fold_builds_skip_tree_assembly(self):
        rng = np.random.default_rng(0)
        x, ys = snp_group(rng, 30, 4, 2, 3)
        preds = BatchedTreeClassifier().fit_group(x, ys, [np.arange(4)] * 2)
        assert preds.shape == (2, 30)

    def test_rejects_non_integer_designs(self):
        x = np.full((10, 2), 0.5)
        with pytest.raises(ValueError, match="integer codes"):
            BatchedTreeClassifier().fit_group(x, np.zeros((1, 10)), [np.arange(2)])
        assert not BatchedTreeClassifier.accepts(x)
        assert not BatchedTreeClassifier.accepts(np.full((4, 2), 16.0))
        assert not BatchedTreeClassifier.accepts(np.full((4, 2), -1.0))
        assert BatchedTreeClassifier.accepts(np.full((4, 2), 15.0))

    def test_rejects_non_finite_targets(self):
        ys = np.zeros((1, 10))
        ys[0, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            BatchedTreeClassifier().fit_group(np.zeros((10, 2)), ys, [np.arange(2)])

    def test_parameters_validate_like_the_per_feature_tree(self):
        with pytest.raises(ValueError, match="criterion"):
            BatchedTreeClassifier(criterion="mse")
        with pytest.raises(ValueError, match="max_depth"):
            BatchedTreeClassifier(max_depth=0)

    def test_registry(self):
        assert BATCHED_CLASSIFIERS == {"tree": BatchedTreeClassifier}
        assert BatchedTreeClassifier.accepts(np.zeros((4, 2)))


class TestFloat32RowBound:
    """Designs at the float32 exactness bound grow per feature, by the dense sweep."""

    CONFIG = FRaCConfig(
        regressor="ridge", classifier="tree", classifier_params={"max_depth": 4}, n_folds=3
    )

    def test_accepts_stops_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(decision_tree, "_FLOAT32_EXACT_ROWS", 10)
        assert BatchedTreeClassifier.accepts(np.zeros((9, 2)))
        assert not BatchedTreeClassifier.accepts(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="fewer than 10"):
            BatchedTreeClassifier().fit_group(np.zeros((10, 2)), np.zeros((1, 10)), [np.arange(2)])

    def test_groups_at_the_bound_go_per_feature(self, snp_replicate, per_feature_path, monkeypatch):
        rep = snp_replicate
        assert not np.isnan(rep.x_train).any()  # every group's design has all the rows
        with per_feature_path():
            reference = FRaC(self.CONFIG, rng=5).fit(rep.x_train, rep.schema)
        monkeypatch.setattr(decision_tree, "_FLOAT32_EXACT_ROWS", len(rep.x_train))
        x = rep.x_train
        tasks = [
            FeatureTask(feature_id=j, input_ids=np.delete(np.arange(x.shape[1]), j), seed=j)
            for j in range(x.shape[1])
        ]
        shared = SharedTrainState(x_imputed=x, x_targets=x, schema=rep.schema, config=self.CONFIG)
        batches, passthrough = plan_feature_batches(tasks, shared)
        assert batches == [] and passthrough == list(range(len(tasks)))
        bounded = FRaC(self.CONFIG, rng=5).fit(rep.x_train, rep.schema)
        for a, b in zip(bounded.models_, reference.models_):
            for field in FIELDS:
                assert np.array_equal(
                    getattr(a.predictor.tree_, field), getattr(b.predictor.tree_, field)
                )
        np.testing.assert_array_equal(bounded.score(rep.x_test), reference.score(rep.x_test))

