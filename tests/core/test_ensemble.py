"""Tests for FRaC ensembles and the median combine rule (paper §II-C)."""

import numpy as np
import pytest

from repro.core.ensemble import (
    FRaCEnsemble,
    combine_contributions,
    diverse_ensemble,
    random_filter_ensemble,
)
from repro.core.filtering import FilteredFRaC
from repro.core.types import ContributionMatrix
from repro.eval.auc import auc_score
from repro.utils.exceptions import DataError, NotFittedError


def _cm(values, ids):
    return ContributionMatrix(
        values=np.asarray(values, dtype=float), feature_ids=np.asarray(ids, dtype=np.intp)
    )


class TestCombineContributions:
    def test_single_member_is_plain_sum(self):
        cm = _cm([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        np.testing.assert_allclose(combine_contributions([cm]), [3.0, 7.0])

    def test_median_across_members(self):
        members = [
            _cm([[1.0]], [5]),
            _cm([[10.0]], [5]),
            _cm([[2.0]], [5]),
        ]
        # Median of 1, 10, 2 = 2.
        np.testing.assert_allclose(combine_contributions(members), [2.0])

    def test_disjoint_features_add(self):
        members = [_cm([[1.0]], [0]), _cm([[2.0]], [1])]
        np.testing.assert_allclose(combine_contributions(members), [3.0])

    def test_slots_sum_within_member_before_median(self):
        # One member covers feature 0 with two slots (1 + 2 = 3);
        # another covers it once with 5. Median(3, 5) = 4.
        members = [_cm([[1.0, 2.0]], [0, 0]), _cm([[5.0]], [0])]
        np.testing.assert_allclose(combine_contributions(members), [4.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            combine_contributions([])

    def test_mismatched_samples_rejected(self):
        with pytest.raises(DataError):
            combine_contributions([_cm([[1.0]], [0]), _cm([[1.0], [2.0]], [0])])

    def test_even_member_count_midpoint(self):
        members = [_cm([[0.0]], [0]), _cm([[10.0]], [0])]
        np.testing.assert_allclose(combine_contributions(members), [5.0])


class TestFRaCEnsemble:
    def test_member_count(self, expression_replicate, fast_config):
        rep = expression_replicate
        ens = random_filter_ensemble(p=0.2, n_members=4, config=fast_config, rng=0)
        ens.fit(rep.x_train, rep.schema)
        assert len(ens.members_) == 4

    def test_members_get_different_filters(self, expression_replicate, fast_config):
        rep = expression_replicate
        ens = random_filter_ensemble(p=0.2, n_members=4, config=fast_config, rng=0)
        ens.fit(rep.x_train, rep.schema)
        kept_sets = {tuple(m.kept_features_.tolist()) for m in ens.members_}
        assert len(kept_sets) > 1

    def test_ensemble_beats_single_filter_stability(self, expression_dataset, fast_config):
        """The paper's motivation: single small filters are unstable;
        ensembles stabilize the AUC. Variance across seeds must shrink."""
        from repro.data.replicates import make_replicate

        rep = make_replicate(expression_dataset, rng=0)
        singles, ensembles = [], []
        for seed in range(5):
            s = FilteredFRaC(p=0.15, config=fast_config, rng=seed).fit(rep.x_train, rep.schema)
            singles.append(auc_score(rep.y_test, s.score(rep.x_test)))
            e = random_filter_ensemble(p=0.15, n_members=5, config=fast_config, rng=seed)
            e.fit(rep.x_train, rep.schema)
            ensembles.append(auc_score(rep.y_test, e.score(rep.x_test)))
        assert np.std(ensembles) <= np.std(singles) + 0.02
        assert np.mean(ensembles) >= np.mean(singles) - 0.02

    def test_resources_accumulate_time_max_memory(self, expression_replicate, fast_config):
        rep = expression_replicate
        ens = random_filter_ensemble(p=0.2, n_members=3, config=fast_config, rng=0)
        ens.fit(rep.x_train, rep.schema)
        total = ens.resources
        members = [m.resources for m in ens.members_]
        assert total.cpu_seconds == pytest.approx(sum(m.cpu_seconds for m in members))
        assert total.memory_bytes == max(m.memory_bytes for m in members)

    def test_diverse_ensemble_runs(self, expression_replicate, fast_config):
        rep = expression_replicate
        ens = diverse_ensemble(p=0.1, n_members=3, config=fast_config, rng=0)
        ens.fit(rep.x_train, rep.schema)
        scores = ens.score(rep.x_test)
        assert np.isfinite(scores).all()
        assert auc_score(rep.y_test, scores) > 0.6

    def test_unfitted(self):
        ens = random_filter_ensemble(n_members=2)
        with pytest.raises(NotFittedError):
            ens.score(np.zeros((1, 2)))
        with pytest.raises(NotFittedError):
            _ = ens.resources

    def test_bad_member_count(self):
        with pytest.raises(DataError):
            FRaCEnsemble(lambda i, s: None, n_members=0)

    @pytest.mark.parametrize("n_members", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_member_count_must_be_an_integer(self, n_members):
        with pytest.raises(DataError, match="n_members"):
            FRaCEnsemble(lambda i, s: None, n_members=n_members)
        with pytest.raises(DataError, match="n_members"):
            diverse_ensemble(n_members=n_members)

    def test_deterministic(self, expression_replicate, fast_config):
        rep = expression_replicate
        a = random_filter_ensemble(p=0.2, n_members=3, config=fast_config, rng=4)
        b = random_filter_ensemble(p=0.2, n_members=3, config=fast_config, rng=4)
        a.fit(rep.x_train, rep.schema)
        b.fit(rep.x_train, rep.schema)
        np.testing.assert_array_equal(a.score(rep.x_test), b.score(rep.x_test))

    def test_structure_lists_members(self, expression_replicate, fast_config):
        rep = expression_replicate
        ens = random_filter_ensemble(p=0.2, n_members=3, config=fast_config, rng=0)
        ens.fit(rep.x_train, rep.schema)
        assert len(ens.structure()) == 3
