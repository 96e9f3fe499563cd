"""An ensemble's members share one prepared training set.

``FRaCEnsemble.fit`` preprocesses the training matrix once and computes
each target's entropy once, then hands that :class:`TrainingSet` to every
member. Sharing must move no bit: each member equals the same member
(same seed) fitted alone, in serial and process mode. The spies count the
work that sharing saves.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core import frac
from repro.core.config import FRaCConfig
from repro.core.ensemble import diverse_ensemble, random_filter_ensemble
from repro.core.imputation import Preprocessor
from repro.data.replicates import make_replicate
from repro.data.synthetic import ExpressionConfig, make_expression_dataset
from repro.errormodels import entropy, kde
from repro.parallel import ExecutionConfig
from repro.utils.exceptions import DataError
from repro.utils.rng import spawn_seeds

N_MEMBERS = 3
SEED = 11

ENSEMBLES = {
    "diverse": lambda config: diverse_ensemble(
        p=0.1, n_members=N_MEMBERS, config=config, rng=SEED
    ),
    "random_filter": lambda config: random_filter_ensemble(
        p=0.3, n_members=N_MEMBERS, config=config, rng=SEED
    ),
}


@pytest.fixture(scope="module")
def replicate():
    """Expression data with missing values, so targets fall into several
    observed-mask groups."""
    cfg = ExpressionConfig(
        n_features=30,
        n_normal=45,
        n_anomaly=10,
        n_modules=3,
        module_size=6,
        missing_rate=0.02,
        name="sharing",
    )
    return make_replicate(make_expression_dataset(cfg, rng=5), rng=1)


def config_for(mode):
    execution = ExecutionConfig(mode=mode, n_workers=2 if mode == "process" else 1)
    return replace(FRaCConfig.fast(), execution=execution)


def assert_same_member(shared, alone, x_test):
    np.testing.assert_array_equal(shared.score(x_test), alone.score(x_test))
    ours, theirs = shared._inner.models_, alone._inner.models_
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.feature_id == b.feature_id
        np.testing.assert_array_equal(a.input_ids, b.input_ids)
        np.testing.assert_array_equal(a.predictor.coef_, b.predictor.coef_)
        assert np.array_equal(a.predictor.intercept_, b.predictor.intercept_)
        assert np.array_equal(a.entropy, b.entropy)
        assert np.array_equal(a.cv_mean_surprisal, b.cv_mean_surprisal)


@pytest.mark.parametrize("mode", ["serial", "process"])
@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
def test_members_equal_members_fitted_alone(kind, mode, replicate):
    rep = replicate
    ensemble = ENSEMBLES[kind](config_for(mode)).fit(rep.x_train, rep.schema)
    for i, seed in enumerate(spawn_seeds(SEED, N_MEMBERS)):
        alone = ensemble.member_factory(i, seed).fit(rep.x_train, rep.schema)
        assert_same_member(ensemble.members_[i], alone, rep.x_test)


def _spy(monkeypatch, func, log):
    """Wrap ``func`` at every ``repro`` module attribute bound to it, so
    callers that imported it by name are counted too."""

    def wrapper(*args, **kwargs):
        log.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, wrapper)


@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
def test_one_preprocessing_and_one_entropy_per_target(kind, replicate, monkeypatch):
    rep = replicate
    fits, entropy_calls = [], []
    preprocessor_fit = Preprocessor.fit
    monkeypatch.setattr(
        Preprocessor, "fit", lambda self, x: fits.append(x) or preprocessor_fit(self, x)
    )
    _spy(monkeypatch, kde.batch_entropy, entropy_calls)
    ensemble = ENSEMBLES[kind](config_for("serial")).fit(rep.x_train, rep.schema)
    assert len(fits) == 1
    targets = set()
    for member in ensemble.members_:
        targets.update(int(m.feature_id) for m in member._inner.models_)
    # Each batch_entropy call holds one row per target; every target that
    # got a model is counted exactly once.
    assert sum(samples.shape[0] for (samples, *_) in entropy_calls) == len(targets)


def test_snp_discrete_entropies_once_per_target(snp_replicate, monkeypatch):
    rep = snp_replicate
    calls = []
    _spy(monkeypatch, entropy.batch_discrete_entropy, calls)
    config = FRaCConfig.paper_snp(classifier_params={"max_depth": 3}, n_folds=3)
    ensemble = random_filter_ensemble(p=0.3, n_members=N_MEMBERS, config=config, rng=SEED)
    ensemble.fit(rep.x_train, rep.schema)
    targets = set()
    for member in ensemble.members_:
        targets.update(int(m.feature_id) for m in member._inner.models_)
    assert sum(values.shape[0] for (values, *_) in calls) == len(targets)


def test_a_training_set_serves_only_its_standardization(replicate):
    rep = replicate
    training = frac.TrainingSet(rep.x_train, rep.schema, standardize=True)
    with pytest.raises(DataError, match="standardize"):
        frac.FRaC(FRaCConfig.fast(standardize=False)).fit_prepared(training)


def test_entropies_cover_only_the_modelled_targets(replicate):
    rep = replicate
    training = frac.TrainingSet(rep.x_train, rep.schema)
    few = training.entropies(np.array([3, 1, 3]), min_observed=4)
    assert np.flatnonzero(~np.isnan(few)).tolist() == [1, 3]
    every = training.entropies(np.arange(len(rep.schema)), min_observed=4)
    np.testing.assert_array_equal(every[[1, 3]], few[[1, 3]])
    alone = frac.TrainingSet(rep.x_train, rep.schema).entropies(np.arange(len(rep.schema)), 4)
    np.testing.assert_array_equal(every, alone)
    # A target under min_observed gets no model, hence no entropy.
    assert np.isnan(training.entropies(np.array([0]), min_observed=len(rep.x_train) + 1)).all()
