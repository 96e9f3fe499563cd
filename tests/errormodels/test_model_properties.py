"""Cross-model property tests: surprisal and entropy cohere in NS terms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.gaussian import GaussianErrorModel
from tests.errormodels.reference import GaussianKDE, discrete_entropy


class TestNSTermCoherence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), n=st.integers(20, 120))
    def test_unpredictable_discrete_feature_centers_near_zero(self, seed, n):
        """If predictions carry no information (random predictions of a
        feature), mean surprisal approaches the feature's entropy, so the
        NS term (surprisal - entropy) centres near zero — footnote 2 of
        the paper, generalized."""
        gen = np.random.default_rng(seed)
        truths = gen.integers(0, 3, size=n).astype(float)
        preds = gen.integers(0, 3, size=n).astype(float)
        em = ConfusionErrorModel(arity=3, smoothing=0.5).fit(preds, truths)
        mean_term = float(em.surprisal(preds, truths).mean()) - discrete_entropy(truths)
        # Smoothing and finite samples leave a small bias either way; the
        # point is that the term is near zero, not +-H(feature) ~ 1.1 nats.
        assert -0.5 < mean_term < 0.7

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_unpredictable_continuous_feature_centers_near_zero(self, seed):
        gen = np.random.default_rng(seed)
        truths = gen.standard_normal(400)
        preds = np.zeros(400)  # mean prediction = no information
        em = GaussianErrorModel().fit(preds, truths)
        entropy = GaussianKDE().fit(truths).entropy()
        mean_term = float(em.surprisal(preds, truths).mean()) - entropy
        assert abs(mean_term) < 0.25

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), noise=st.floats(0.01, 0.2))
    def test_predictable_feature_gives_negative_term_on_normals(self, seed, noise):
        """A well-predicted feature has surprisal below its entropy: its NS
        term is negative for conforming samples — that is the headroom an
        anomaly spends when it breaks the relationship."""
        gen = np.random.default_rng(seed)
        truths = gen.standard_normal(300)
        preds = truths + noise * gen.standard_normal(300)
        em = GaussianErrorModel().fit(preds, truths)
        entropy = GaussianKDE().fit(truths).entropy()
        mean_term = float(em.surprisal(preds, truths).mean()) - entropy
        assert mean_term < -0.3

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_anomalous_residual_raises_term(self, seed):
        gen = np.random.default_rng(seed)
        truths = gen.standard_normal(200)
        preds = truths + 0.1 * gen.standard_normal(200)
        em = GaussianErrorModel().fit(preds, truths)
        typical = float(em.surprisal(np.array([0.0]), np.array([0.05]))[0])
        broken = float(em.surprisal(np.array([0.0]), np.array([3.0]))[0])
        assert broken > typical + 1.0
