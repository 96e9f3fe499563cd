"""Tests for FRaCConfig."""

import numpy as np
import pytest

from repro.core.config import FRaCConfig
from repro.utils.exceptions import DataError


class TestFRaCConfig:
    def test_defaults_are_paper_settings(self):
        cfg = FRaCConfig()
        assert cfg.regressor == "linear_svr"  # libSVM linear SVM stand-in
        assert cfg.classifier == "tree"       # Waffles tree stand-in
        assert cfg.n_folds == 5

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_folds=1),
            dict(n_predictors=0),
            dict(min_observed=1),
            dict(sigma_floor=0.0),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(DataError):
            FRaCConfig(**kw)

    @pytest.mark.parametrize("name", ["n_folds", "n_predictors", "min_observed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(DataError, match=name):
            FRaCConfig(**{name: value})

    def test_numpy_integer_counts_are_accepted(self):
        cfg = FRaCConfig(n_folds=np.int64(3), n_predictors=np.int32(2), min_observed=np.int8(4))
        assert (cfg.n_folds, cfg.n_predictors, cfg.min_observed) == (3, 2, 4)

    @pytest.mark.parametrize("name", ["sigma_floor", "confusion_smoothing"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.5])
    def test_error_model_params_must_be_positive_and_finite(self, name, value):
        with pytest.raises(DataError, match=name):
            FRaCConfig(**{name: value})
        with pytest.raises(DataError, match=name):
            FRaCConfig.fast(**{name: value})

    def test_paper_constructors(self):
        assert FRaCConfig.paper_expression().regressor == "linear_svr"
        assert FRaCConfig.paper_snp().classifier == "tree"

    def test_fast_overrides(self):
        cfg = FRaCConfig.fast(n_folds=2)
        assert cfg.regressor == "ridge" and cfg.n_folds == 2

    def test_frozen(self):
        with pytest.raises(Exception):
            FRaCConfig().n_folds = 3
