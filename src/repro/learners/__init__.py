"""Learner substrate: from-scratch SVMs, CART trees, ridge, and dummies."""

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
from repro.learners.registry import (
    BATCHED_CLASSIFIERS,
    BATCHED_REGRESSORS,
    CLASSIFIERS,
    REGRESSORS,
    make_learner,
)
from repro.learners.ridge import RidgeRegressor

__all__ = [
    "BaseLearner",
    "Regressor",
    "Classifier",
    "BatchedRidge",
    "BatchedTreeClassifier",
    "LinearSVR",
    "LinearSVC",
    "RidgeRegressor",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "KNNRegressor",
    "KNNClassifier",
    "CategoricalNB",
    "MeanRegressor",
    "MajorityClassifier",
    "REGRESSORS",
    "CLASSIFIERS",
    "BATCHED_REGRESSORS",
    "BATCHED_CLASSIFIERS",
    "make_learner",
]
