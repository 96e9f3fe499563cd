"""Statistics for the paper's analyses.

Includes the hypergeometric enrichment probability the paper invokes in
§IV ("The hypergeometric probability of finding 2 out of the top 100 known
schizophrenia genes by sampling 20 from a pool of 4173 ... is 0.011"), and
summary helpers for replicate tables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.utils.exceptions import DataError


@dataclass(frozen=True)
class MeanStd:
    """Mean and standard deviation over replicates, formatted paper-style."""

    mean: float
    std: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.2f} ({self.std:.2f})"


def mean_std(values) -> MeanStd:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise DataError("cannot summarize zero values")
    # ddof=1 (sample std) when possible, matching the paper's replicate tables.
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return MeanStd(mean=float(arr.mean()), std=std, n=int(arr.size))


def _count(value) -> int:
    """``value`` as an int; a float count (even 2.0) is a caller error."""
    try:
        return operator.index(value)
    except TypeError:
        raise DataError(f"counts must be integers; got {value!r}") from None


def hypergeom_enrichment(
    n_hits: int, n_drawn: int, n_interesting: int, n_pool: int
) -> float:
    """P(X >= n_hits) for X ~ Hypergeom(pool, interesting, drawn).

    With the paper's numbers — 2 hits among the top 20 models, 100 known
    disease genes, pool of 4173 SNP features — P(X >= 2) is 0.0817; the
    paper's 0.011 is the strict tail P(X > 2), i.e. ``n_hits=3``
    (EXPERIMENTS.md, paper discrepancy 2).
    """
    n_hits, n_drawn, n_interesting, n_pool = (
        _count(v) for v in (n_hits, n_drawn, n_interesting, n_pool)
    )
    if min(n_hits, n_drawn, n_interesting, n_pool) < 0:
        raise DataError("hypergeometric arguments must be non-negative")
    if n_drawn > n_pool or n_interesting > n_pool:
        raise DataError("drawn/interesting counts cannot exceed the pool")
    if n_hits > min(n_drawn, n_interesting):
        raise DataError(
            f"{n_hits} hits are impossible in {n_drawn} draws "
            f"from {n_interesting} interesting features"
        )
    # Exact integer tail over C(pool, drawn) ways; int / int rounds once.
    ways = sum(
        math.comb(n_interesting, i) * math.comb(n_pool - n_interesting, n_drawn - i)
        for i in range(n_hits, min(n_drawn, n_interesting) + 1)
    )
    return ways / math.comb(n_pool, n_drawn)


def enrichment_of_top_models(
    ranked_feature_ids: np.ndarray,
    interesting_features: np.ndarray,
    n_top: int,
    n_pool: int,
) -> tuple[int, float]:
    """Hits and enrichment p-value of planted features among top models.

    ``ranked_feature_ids`` is most-predictive-first (e.g. from
    ``FRaC.model_quality()``); ``interesting_features`` is the planted
    ground truth (the synthetic stand-in for known disease genes).
    """
    n_top = _count(n_top)
    if n_top < 0:
        raise DataError(f"n_top must be non-negative; got {n_top}")
    ranked = np.asarray(ranked_feature_ids, dtype=np.intp)
    if np.unique(ranked).size != ranked.size:
        raise DataError("ranked_feature_ids repeats a feature id")
    top = ranked[:n_top]
    interesting = np.asarray(interesting_features, dtype=np.intp)
    n_hits = int(np.isin(top, interesting).sum())
    p = hypergeom_enrichment(n_hits, len(top), len(np.unique(interesting)), n_pool)
    return n_hits, p
