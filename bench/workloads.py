"""The benchmark's workloads and its seeding scheme.

Stdlib only: the parent process reads this table before it spawns the
children that import numpy, so it can pin their BLAS threads first.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

DEFAULT_SEED = 2017

EXPRESSION_SETS = (
    "breast.basal",
    "biomarkers",
    "ethnic",
    "bild",
    "smokers2",
    "hematopoiesis",
)

VARIANTS = ("random_ensemble", "jl", "entropy", "diverse", "diverse_ensemble")


def crc(text: str) -> int:
    """Process-independent string hash used in every seed."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class Op:
    """One (method, data set, replicate) fit -> score -> AUC."""

    method: str
    dataset: str
    replicate: int

    @property
    def key(self) -> str:
        return f"{self.method}/{self.dataset}/{self.replicate}"


@dataclass(frozen=True)
class Workload:
    """A fixed list of ops, run back to back by one closed-loop client.

    ``workers > 1`` runs every fit through the process pool
    (``ExecutionConfig(mode="process")``); ``persist`` sends each fitted
    detector through ``save_detector`` -> ``load_detector`` before it
    scores.
    """

    name: str
    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    scale: float
    why: str
    n_replicates: int = 5
    workers: int = 1
    persist: bool = False

    def ops(self) -> list[Op]:
        return [
            Op(method, dataset, r)
            for dataset in self.datasets
            for method in self.methods
            for r in range(self.n_replicates)
        ]

    def blas_threads(self, nproc: int) -> int:
        """BLAS threads per process, keeping the total at or below ``nproc``."""
        return max(1, nproc // self.workers)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "expr-full",
            ("full",),
            EXPRESSION_SETS,
            1.0 / 64.0,
            "full FRaC on the six expression sets: wide per-member ridge Gram + "
            "Cholesky dominates; the only workload with the save/load round trip",
            persist=True,
        ),
        Workload(
            "expr-variants",
            VARIANTS,
            ("ethnic", "hematopoiesis"),
            1.0 / 64.0,
            "the five paper variants: many narrow ridge members, so dispatch, KDE "
            "entropy and projection/filtering/ensemble code dominate, not flops",
        ),
        Workload(
            "snp-full",
            ("full",),
            ("autism",),
            1.0 / 32.0,
            "full FRaC on all-categorical SNP data: depth-6 tree split search is "
            "nearly all the time and the ridge layers do nothing",
        ),
        Workload(
            "snp-process",
            ("full",),
            ("autism",),
            1.0 / 32.0,
            "snp-full through a 2-worker process pool (fork, chunked map, result "
            "pickling); snp-full is its single-process baseline",
            workers=2,
        ),
    )
}
