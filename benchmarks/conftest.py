"""Shared benchmark fixtures.

Benchmarks run the paper's protocol at a reduced feature scale (DESIGN.md
§5). Environment overrides allow dialing the fidelity/cost trade-off:

- ``REPRO_BENCH_SCALE``      feature-scale factor (default 1/64)
- ``REPRO_BENCH_REPLICATES`` replicates per data set (default 5, as in
  the paper)
- ``REPRO_BENCH_SAMPLES``    sample-scale factor (default 1.0 = paper
  sample counts)

Each bench writes its rendered table/series to ``benchmarks/results/`` so
the regenerated artifacts survive pytest's output capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import DEFAULT_BENCH_SCALE, StudySettings, default_study

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def settings() -> StudySettings:
    return default_study(
        scale=float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_BENCH_SCALE)),
        sample_scale=float(os.environ.get("REPRO_BENCH_SAMPLES", 1.0)),
        n_replicates=int(os.environ.get("REPRO_BENCH_REPLICATES", 5)),
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/results/."""
    print(f"\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
