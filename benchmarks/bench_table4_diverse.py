"""Table IV: diverse FRaC (p=1/2) and diverse ensembles (10 x p=1/20) as
fractions of the full run.

Paper shape targets: AUC fractions ~1.0; time fractions ~0.1-0.6; memory
fractions ~0.4-0.8 (diverse is accurate but the most expensive variant).

This bench is also the perf-trajectory anchor for the masked-group
training path: diverse-FRaC tasks carry per-feature random input subsets,
which the engine groups by observed-row mask alone. The run writes the
``masked-gram`` entry of the committed ``BENCH_table4.json`` trajectory
that ``benchmarks/regress.py`` gates. The ``singleton-batch`` entry it is
priced against was measured with the retired exact-key engine, whose
flags are gone; it stays in the file as history (git history can replay
that engine).
"""

from conftest import emit, emit_json

from repro.experiments import average_fractions, render_table
from repro.experiments.study import (
    RUNNABLE_DATASETS,
    TABLE4_METHODS,
    _RESULT_CACHE,
    run_method_on_dataset,
)
from repro.parallel import profiling

PAPER_AVG = (
    "Paper Table IV averages: diverse AUC%=1.01 time%=0.346 mem%=0.641 | "
    "diverse-ens AUC%=1.02 time%=0.365 mem%=0.543"
)


def _run_table4(settings):
    """``study.table4`` with per-dataset wall timing alongside the rows."""
    rows, timings = [], []
    for dataset in RUNNABLE_DATASETS:
        w0 = profiling.wall_seconds()
        full = run_method_on_dataset("full", dataset, settings)
        for method in TABLE4_METHODS:
            result = run_method_on_dataset(method, dataset, settings)
            rows.append(result.as_fraction_of(full))
        timings.append((dataset, profiling.wall_seconds() - w0))
    return rows, timings


def _timed_run(settings):
    # A warm memo cache would time nothing.
    _RESULT_CACHE.clear()
    w0, c0 = profiling.wall_seconds(), profiling.cpu_seconds()
    rows, timings = _run_table4(settings)
    wall_s = profiling.wall_seconds() - w0
    cpu_s = profiling.cpu_seconds() - c0
    return rows, timings, wall_s, cpu_s


def bench_table4(benchmark, settings, results_dir):
    rows, timings, wall_s, cpu_s = benchmark.pedantic(
        lambda: _timed_run(settings), rounds=1, iterations=1
    )

    emit_json(
        results_dir,
        "BENCH_table4",
        {
            "scale": settings.scale,
            "sample_scale": settings.sample_scale,
            "n_replicates": settings.n_replicates,
            "wall_s": round(wall_s, 3),
            "cpu_s": round(cpu_s, 3),
            "rss_peak_bytes": profiling.peak_rss_bytes(),
            "rows": [
                {
                    "data_set": dataset,
                    "time_s": round(dataset_wall, 3),
                    "estimated": False,
                }
                for dataset, dataset_wall in timings
            ],
        },
        label="masked-gram",
    )

    text = "\n\n".join(
        [
            render_table(rows, title="Table IV: diverse / diverse-ensemble vs full FRaC"),
            render_table(average_fractions(rows), title="Table IV: averages"),
            PAPER_AVG,
        ]
    )
    emit(results_dir, "table4_diverse", text)
