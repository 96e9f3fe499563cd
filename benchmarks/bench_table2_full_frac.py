"""Table II: full-FRaC AUC, CPU time, and modelled memory per data set.

The schizophrenia row is extrapolated from autism, exactly as in the
paper. Absolute times/bytes reflect this machine and the bench scale; the
paper's AUC column is reprinted alongside for comparison.

This bench is also the repo's perf-trajectory anchor: the run executes
under a fracscope trace (``BENCH_table2_trace.jsonl``) and writes
``BENCH_table2.json`` — wall, CPU, peak RSS, and features/sec at the
default scale — so successive PRs leave comparable numbers on disk. The
trace supplies the feature-task count and is then condensed to its run
and span events; compare it with an earlier run through
``python -m repro trace diff``. The frozen Table II traces that
``tests/telemetry/test_diff.py`` pins live in ``tests/telemetry/fixtures/``,
so re-running this bench never moves a test pin.
"""

import numpy as np
from conftest import capture_trace, condense_trace, emit, emit_json

from repro.data.compendium import COMPENDIUM
from repro.experiments import render_table, table2
from repro.learners.registry import BATCHED_CLASSIFIERS, supports_batching
from repro.parallel import profiling
from repro.telemetry.trace import read_trace, summarize_trace


def bench_table2(benchmark, settings, results_dir):
    trace_path = results_dir / "BENCH_table2_trace.jsonl"

    def run():
        with capture_trace(trace_path):
            return table2(settings)

    wall0, cpu0 = profiling.wall_seconds(), profiling.cpu_seconds()
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    wall_s = profiling.wall_seconds() - wall0
    cpu_s = profiling.cpu_seconds() - cpu0

    summary = summarize_trace(read_trace(trace_path))
    n_feature_tasks = sum(summary.task_status_counts.values())
    condense_trace(trace_path)
    expr = settings.expression_config
    # The trajectory label names the engine generation this run measured,
    # so BENCH_table2.json keeps one entry per generation and the bench
    # regression test can compare throughput across them.
    # The batched engine ships masked training and batched scoring
    # together, so one label covers both halves of the rewrite; the
    # autism row's trees grow in groups too when the SNP classifier has a
    # group counterpart.
    snp = settings.snp_config
    group_tree = BATCHED_CLASSIFIERS.get(snp.classifier)
    if not supports_batching(expr.regressor):
        label = f"per-feature-{expr.regressor}"
    # Genotype designs are small integer codes, so the SNP classifier's
    # parameters decide whether the planner groups its trees.
    elif group_tree is not None and group_tree.accepts(snp.classifier_params, np.zeros((1, 1))):
        label = "batched-trees"
    else:
        label = "batched-scoring"
    emit_json(
        results_dir,
        "BENCH_table2",
        {
            "scale": settings.scale,
            "sample_scale": settings.sample_scale,
            "n_replicates": settings.n_replicates,
            "wall_s": round(wall_s, 3),
            "cpu_s": round(cpu_s, 3),
            "rss_peak_bytes": profiling.peak_rss_bytes(),
            "n_feature_tasks": n_feature_tasks,
            "features_per_s": round(n_feature_tasks / wall_s, 3) if wall_s > 0 else None,
            "n_trace_events": summary.n_events,
            "rows": [
                {
                    "data_set": row["data set"],
                    "auc_mean": None if row["auc"] is None else round(row["auc"].mean, 4),
                    "auc_std": None if row["auc"] is None else round(row["auc"].std, 4),
                    "time_s": round(row["time_s"], 3),
                    "estimated": row["estimated"],
                }
                for row in rows
            ],
        },
        label=label,
    )

    for row in rows:
        entry = COMPENDIUM[row["data set"]]
        row["paper AUC"] = entry.paper_full_auc
        row["mem_mb"] = row.pop("mem_bytes") / 1e6
    text = render_table(
        rows,
        columns=["data set", "auc", "paper AUC", "time_s", "mem_mb", "estimated"],
        title="Table II: full FRaC runs (AUC measured vs paper; cost at bench scale)",
    )
    emit(results_dir, "table2_full_frac", text)
