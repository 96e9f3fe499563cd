"""Table II: full-FRaC AUC, CPU time, and modelled memory per data set.

The schizophrenia row is extrapolated from autism, exactly as in the
paper. Absolute times/bytes reflect this machine and the bench scale; the
paper's AUC column is reprinted alongside for comparison. Performance is
measured and gated by ``bench/``, not here.
"""

from conftest import emit

from repro.data.compendium import COMPENDIUM
from repro.experiments import render_table, table2


def bench_table2(benchmark, settings, results_dir):
    rows = benchmark.pedantic(lambda: table2(settings), rounds=1, iterations=1)
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
