"""Table IV: diverse FRaC (p=1/2) and diverse ensembles (10 x p=1/20) as
fractions of the full run.

Paper shape targets: AUC fractions ~1.0; time fractions ~0.1-0.6; memory
fractions ~0.4-0.8 (diverse is accurate but the most expensive variant).
"""

from conftest import emit

from repro.experiments import average_fractions, render_table, table4

PAPER_AVG = (
    "Paper Table IV averages: diverse AUC%=1.01 time%=0.346 mem%=0.641 | "
    "diverse-ens AUC%=1.02 time%=0.365 mem%=0.543"
)


def bench_table4(benchmark, settings, results_dir):
    rows = benchmark.pedantic(lambda: table4(settings), rounds=1, iterations=1)
    text = "\n\n".join(
        [
            render_table(rows, title="Table IV: diverse / diverse-ensemble vs full FRaC"),
            render_table(average_fractions(rows), title="Table IV: averages"),
            PAPER_AVG,
        ]
    )
    emit(results_dir, "table4_diverse", text)
