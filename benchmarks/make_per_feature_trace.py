"""Regenerate the per-feature-linear-svr Table II reference trace.

One-shot companion to ``bench_table2_full_frac.py``: runs Table II with
the paper's exact per-feature linear-SVR expression engine (the
``per-feature-linear-svr`` trajectory label in ``BENCH_table2.json``)
under a fracscope trace, condenses it, and leaves
``BENCH_table2_trace_per_feature.jsonl`` in ``benchmarks/results/`` next
to the batched trace. Diff the two to read the per-feature → batched
improvement from trace data alone::

    python -m repro trace diff \
        benchmarks/results/BENCH_table2_trace_per_feature.jsonl \
        benchmarks/results/BENCH_table2_trace.jsonl

The frozen copies in ``tests/telemetry/fixtures/`` hold the >=10x pin of
``tests/telemetry/test_diff.py``; this script never writes them. Takes a
few minutes at the default bench scale — the per-feature engine is the
slow generation by design.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import RESULTS_DIR, capture_trace, condense_trace  # noqa: E402

from repro.core.config import FRaCConfig  # noqa: E402
from repro.experiments import default_study, table2  # noqa: E402


def main() -> int:
    settings = default_study(
        expression_config=FRaCConfig.paper_expression(),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_path = RESULTS_DIR / "BENCH_table2_trace_per_feature.jsonl"
    with capture_trace(trace_path):
        table2(settings)
    condense_trace(trace_path)
    print(f"wrote {trace_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
