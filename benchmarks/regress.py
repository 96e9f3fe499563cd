"""Perf-regression gate: a candidate checkout against a base checkout on ``bench/``.

Usage::

    python benchmarks/regress.py BASE_CHECKOUT CANDIDATE_CHECKOUT

Both paths are source checkouts of this repository. The gate reads the
benchmark's driver command, run length, workloads and end-to-end metrics
with their bounds from the **base** checkout's ``BENCHMARK.json``, so a
change cannot loosen the bounds it is judged by. For :data:`PAIRS` pairs
it runs, for every workload::

    <command> --workload W --seed p --seconds <run_seconds> --trace 0

once in each checkout (``cwd`` set to it; pair ``p`` uses seed ``p`` on
both sides, and the base side goes first in even pairs and second in odd
ones), and parses the last stdout line, ``{"correct", "attempted",
"failed", "metrics"}``. Each (workload, metric) then compares the base
median ``p`` with the candidate median ``c``:

- ``worse`` is ``(c - p) / p`` for a lower-is-better metric and
  ``(p - c) / p`` for a higher-is-better one;
- ``spread`` is the base runs' interquartile range over ``p``;
- **REGRESSION** when ``worse > bound`` and ``spread <= bound``;
  **unresolved** when ``spread > bound``, unless every candidate run beats
  every base run; **ok** otherwise.

Per workload, a candidate whose share of failed ops is larger than the
base's, or a candidate run that printed no result, is a REGRESSION too.

Exit codes: 0 = no regression (unresolved metrics are printed but do not
block), 1 = regression, 2 = unusable input (a missing checkout or
``BENCHMARK.json``, or a base run with no result).

Stdlib only, and it imports neither ``repro`` nor ``bench/``: each side's
driver imports its own checkout's code.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Alternating base/candidate pairs per workload; pair p runs seed p.
PAIRS = 10


class GateError(Exception):
    """The input cannot support a verdict."""


def load_benchmark(checkout: Path) -> dict:
    path = checkout / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise GateError(f"cannot read {path}: {exc}") from None


def run_driver(command: list, checkout: Path, workload: str, seed: int, seconds: float) -> "dict | None":
    """One driver run in ``checkout``; its parsed result line, or ``None``."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if {"attempted", "failed", "metrics"} <= result.keys():
            return result
    except (IndexError, ValueError, AttributeError):
        pass
    tail = out.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    print(f"  {checkout} {workload} seed {seed}: no result, exit {out.returncode}: {tail[0]}",
          file=sys.stderr)
    return None


def _spread(values: list, median: float) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def judge(end_to_end: list, workload: str, base: list, cand: list) -> list:
    """Verdict rows for one workload.

    ``end_to_end`` is the ``BENCHMARK.json`` list of metrics; ``base`` and
    ``cand`` are the parsed result lines of the pairs, ``None`` where a
    run printed none. Each row is a dict with ``workload``, ``metric``,
    ``base``, ``cand``, ``spread``, ``worse``, ``verdict`` and ``note``.
    """
    if not base or any(r is None for r in base):
        raise GateError(f"{workload}: a base run printed no result")
    parsed = [r for r in cand if r is not None]
    rows = []
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in parsed if name in r["metrics"]]
        p = statistics.median(b)
        if p <= 0:
            raise GateError(f"{workload} {name}: base median {p} is not positive")
        spread = _spread(b, p)
        row = {"workload": workload, "metric": name, "base": p, "cand": None,
               "spread": spread, "worse": None, "verdict": "REGRESSION", "note": ""}
        rows.append(row)
        if not c:
            row["note"] = "no candidate value"
            continue
        row["cand"] = m = statistics.median(c)
        lower = spec["better"] == "lower"
        row["worse"] = worse = (m - p) / p if lower else (p - m) / p
        beats = max(c) < min(b) if lower else min(c) > max(b)
        if spread > bound and not beats:
            row["verdict"] = "unresolved"
        elif worse <= bound or spread > bound:
            row["verdict"] = "ok"

    def fail_share(results):
        attempted = sum(r["attempted"] for r in results)
        return sum(r["failed"] for r in results) / attempted if attempted else 0.0

    p, c = fail_share(base), fail_share(parsed)
    missing = len(cand) - len(parsed)
    rows.append({
        "workload": workload, "metric": "fail_rate", "base": p, "cand": c,
        "spread": None, "worse": c - p,
        "verdict": "REGRESSION" if c > p or missing else "ok",
        "note": f"{missing} candidate run(s) without a result" if missing else "",
    })
    return rows


def render(rows: list) -> str:
    def cell(x, spec, width):
        return f"{'-' if x is None else format(x, spec):>{width}s}"

    lines = [f"{'workload':14s} {'metric':20s} {'base':>11s} {'cand':>11s} "
             f"{'spread':>7s} {'worse':>7s}  verdict"]
    for r in rows:
        line = (f"{r['workload']:14s} {r['metric']:20s} {cell(r['base'], '.4g', 11)} "
                f"{cell(r['cand'], '.4g', 11)} {cell(r['spread'], '.1%', 7)} "
                f"{cell(r['worse'], '+.1%', 7)}  {r['verdict']}")
        lines.append(f"{line}  ({r['note']})" if r["note"] else line)
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python benchmarks/regress.py BASE_CHECKOUT CANDIDATE_CHECKOUT",
              file=sys.stderr)
        return 2
    base_dir, cand_dir = (Path(a).resolve() for a in args)
    try:
        for checkout in (base_dir, cand_dir):
            if not checkout.is_dir():
                raise GateError(f"no checkout at {checkout}")
        spec = load_benchmark(base_dir)
        workloads = [w["name"] for w in spec["workloads"]]
        runs = {w: ([], []) for w in workloads}
        for pair in range(PAIRS):
            for workload in workloads:
                sides = [(base_dir, 0), (cand_dir, 1)]
                for checkout, side in sides if pair % 2 == 0 else sides[::-1]:
                    result = run_driver(spec["command"], checkout, workload, pair,
                                        spec["run_seconds"])
                    if result is None and side == 0:
                        raise GateError(f"{workload}: base run {pair} printed no result")
                    runs[workload][side].append(result)
            print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr)
        rows = [row for w in workloads for row in judge(spec["end_to_end"], w, *runs[w])]
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(r["verdict"] == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
