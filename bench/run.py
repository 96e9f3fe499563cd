"""The repository benchmark: four FRaC workloads, end-to-end and per-layer metrics.

Run from the repository root (no install, no PYTHONPATH needed)::

    python3 bench/run.py [--seed 2017] [--repeats 5] [--trace] [--out FILE]

runs every workload ``--repeats`` times, each run in a fresh child
process, round-robin across repeats, and prints every end-to-end metric
as median [q1, q3] n. With ``--trace`` the last repeat of each workload
also runs a traced pass, and its per-layer table is printed. ``--out``
writes the whole result as JSON; without it nothing is written into the
tree. The exit code is 1 if any op failed a check.

::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for ``S`` seconds (``--trace 1``: one untraced and
one traced pass instead) and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.

An op fails if it raises, if a score is not finite, if (at the
reference seed) its AUC is more than 1e-9 from ``bench/reference.json``,
or if its score digest differs between two runs of the same op in one
invocation, traced and untraced runs and ``snp-full`` against
``snp-process`` included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import DERIVED, LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

#: End-to-end metrics: name -> (unit, better, regression bound as a share
#: of the parent's median). ``BENCHMARK.json`` carries the same table.
#: Times get the largest bound: on a shared VM the machine itself runs
#: 10-30% slower for minutes at a time (bench/README.md).
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "models_per_s": ("models/s", "higher", 0.25),
    "score_samples_per_s": ("samples/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

#: Per-layer metrics (``--trace``): name -> (unit, better), in reporting order.
PER_LAYER = {
    f"{layer}.{kind}": (unit, "lower")
    for layer in LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
}
PER_LAYER.update({metric: (unit, better) for metric, (_, unit, better) in DERIVED.items()})
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")

#: Setup-only children per single-workload run; with the measuring child,
#: ``setup_s`` is the median of one more than this.
SETUP_PROBES = 2

#: A single-workload invocation must end within 180 s; leave room to report.
DEADLINE_S = 170.0

AUC_TOLERANCE = 1e-9


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- environment ------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:  # no git executable
        return None
    return out.stdout.strip() or None


def fingerprint(**run) -> dict:
    """What produced a result: software, BLAS, machine, commit, settings."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: w.blas_threads(nproc()) for name, w in WORKLOADS.items()},
        "cpu": cpu_model(),
        "nproc": nproc(),
        "commit": git_commit(),
        **run,
    }


def child_env(workload) -> dict:
    env = dict(os.environ)
    threads = str(workload.blas_threads(nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(name: str, seed: int, *, seconds=0.0, trace=0, setup_only=False, timeout=600.0) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--t0", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        out = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(WORKLOADS[name]),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: child exceeded {timeout:.0f} s") from None
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise BenchError(f"{name}: child exited with code {out.returncode}")
    return json.loads(lines[-1])


# -- judging and summarizing --------------------------------------------------


def load_reference() -> "dict | None":
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else None


def judge(records: list[dict], seed: int, reference: "dict | None") -> None:
    """Set ``record["failure"]`` on every record that fails a check.

    Records carry their ``workload``; two records of the same op key at
    the same scale must have equal score digests, whichever workload,
    pass or tracing state produced them.
    """
    check_auc = reference is not None and reference.get("seed") == seed
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        if "error" in record:
            record["failure"] = record["error"]
            continue
        groups.setdefault((record["key"], WORKLOADS[record["workload"]].scale), []).append(record)
        if check_auc:
            ref = reference["workloads"].get(record["workload"], {}).get("ops", {})
            expected = ref.get(record["key"], {}).get("auc")
            if expected is not None and abs(record["auc"] - expected) > AUC_TOLERANCE:
                record["failure"] = f"AUC {record['auc']!r} != reference {expected!r}"
    for group in groups.values():
        if len({r["digest"] for r in group}) > 1:
            for record in group:
                record.setdefault("failure", "score digest differs between runs of this op")


def summarize(records: list[dict]) -> dict[str, float]:
    """Pass-level metrics from op records: per op the low median over its
    runs, then summed over ops.

    Other tenants of a shared machine slow single ops by up to a third for
    a second or two. Runs of one op are spread over the run by the
    round-robin order, so a median per op rejects such a spike; the *low*
    median does so with two runs as well.
    """
    per_op: dict[str, list[dict]] = {}
    for record in records:
        if "error" not in record:
            per_op.setdefault(record["key"], []).append(record)
    if not per_op:
        return {}

    def total(field: str) -> float:
        return sum(statistics.median_low(r[field] for r in runs) for runs in per_op.values())

    models = sum(runs[0]["n_tasks"] for runs in per_op.values())
    samples = sum(runs[0]["n_test"] for runs in per_op.values())
    return {
        "wall_s": total("wall_s"),
        "cpu_s": total("cpu_s"),
        "models_per_s": models / total("fit_s"),
        "score_samples_per_s": samples / total("score_s"),
    }


def workload_digest(records: list[dict]) -> "str | None":
    """sha256 over the op digests of the first run of each op, in op order."""
    first: dict[str, str] = {}
    for record in records:
        if "digest" in record:
            first.setdefault(record["key"], record["digest"])
    if not first:
        return None
    return hashlib.sha256("".join(first.values()).encode("ascii")).hexdigest()


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


# -- one workload, one JSON line ----------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    print(f"# {json.dumps(fingerprint(seed=seed, workload=name, seconds=seconds, trace=trace))}")

    def left() -> float:
        return deadline - time.monotonic()

    if trace:
        result = spawn(name, seed, trace=1, timeout=left())
        metrics = {}
        for metric, (unit, _) in PER_LAYER.items():
            value = result["layers"].get(metric)
            if value is None:
                print(f"warning: {metric} has no value; reported as 0", file=sys.stderr)
                value = 0.0
            metrics[metric] = {"value": value, "unit": unit}
    else:
        setups = [
            spawn(name, seed, setup_only=True, timeout=left())["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        result = spawn(name, seed, seconds=seconds, timeout=left())
        values = summarize(result["records"])
        values["peak_rss_mb"] = result["peak_rss_mb"]
        values["setup_s"] = statistics.median(setups + [result["setup_s"]])
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, (unit, _, _) in END_TO_END.items()
            if metric in values
        }
    records = result["records"]
    for record in records:
        record["workload"] = name
    judge(records, seed, load_reference())
    failed = sum("failure" in r for r in records)
    for record in records:
        if "failure" in record:
            print(f"FAILED {record['key']}: {record['failure']}", file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"{name:14s} {metric:48s} {entry['value']:14.6g} {entry['unit']}")
    aucs = [r["auc"] for r in records if "auc" in r]
    print(
        f"{name}: {len(records)} ops, {failed} failed, digest {workload_digest(records)}, "
        f"mean AUC {statistics.fmean(aucs) if aucs else float('nan'):.4f}"
    )
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


# -- aggregate mode: every workload, repeats, optional traced run --------------


def run_all(seed: int, repeats: int, trace: bool, reference: "dict | None") -> dict:
    """Every workload ``repeats`` times, round-robin; with ``trace`` the last
    repeat of each workload is a traced child, whose untraced pass counts
    as that repeat."""
    names = list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    records: list[dict] = []
    for repeat in range(repeats):
        for name in names:
            traced_run = trace and repeat == repeats - 1
            result = spawn(name, seed, trace=int(traced_run))
            for record in result["records"]:
                record.update(workload=name, repeat=repeat)
            records += result["records"]
            values = summarize([r for r in result["records"] if not r.get("traced")])
            values.update(setup_s=result["setup_s"], peak_rss_mb=result["peak_rss_mb"])
            runs[name].append(values)
            if traced_run:
                traced[name] = result
            print(
                f"  repeat {repeat + 1}/{repeats} {name}: wall {values.get('wall_s', 0):.2f} s"
                + (" (+ traced pass)" if traced_run else ""),
                file=sys.stderr,
            )
    judge(records, seed, reference)

    workloads = {}
    for name in names:
        mine = [r for r in records if r["workload"] == name]
        untraced = [r for r in mine if not r.get("traced")]
        failed = sum("failure" in r for r in mine)
        aucs = [r["auc"] for r in untraced if "auc" in r and r["repeat"] == 0]
        digest = workload_digest(untraced)
        ref = (reference or {}).get("workloads", {}).get(name, {})
        workloads[name] = {
            "why": WORKLOADS[name].why,
            "metrics": {
                metric: quartiles([run[metric] for run in runs[name] if metric in run])
                for metric in END_TO_END
                if any(metric in run for run in runs[name])
            },
            "attempted": len(mine),
            "failed": failed,
            "fail_rate": failed / len(mine) if mine else 1.0,
            "failures": sorted({f"{r['key']}: {r['failure']}" for r in mine if "failure" in r}),
            "digest": digest,
            "digest_matches_reference": (digest == ref["digest"]) if "digest" in ref else None,
            "mean_auc": statistics.fmean(aucs) if aucs else None,
            "ops": {
                r["key"]: {"auc": r["auc"], "digest": r["digest"]}
                for r in untraced
                if r["repeat"] == 0 and "digest" in r
            },
            "layers": traced.get(name, {}).get("layers"),
            "traced_wall_s": traced.get(name, {}).get("traced_wall_s"),
        }
    return workloads


def print_report(header: dict, workloads: dict) -> None:
    print(f"# {json.dumps(header)}")
    print(f"{'workload':14s} {'metric':20s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n")
    for name, w in workloads.items():
        for metric, (unit, _, _) in END_TO_END.items():
            if metric in w["metrics"]:
                s = w["metrics"][metric]
                print(
                    f"{name:14s} {metric:20s} {unit:10s} {s['median']:12.5g} "
                    f"{s['q1']:12.5g} {s['q3']:12.5g}  {s['n']}"
                )
        auc = "n/a" if w["mean_auc"] is None else f"{w['mean_auc']:.4f}"
        print(
            f"{name:14s} fail_rate {w['failed']}/{w['attempted']} = {w['fail_rate']:.3f}; "
            f"digest {w['digest']}; mean AUC {auc}"
        )
        for failure in w["failures"]:
            print(f"{name:14s}   FAILED {failure}")
    for name, w in workloads.items():
        layers = w["layers"]
        if not layers:
            continue
        print(
            f"\n# per-layer, traced run of {name}: self time, descending, and its share "
            f"of the traced pass ({w['traced_wall_s']:.3f} s)"
        )
        selfs = sorted(
            (k for k in layers if k.endswith(".self_s") and layers[k]),
            key=lambda k: -layers[k],
        )
        for key in selfs:
            layer = key[: -len(".self_s")]
            share = layers[key] / w["traced_wall_s"] if w["traced_wall_s"] else float("nan")
            print(
                f"{layer:48s} {layers[key]:10.4f} s {share:7.1%} {layers[layer + '.calls']:>9d} calls"
            )
        for key, (unit, _) in PER_LAYER.items():
            if not key.endswith((".calls", ".self_s")):
                value = layers.get(key)
                shown = "null" if value is None else f"{value:.6g}"
                print(f"{key:48s} {shown:>10s} {unit}")
        missing = [k for k, v in layers.items() if v is None and k.endswith(".calls")]
        if missing:
            print(f"unresolved: {', '.join(k[: -len('.calls')] for k in missing)}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="trace the last repeat (bare flag), or with --workload: 0 or 1",
    )
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this one workload")
    parser.add_argument("--seconds", type=float, default=15.0, help="with --workload: seconds to measure")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
            return 0
        header = fingerprint(seed=args.seed, repeats=args.repeats, trace=bool(args.trace))
        workloads = run_all(args.seed, args.repeats, bool(args.trace), load_reference())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(header, workloads)
    if args.out is not None:
        args.out.write_text(
            json.dumps({"fingerprint": header, "workloads": workloads}, indent=1) + "\n",
            encoding="utf-8",
        )
    return 1 if any(w["failed"] for w in workloads.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
