"""One benchmark child: set up one workload, measure it, print one JSON line.

``run.py`` starts every child in a fresh interpreter with the BLAS thread
pins already in its environment, so set-up time includes the imports and
the pins hold from the first numpy import::

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T [--setup-only]

Set-up, reported as ``setup_s`` and counted from ``--t0`` (the parent's
clock just before it started this process): imports, generating every
replicate of the workload, and the warm-up ops (:func:`warmup_ops`).
The measured phase runs the workload's ops back to back, one closed-loop
client with no arrival schedule: one full pass, then further ops in the
same round-robin order while the next one still fits in ``--seconds``.
With ``--trace 1`` it runs one untraced pass, measured as usual, and then
one traced pass whose ops score once; ``--seconds`` is ignored.

The child only measures. ``run.py`` judges the records: failures,
reference AUCs and digest agreement.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro
from repro.experiments import StudySettings, make_detector
from repro.parallel import ExecutionConfig

from layers import Tracer
from workloads import WORKLOADS, Op, Workload, crc

ROOT = Path(__file__).resolve().parent.parent

#: Scorings per op (see :func:`run_op`); traced runs score once.
SCORE_REPEATS = 3


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (the pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """max(self, children) resident set high-water mark, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def settings_for(workload: Workload) -> StudySettings:
    settings = StudySettings(scale=workload.scale, n_replicates=workload.n_replicates)
    if workload.workers > 1:
        execution = ExecutionConfig(mode="process", n_workers=workload.workers)
        settings = replace(
            settings,
            expression_config=replace(settings.expression_config, execution=execution),
            snp_config=replace(settings.snp_config, execution=execution),
        )
    return settings


def load_inputs(workload: Workload, seed: int) -> dict:
    """Every replicate of every data set of the workload, from ``seed``."""
    return {
        dataset: repro.load_replicates(
            dataset,
            workload.n_replicates,
            scale=workload.scale,
            rng=np.random.default_rng(np.random.SeedSequence([seed, crc(dataset)])),
        )
        for dataset in workload.datasets
    }


def digest(scores: np.ndarray) -> str:
    """sha256 of the NS score bytes."""
    return hashlib.sha256(np.ascontiguousarray(scores, dtype=np.float64).tobytes()).hexdigest()


def run_op(
    op: Op,
    workload: Workload,
    settings: StudySettings,
    inputs: dict,
    seed: int,
    scratch: "Path | None",
    *,
    score_repeats: int = SCORE_REPEATS,
) -> dict:
    """One fit -> (save -> load) -> score -> AUC. Never raises: a failure
    is returned as the record's ``error``.

    After the timed op the detector scores the test set ``score_repeats
    - 1`` more times; ``score_s`` is the median of all scorings, which
    last only tens of milliseconds each. A repeat that changes a score
    bit fails the op.
    """
    record: dict = {"key": op.key}
    try:
        rep = inputs[op.dataset][op.replicate]
        detector = make_detector(
            op.method,
            op.dataset,
            settings,
            rng=np.random.SeedSequence([seed, crc(op.dataset), crc(op.method), op.replicate]),
        )
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        detector.fit(rep.x_train, rep.schema)
        t1 = time.perf_counter()
        if workload.persist:
            path = scratch / f"{op.method}-{op.dataset}-{op.replicate}.pkl"
            repro.save_detector(detector, path, schema=rep.schema)
            detector, _ = repro.load_detector(path, expected_schema=rep.schema)
            path.unlink()
        t2 = time.perf_counter()
        scores = np.asarray(detector.score(rep.x_test), dtype=np.float64)
        t3 = time.perf_counter()
        auc = repro.auc_score(rep.y_test, scores)
        t4 = time.perf_counter()
        cpu1 = cpu_seconds()
        n_tasks = int(detector.resources.n_tasks)
        score_times = [t3 - t2]
        repeatable = True
        for _ in range(score_repeats - 1):
            t = time.perf_counter()
            again = np.asarray(detector.score(rep.x_test), dtype=np.float64)
            score_times.append(time.perf_counter() - t)
            repeatable = repeatable and np.array_equal(again, scores, equal_nan=True)
    except Exception as exc:  # an op failure is a measurement, not a crash
        traceback.print_exc(file=sys.stderr)
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(
        wall_s=t4 - t0,
        cpu_s=cpu1 - cpu0,
        fit_s=t1 - t0,
        persist_s=t2 - t1,
        score_s=statistics.median(score_times),
        n_tasks=n_tasks,
        n_test=int(scores.shape[0]),
        auc=float(auc),
        digest=digest(scores),
    )
    if not np.isfinite(scores).all():
        record["error"] = "non-finite score"
    elif not repeatable:
        record["error"] = "scoring the same detector twice changed a score"
    return record


def warmup_ops(workload: Workload) -> list[Op]:
    """Replicate 0 of every (method, data set) pair, run untimed before the
    child is ready.

    A warm-up at a smaller scale leaves one-time costs in the first timed
    pass: multi-threaded OpenBLAS calls start slow (about 1 s over the
    first hundred-odd wide Gram products of ``expr-full``), and their
    matrix shapes appear only at the workload's own scale.
    """
    return [Op(method, dataset, 0) for dataset in workload.datasets for method in workload.methods]


def run_ops(
    ops, workload, settings, inputs, seed, scratch, *, seconds=0.0, score_repeats=SCORE_REPEATS
) -> list[dict]:
    """Run ``ops`` once, then keep cycling through them while the next op's
    last duration still fits in ``seconds`` from the start."""
    records: list[dict] = []
    last: dict[str, float] = {}
    start = time.perf_counter()
    for n in itertools.count():
        op = ops[n % len(ops)]
        if n >= len(ops) and time.perf_counter() - start + last[op.key] > seconds:
            break
        t = time.perf_counter()
        record = run_op(op, workload, settings, inputs, seed, scratch, score_repeats=score_repeats)
        last[op.key] = time.perf_counter() - t
        records.append(record)
    return records


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    settings = settings_for(workload)
    tracer = Tracer().install() if args.trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        scratch = Path(tmp)
        if tracer is not None:
            tracer.active = True
        inputs = load_inputs(workload, args.seed)
        if tracer is not None:
            tracer.active = False
        for op in warmup_ops(workload):
            warm = run_op(op, workload, settings, inputs, args.seed, scratch)
            if "error" in warm:
                print(f"warm-up op {op.key} failed: {warm['error']}", file=sys.stderr)
        setup_s = time.time() - args.t0
        result: dict = {"setup_s": setup_s}
        if not args.setup_only:
            ops = workload.ops()
            common = (workload, settings, inputs, args.seed, scratch)
            records = run_ops(ops, *common, seconds=0.0 if tracer else args.seconds)
            # Before the traced pass: its spans are not the program's memory.
            result["peak_rss_mb"] = peak_rss_mb()
            if tracer is not None:
                tracer.active = True
                traced = run_ops(ops, *common, score_repeats=1)
                tracer.active = False
                plain = sum(r.get("wall_s", 0.0) for r in records)
                result["traced_wall_s"] = sum(r.get("wall_s", 0.0) for r in traced)
                result["layers"] = tracer.table()
                result["layers"]["trace.overhead_frac"] = (
                    result["traced_wall_s"] / plain - 1.0 if plain else None
                )
                records += [dict(r, traced=True) for r in traced]
            result["records"] = records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
