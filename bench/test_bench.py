"""Self-tests of the benchmark harness (not of the package it measures).

    PYTHONPATH=src python -m pytest bench/ -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import child
import repro
import run
from layers import Tracer, self_times
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent


def tiny(name: str):
    """A workload shrunk to smoke size: one replicate at scale 1/256."""
    return replace(WORKLOADS[name], scale=1.0 / 256.0, n_replicates=1)


def run_one_op(workload, op, seed=7):
    inputs = child.load_inputs(workload, seed)
    return child.run_op(op, workload, child.settings_for(workload), inputs, seed, None)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),  # overlaps c: the union [1, 6] is covered once
        ("c", 0, 3.0, 6.0),
        ("d", 0, 8.0, 12.0),  # clipped to the parent's end: covers [8, 10]
        ("e", 1, 2.0, 3.0),
        ("b", -1, 20.0, 21.0),
    ]
    table = self_times(spans)
    assert table["a"] == (1, pytest.approx(3.0))
    assert table["b"] == (2, pytest.approx(2.0 + 1.0))
    assert table["c"] == (1, pytest.approx(3.0))
    assert table["d"] == (1, pytest.approx(4.0))
    assert table["e"] == (1, pytest.approx(1.0))


@pytest.mark.parametrize(
    "name, op",
    [("snp-full", Op("full", "autism", 0)), ("expr-full", Op("full", "bild", 0))],
)
def test_traced_run_observes_without_changing_scores(name, op, tmp_path):
    workload = tiny(name)
    inputs = child.load_inputs(workload, 7)
    settings = child.settings_for(workload)
    plain = child.run_op(op, workload, settings, inputs, 7, tmp_path)
    tracer = Tracer().install()
    try:
        tracer.active = True
        traced = child.run_op(op, workload, settings, inputs, 7, tmp_path)
    finally:
        tracer.uninstall()
    assert "error" not in plain and "error" not in traced
    assert traced["digest"] == plain["digest"]
    table = tracer.table()
    assert not tracer.missing
    assert table["eval.auc_score.calls"] == 1
    busiest = "learners.decision_tree.fit" if name == "snp-full" else "learners.batched.member"
    assert table[f"{busiest}.calls"] > 0 and table[f"{busiest}.self_s"] > 0
    if workload.persist:
        assert table["persistence.artifact_bytes"] > 0


def test_unresolvable_target_is_null_with_a_warning():
    auc_score = repro.auc_score
    tracer = Tracer(layers=("core.engine.no_such_entry", "no_such_module.fn", "eval.auc_score"))
    with pytest.warns(UserWarning, match="does not resolve"):
        tracer.install()
    try:
        assert repro.auc_score is not auc_score
        tracer.active = True
        repro.auc_score([0, 1], [0.2, 0.9])
        table = tracer.table()
    finally:
        tracer.uninstall()
    assert repro.auc_score is auc_score
    assert tracer.missing == ["core.engine.no_such_entry", "no_such_module.fn"]
    assert table["core.engine.no_such_entry.calls"] is None
    assert table["no_such_module.fn.self_s"] is None
    assert table["eval.auc_score.calls"] == 1


def test_an_op_that_raises_fails_without_aborting_the_run():
    workload = tiny("snp-full")
    ops = [Op("no_such_method", "autism", 0), Op("full", "autism", 0)]
    records = child.run_ops(
        ops, workload, child.settings_for(workload), child.load_inputs(workload, 7), 7, None
    )
    for record in records:
        record["workload"] = "snp-full"
    run.judge(records, 7, None)
    assert [("failure" in r) for r in records] == [True, False]
    assert "DataError" in records[0]["failure"]
    assert run.summarize(records)["wall_s"] == pytest.approx(records[1]["wall_s"])


def test_summary_sums_the_low_median_of_each_op():
    def record(key, wall):
        return {"key": key, "wall_s": wall, "cpu_s": wall, "fit_s": wall / 2,
                "score_s": wall / 4, "n_tasks": 10, "n_test": 5}

    records = [record("a", 1.0), record("b", 2.0), record("a", 3.0), {"key": "c", "error": "x"}]
    summary = run.summarize(records)
    assert summary["wall_s"] == pytest.approx(1.0 + 2.0)
    assert summary["models_per_s"] == pytest.approx(20 / 1.5)
    assert summary["score_samples_per_s"] == pytest.approx(10 / 0.75)


def test_judge_checks_digests_across_runs_and_the_reference_auc():
    ok = {"key": "full/autism/0", "workload": "snp-full", "auc": 0.5, "digest": "x"}
    records = [dict(ok), dict(ok, workload="snp-process"), dict(ok, digest="y")]
    run.judge(records, 7, None)
    assert all("differs" in r["failure"] for r in records)

    reference = {"seed": 7, "workloads": {"snp-full": {"ops": {"full/autism/0": {"auc": 0.6}}}}}
    records = [dict(ok)]
    run.judge(records, 7, reference)
    assert "reference" in records[0]["failure"]
    records = [dict(ok)]
    run.judge(records, 8, reference)  # another seed: AUCs are not checked
    assert "failure" not in records[0]


def test_process_and_serial_scores_are_identical():
    op = Op("full", "autism", 0)
    serial = run_one_op(tiny("snp-full"), op)
    pooled = run_one_op(tiny("snp-process"), op)
    assert "error" not in serial and "error" not in pooled
    assert pooled["digest"] == serial["digest"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == run.PER_LAYER


def test_without_the_package_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "snp-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
