"""Meta-tests on the benchmark suite (structure, not execution) and on the
judge of the pairwise perf gate, ``benchmarks/regress.py``."""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


class TestBenchSuiteStructure:
    def test_every_paper_artifact_has_a_bench(self):
        names = {p.stem for p in BENCH_FILES}
        for required in (
            "bench_table1_datasets",
            "bench_table2_full_frac",
            "bench_table3_filter_jl_entropy",
            "bench_table4_diverse",
            "bench_table5_schizophrenia",
            "bench_fig1_structure",
            "bench_fig2_preprojection",
            "bench_fig3_jl_dimension_sweep",
        ):
            assert required in names, f"missing bench for {required}"

    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
    def test_bench_file_shape(self, path):
        """Each bench: module docstring, exactly one bench_* function that
        takes the benchmark fixture and emits an artifact."""
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{path.name} has no docstring"
        bench_funcs = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("bench_")
        ]
        assert len(bench_funcs) == 1, f"{path.name} must define exactly one bench"
        args = {a.arg for a in bench_funcs[0].args.args}
        assert {"benchmark", "settings", "results_dir"} <= args
        source = path.read_text(encoding="utf-8")
        assert "benchmark.pedantic" in source
        assert re.search(r"emit\(results_dir,", source), f"{path.name} never emits"

    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
    def test_bench_imports_resolve(self, path):
        """Every repro import a bench makes must exist (catches drift
        between the harness and the library without running the bench)."""
        import importlib

        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{path.name}: {node.module}.{alias.name} missing"
                    )


def _load_gate():
    spec = importlib.util.spec_from_file_location("bench_regress", BENCH_DIR / "regress.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(failed=0, **values):
    """One driver result line with every end-to-end metric at a fixed value."""
    metrics = {"wall_s": 10.0, "cpu_s": 12.0, "models_per_s": 100.0,
               "score_samples_per_s": 5000.0, "peak_rss_mb": 120.0, "setup_s": 2.0}
    metrics.update(values)
    return {"correct": failed == 0, "attempted": 5, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def _runs(scale=1.0, **fixed):
    """Ten runs with a 2% wiggle; ``scale`` multiplies ``wall_s``."""
    return [_result(wall_s=10.0 * scale * (1 + 0.01 * (i % 3)), **fixed) for i in range(10)]


class TestPairwiseGate:
    """The judge of ``benchmarks/regress.py``, on synthetic result lines."""

    @pytest.fixture(scope="class")
    def gate(self):
        return _load_gate()

    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    def _judge(self, gate, spec, cand_by_workload):
        rows = []
        for w in spec["workloads"]:
            cand = cand_by_workload.get(w["name"], _runs())
            rows += gate.judge(spec["end_to_end"], w["name"], _runs(), cand)
        return rows

    def test_identical_runs_pass(self, gate, spec):
        rows = self._judge(gate, spec, {})
        assert len(rows) == len(spec["workloads"]) * (len(spec["end_to_end"]) + 1)
        assert {r["verdict"] for r in rows} == {"ok"}

    def test_slower_wall_on_one_workload_is_named(self, gate, spec):
        rows = self._judge(gate, spec, {"snp-full": _runs(scale=1.3)})
        flagged = [(r["workload"], r["metric"]) for r in rows if r["verdict"] != "ok"]
        assert flagged == [("snp-full", "wall_s")]
        line = next(l for l in gate.render(rows).splitlines() if "REGRESSION" in l)
        assert line.split()[:2] == ["snp-full", "wall_s"]

    def test_higher_is_better_direction(self, gate, spec):
        drop = self._judge(gate, spec, {"expr-full": _runs(models_per_s=70.0)})
        assert [(r["workload"], r["metric"]) for r in drop if r["verdict"] != "ok"] == [
            ("expr-full", "models_per_s")
        ]
        rise = self._judge(gate, spec, {"expr-full": _runs(models_per_s=130.0)})
        assert {r["verdict"] for r in rise} == {"ok"}

    def test_spread_wider_than_the_bound_is_unresolved(self, gate, spec):
        base = [_result(wall_s=v) for v in (7.0, 13.0) * 5]
        rows = gate.judge(spec["end_to_end"], "expr-variants", base, _runs(scale=1.3))
        wall = next(r for r in rows if r["metric"] == "wall_s")
        assert wall["spread"] > 0.25 and wall["worse"] > 0.25
        assert wall["verdict"] == "unresolved"
        # Unless every candidate run beats every base run.
        rows = gate.judge(spec["end_to_end"], "expr-variants", base, _runs(scale=0.6))
        assert next(r for r in rows if r["metric"] == "wall_s")["verdict"] == "ok"

    def test_more_failed_ops_or_a_missing_result_regress(self, gate, spec):
        cand = _runs()
        cand[3] = _result(failed=1)
        rows = gate.judge(spec["end_to_end"], "expr-full", _runs(), cand)
        assert [r["metric"] for r in rows if r["verdict"] == "REGRESSION"] == ["fail_rate"]
        cand[3] = None
        rows = gate.judge(spec["end_to_end"], "expr-full", _runs(), cand)
        assert [r["metric"] for r in rows if r["verdict"] == "REGRESSION"] == ["fail_rate"]
        with pytest.raises(gate.GateError):
            gate.judge(spec["end_to_end"], "expr-full", cand, _runs())

    def test_unusable_input_exits_2(self, gate, tmp_path):
        assert gate.main([str(BENCH_DIR.parent), str(tmp_path / "absent")]) == 2
        assert gate.main([str(tmp_path), str(BENCH_DIR.parent)]) == 2  # no BENCHMARK.json
        assert gate.main([str(BENCH_DIR.parent)]) == 2
