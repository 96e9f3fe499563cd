"""Meta-tests on the benchmark suite itself (structure, not execution)."""

import ast
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


class TestTable2Trajectory:
    """The committed BENCH_table2.json perf trajectory (ISSUE 7).

    The trajectory document is the regression anchor for the batched
    training rewrite: it must keep both the pre-batching baseline and the
    batched entry, and the batched entry must hold the >=10x features/s
    acceptance bar against that committed baseline.
    """

    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads(
            (BENCH_DIR / "results" / "BENCH_table2.json").read_text(encoding="utf-8")
        )

    def test_is_a_v2_trajectory_with_pre_and_post_entries(self, payload):
        assert payload["format"] == "repro-bench-table2-v2"
        labels = [e["label"] for e in payload["entries"]]
        assert len(labels) == len(set(labels)), "duplicate trajectory labels"
        assert "per-feature-linear-svr" in labels  # pre-batching baseline
        assert "batched-ridge" in labels  # the batched-training rewrite
        assert "batched-scoring" in labels  # masked groups + batched scoring

    def test_every_entry_carries_positive_measurements(self, payload):
        for entry in payload["entries"]:
            assert entry["label"]
            for key in ("wall_s", "cpu_s", "rss_peak_bytes", "features_per_s"):
                assert isinstance(entry[key], (int, float)) and entry[key] > 0
            assert entry["n_feature_tasks"] > 0
            assert entry["rows"], "per-dataset rows missing"

    def test_features_per_s_did_not_regress(self, payload):
        by_label = {e["label"]: e for e in payload["entries"]}
        baseline = by_label["per-feature-linear-svr"]
        batched = by_label["batched-ridge"]
        assert batched["n_feature_tasks"] == baseline["n_feature_tasks"]
        assert batched["features_per_s"] >= 10 * baseline["features_per_s"]

    def test_batched_scoring_generation_improves_on_batched_ridge(self, payload):
        """The masked-group + batched-scoring rewrite's committed floor.

        Measured ~1.5x features/s over the exact-key generation; the pin
        is conservative so scale jitter cannot flake it.
        """
        by_label = {e["label"]: e for e in payload["entries"]}
        prev = by_label["batched-ridge"]
        scored = by_label["batched-scoring"]
        assert scored["n_feature_tasks"] == prev["n_feature_tasks"]
        assert scored["features_per_s"] >= 1.2 * prev["features_per_s"]

    def test_emit_json_trajectory_appends_and_reruns_replace(self, tmp_path):
        """emit_json with a label accumulates entries (never clobbers the
        history) and re-running a label replaces its own entry only."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_conftest", BENCH_DIR / "conftest.py"
        )
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)

        conftest.emit_json(tmp_path, "BENCH_table2", {"wall_s": 9.0}, label="a")
        conftest.emit_json(tmp_path, "BENCH_table2", {"wall_s": 5.0}, label="b")
        conftest.emit_json(tmp_path, "BENCH_table2", {"wall_s": 4.0}, label="b")
        doc = json.loads((tmp_path / "BENCH_table2.json").read_text(encoding="utf-8"))
        assert doc["format"] == "repro-bench-table2-v2"
        assert [e["label"] for e in doc["entries"]] == ["a", "b"]
        assert doc["entries"][1]["wall_s"] == 4.0

    def test_emit_json_migrates_legacy_v1_payload(self, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_conftest2", BENCH_DIR / "conftest.py"
        )
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)

        legacy = {"format": "repro-bench-table2-v1", "wall_s": 165.0}
        (tmp_path / "BENCH_table2.json").write_text(
            json.dumps(legacy), encoding="utf-8"
        )
        conftest.emit_json(tmp_path, "BENCH_table2", {"wall_s": 15.0}, label="new")
        doc = json.loads((tmp_path / "BENCH_table2.json").read_text(encoding="utf-8"))
        assert [e["label"] for e in doc["entries"]] == ["baseline", "new"]
        assert doc["entries"][0]["wall_s"] == 165.0


class TestTable4Trajectory:
    """The committed BENCH_table4.json trajectory (ISSUE 10).

    Table IV's diverse variants degenerate to singleton batches under
    exact-key grouping, so this trajectory prices the masked-group
    engine (``masked-gram``) against the pre-batching engine replayed
    (``singleton-batch``) over the same seven datasets.
    """

    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads(
            (BENCH_DIR / "results" / "BENCH_table4.json").read_text(encoding="utf-8")
        )

    def test_is_a_v2_trajectory_with_both_engines(self, payload):
        assert payload["format"] == "repro-bench-table4-v2"
        labels = [e["label"] for e in payload["entries"]]
        assert "singleton-batch" in labels
        assert "masked-gram" in labels

    def test_masked_engine_beats_singleton_wall(self, payload):
        """Measured ~1.4x end-to-end (autism is tree-bound and barely
        moves; expression datasets land 1.7-2.4x). Pin conservatively."""
        by_label = {e["label"]: e for e in payload["entries"]}
        singleton = by_label["singleton-batch"]
        masked = by_label["masked-gram"]
        assert singleton["wall_s"] >= 1.25 * masked["wall_s"]

    def test_per_dataset_rows_cover_the_runnable_set(self, payload):
        from repro.experiments.study import RUNNABLE_DATASETS

        for entry in payload["entries"]:
            names = [row["data_set"] for row in entry["rows"]]
            assert names == list(RUNNABLE_DATASETS)
            assert all(row["time_s"] > 0 for row in entry["rows"])
            assert not any(row["estimated"] for row in entry["rows"])

    def test_regress_gate_blesses_the_masked_entry(self, payload):
        regress = _load_regress()
        result = regress.evaluate(payload)
        assert result.candidate == "masked-gram"
        assert result.baseline == "singleton-batch"
        assert result.mode == "surprisal"
        assert result.mean_ratio < 0
        assert not result.regressed


def _load_regress():
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        "bench_regress", BENCH_DIR / "regress.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[spec.name]
        raise
    return module


class TestRegressGate:
    """ISSUE 8 tentpole (d): the surprisal-calibrated perf gate.

    The gate must bless the committed trajectory (CI runs it blocking)
    and fail loudly on a synthetic across-the-board slowdown.
    """

    @pytest.fixture(scope="class")
    def regress(self):
        return _load_regress()

    @pytest.fixture(scope="class")
    def trajectory(self):
        return json.loads(
            (BENCH_DIR / "results" / "BENCH_table2.json").read_text(encoding="utf-8")
        )

    def _slowed(self, trajectory, factor=2.0):
        import copy

        doc = copy.deepcopy(trajectory)
        by_label = {e["label"]: e for e in doc["entries"]}
        slow = copy.deepcopy(by_label["batched-scoring"])
        slow["label"] = "synthetic-slowdown"
        slow["wall_s"] = slow["wall_s"] * factor
        for row in slow.get("rows", []):
            if row.get("time_s"):
                row["time_s"] = row["time_s"] * factor
        doc["entries"].append(slow)
        return doc

    def test_committed_trajectory_passes(self, regress, trajectory):
        result = regress.evaluate(trajectory)
        assert result.candidate == "batched-scoring"
        # The gate compares against the fastest committed predecessor.
        assert result.baseline == "batched-ridge"
        assert result.mode == "surprisal"
        assert len(result.matched) >= regress.MIN_MATCHED_ROWS
        assert result.mean_ratio < 0  # the scoring rewrite is faster
        assert not result.regressed
        assert "verdict: pass" in regress.render_gate(result)

    def test_synthetic_2x_slowdown_regresses(self, regress, trajectory):
        result = regress.evaluate(self._slowed(trajectory))
        assert result.candidate == "synthetic-slowdown"
        # The gate defends the best committed point, not the previous entry.
        assert result.baseline == "batched-scoring"
        assert result.regressed
        assert "verdict: REGRESSION" in regress.render_gate(result)

    def test_main_exit_codes(self, regress, trajectory, tmp_path, capsys):
        committed = BENCH_DIR / "results" / "BENCH_table2.json"
        assert regress.main([str(committed)]) == 0
        assert "verdict: pass" in capsys.readouterr().out

        slowed = tmp_path / "slow.json"
        slowed.write_text(json.dumps(self._slowed(trajectory)), encoding="utf-8")
        assert regress.main([str(slowed)]) == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

        assert regress.main([str(tmp_path / "absent.json")]) == 2

    def test_wall_band_fallback_below_min_matched_rows(self, regress):
        doc = {
            "entries": [
                {"label": "old", "wall_s": 10.0, "rows": []},
                {"label": "new", "wall_s": 12.0, "rows": []},
            ]
        }
        result = regress.evaluate(doc)
        assert result.mode == "wall-band"
        assert result.regressed  # 1.2 > RATIO_THRESHOLD
        ok = regress.evaluate(
            {"entries": [
                {"label": "old", "wall_s": 10.0, "rows": []},
                {"label": "new", "wall_s": 10.5, "rows": []},
            ]}
        )
        assert ok.mode == "wall-band" and not ok.regressed

    def test_single_entry_trajectory_is_unusable(self, regress):
        with pytest.raises(regress.RegressError, match="single entry"):
            regress.evaluate({"entries": [{"label": "only", "wall_s": 1.0}]})
