"""FRL021/022/024/025 concurrency rules: fixtures, model, determinism, self-check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.concurrency import (
    SANCTIONED_FN_NAMES,
    build_concurrency_model,
    canonical_lock,
)
from repro.analysis.framework import FileContext, ProjectContext, run_analysis
from repro.analysis.index import ProjectIndex, index_module

ROOT = Path(__file__).resolve().parents[2]
CONC = Path(__file__).resolve().parent / "fixtures" / "concurrency"

CONCURRENCY_RULES = ("FRL021", "FRL022", "FRL024", "FRL025")


@pytest.fixture(scope="module")
def conc_result():
    return run_analysis([CONC], force_library=True)


@pytest.fixture(scope="module")
def conc_model():
    index = ProjectIndex()
    for path in sorted(CONC.glob("*.py")):
        index.add(index_module(FileContext.parse(path, force_library=True)))
    return build_concurrency_model(ProjectContext(index))


def _hits(result, rule):
    return sorted(
        (Path(v.path).name, v.line) for v in result.violations if v.rule == rule
    )


def _messages(result, rule):
    return [v for v in result.violations if v.rule == rule]


class TestSharedMutableCapture:
    def test_unlocked_global_reads_flagged_at_origin(self, conc_result):
        hits = _hits(conc_result, "FRL021")
        assert ("bad_capture.py", 11) in hits
        assert ("bad_capture.py", 13) in hits

    def test_captured_state_mutation_flagged(self, conc_result):
        assert ("bad_capture.py", 20) in _hits(conc_result, "FRL021")

    def test_message_names_worker_and_submission_site(self, conc_result):
        [v] = [
            v
            for v in _messages(conc_result, "FRL021")
            if v.line == 11 and v.path.endswith("bad_capture.py")
        ]
        assert "work" in v.message
        assert "submitted to the executor" in v.message
        assert "_CACHE" in v.message

    def test_locked_reads_and_parent_side_mutation_clean(self, conc_result):
        assert all(
            name != "good_capture.py" for name, _ in _hits(conc_result, "FRL021")
        )


class TestLockDiscipline:
    def test_unguarded_read_of_guarded_field(self, conc_result):
        assert ("bad_lock.py", 19) in _hits(conc_result, "FRL022")

    def test_blocking_close_under_lock(self, conc_result):
        [v] = [
            v
            for v in _messages(conc_result, "FRL022")
            if v.line == 29 and v.path.endswith("bad_lock.py")
        ]
        assert ".close()" in v.message
        assert "_lock" in v.message

    def test_lock_order_cycle_reported(self, conc_result):
        cycles = [
            v for v in _messages(conc_result, "FRL022") if "lock-order cycle" in v.message
        ]
        assert len(cycles) == 1
        assert "LOCK_A" in cycles[0].message and "LOCK_B" in cycles[0].message

    def test_consistent_guards_and_ordered_locks_clean(self, conc_result):
        assert all(name != "good_lock.py" for name, _ in _hits(conc_result, "FRL022"))


class TestResourceLifecycle:
    def test_leaked_resource_flagged_at_constructor(self, conc_result):
        hits = _hits(conc_result, "FRL024")
        assert ("bad_resource.py", 13) in hits
        assert ("bad_resource.py", 19) in hits

    def test_use_after_close(self, conc_result):
        [v] = [
            v
            for v in _messages(conc_result, "FRL024")
            if v.line == 26 and v.path.endswith("bad_resource.py")
        ]
        assert "after closing it at line 25" in v.message

    def test_managed_closed_and_escaping_variants_clean(self, conc_result):
        assert all(
            name != "good_resource.py" for name, _ in _hits(conc_result, "FRL024")
        )


class TestWorkerGlobalWrite:
    def test_global_rebind_and_container_mutation_flagged(self, conc_result):
        hits = _hits(conc_result, "FRL025")
        assert ("bad_worker_global.py", 13) in hits
        assert ("bad_worker_global.py", 14) in hits

    def test_capture_fixture_write_also_flagged(self, conc_result):
        assert ("bad_capture.py", 12) in _hits(conc_result, "FRL025")

    def test_sanctioned_initializer_and_thread_local_clean(self, conc_result):
        assert all(
            name != "good_worker_global.py" for name, _ in _hits(conc_result, "FRL025")
        )


class TestAdversarial:
    """Dynamic locks and parameter locks: degrade, don't guess."""

    def test_adversarial_file_scans_clean(self, conc_result):
        noise = [
            v
            for v in conc_result.violations
            if v.rule in CONCURRENCY_RULES and v.path.endswith("adversarial.py")
        ]
        assert noise == [], "\n".join(v.format() for v in noise)


class TestModel:
    def test_work_roots_discovered(self, conc_model):
        roots = {r.root for r in conc_model.roots}
        assert "concurrency.bad_capture.work" in roots
        assert "concurrency.bad_worker_global.work" in roots
        assert "concurrency.bad_capture.make_batch.<locals>.closure_work" in roots

    def test_reachable_carries_a_witness_root(self, conc_model):
        witness = conc_model.reachable["concurrency.bad_capture.work"]
        assert witness.root == "concurrency.bad_capture.work"
        assert witness.path.endswith("bad_capture.py")

    def test_lock_inventory(self, conc_model):
        ids = {lk["id"] for lk in conc_model.locks}
        assert "concurrency.bad_lock.LOCK_A" in ids
        assert "concurrency.bad_lock.LOCK_B" in ids
        assert "concurrency.bad_lock.Counter._lock" in ids
        assert all(lk["factory"] for lk in conc_model.locks)

    def test_lock_cycle_detected(self, conc_model):
        [cycle] = conc_model.lock_cycles
        assert set(cycle["locks"]) == {
            "concurrency.bad_lock.LOCK_A",
            "concurrency.bad_lock.LOCK_B",
        }

    def test_thread_confined_globals(self, conc_model):
        assert "concurrency.good_worker_global._STATE" in conc_model.thread_confined

    def test_mutable_globals_record_write_sites(self, conc_model):
        sites = conc_model.mutable_globals["concurrency.bad_capture._CACHE"]
        assert any(s["qualname"].endswith(".work") for s in sites)

    def test_sanctioned_names_cover_executor_hooks(self):
        assert {"on_worker_start", "_init_shared", "_init_worker"} <= SANCTIONED_FN_NAMES


class TestCanonicalLock:
    def test_dynamic_lock_passes_through(self, conc_model):
        index = ProjectIndex()
        path = CONC / "bad_lock.py"
        module = index_module(FileContext.parse(path, force_library=True))
        info = module.function("Counter.bump")
        assert canonical_lock(module, info, "<dynamic>") == "<dynamic>"
        assert (
            canonical_lock(module, info, "self._lock")
            == "concurrency.bad_lock.Counter._lock"
        )
        assert canonical_lock(module, info, "LOCK_A") == "concurrency.bad_lock.LOCK_A"
        assert canonical_lock(module, info, "something_local").startswith("<local:")


def _cli_bytes(scan_dir: Path, fmt: str, hashseed: str, out: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hashseed
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            str(scan_dir),
            "--format",
            fmt,
            "--output",
            str(out),
        ],
        env=env,
        cwd=ROOT,
        check=False,  # violations are the point: exit 1 expected
        capture_output=True,
    )
    return out.read_bytes()


class TestByteDeterminism:
    """JSON/SARIF output is byte-identical across interpreter runs."""

    @pytest.mark.parametrize("fmt", ["json", "sarif"])
    def test_output_stable_across_hash_seeds(self, fmt, tmp_path):
        # Copied out of tests/ so the path is inferred as library code
        # and the strict rules apply.
        scan_dir = tmp_path / "conc_lib"
        scan_dir.mkdir()
        for fixture in sorted(CONC.glob("*.py")):
            (scan_dir / fixture.name).write_text(
                fixture.read_text(encoding="utf-8"), encoding="utf-8"
            )
        first = _cli_bytes(scan_dir, fmt, "0", tmp_path / f"a.{fmt}")
        second = _cli_bytes(scan_dir, fmt, "1", tmp_path / f"b.{fmt}")
        assert first == second
        payload = json.loads(first)
        rules = (
            {r["id"] for run in payload["runs"] for r in run["tool"]["driver"]["rules"]}
            if fmt == "sarif"
            else {v["rule"] for v in payload["violations"]}
        )
        assert set(CONCURRENCY_RULES) <= rules


class TestSelfCheck:
    """src/repro carries zero unaudited concurrency findings."""

    def test_src_scans_clean_for_concurrency_rules(self):
        result = run_analysis([ROOT / "src"])
        noise = [v for v in result.violations if v.rule in CONCURRENCY_RULES]
        assert noise == [], "\n".join(v.format() for v in noise)

    def test_every_concurrency_suppression_carries_an_audit_note(self):
        for path in sorted((ROOT / "src").rglob("*.py")):
            ctx = FileContext.parse(path)
            for record in ctx.suppression_records():
                if not set(record["rules"]) & set(CONCURRENCY_RULES):
                    continue
                assert record["note"], (
                    f"{path}:{record['line']} suppresses {record['rules']} "
                    "without an audit note"
                )
