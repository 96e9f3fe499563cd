"""Suppression-baseline and debt-budget tests."""

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.baseline import (
    check_budget,
    collect_suppressions,
    load_baseline,
    update_baseline,
)
from repro.utils.exceptions import ReproError

ROOT = Path(__file__).resolve().parents[2]
#: The paths CI's fraclint job lints and the committed baseline covers.
LINTED_PATHS = ("src", "tests", "benchmarks", "examples")


def _tree(tmp_path, body):
    src = tmp_path / "src"
    src.mkdir(exist_ok=True)
    f = src / "m.py"
    f.write_text(body)
    return src


NOTED = (
    "import math\n"
    "# sigma floored in fit()\n"
    "x = math.log(0.5)  # fraclint: disable=FRL003\n"
)
UNNOTED = NOTED + "y = math.log(0.5)  # fraclint: disable=FRL003\n"


class TestCollect:
    def test_records_carry_path_note_and_rules(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        records = collect_suppressions([src])
        assert len(records) == 1
        rec = records[0]
        assert rec["rules"] == ["FRL003"]
        assert rec["note"] == "sigma floored in fit()"
        assert rec["path"].endswith("m.py")

    def test_syntax_error_files_are_skipped(self, tmp_path):
        src = _tree(tmp_path, "def f(:\n")
        assert collect_suppressions([src]) == []

    def test_shipped_tree_suppressions_all_carry_notes(self):
        records = collect_suppressions(
            [ROOT / "src", ROOT / "tests", ROOT / "benchmarks", ROOT / "examples"]
        )
        unnoted = [r for r in records if not r["note"]]
        assert unnoted == [], unnoted

    def test_shipped_baseline_matches_tree(self):
        baseline = load_baseline(ROOT / "fraclint-baseline.json")
        records = collect_suppressions(
            [ROOT / "src", ROOT / "tests", ROOT / "benchmarks", ROOT / "examples"]
        )
        assert check_budget(baseline, records) == []

    def test_shipped_baseline_equals_a_fresh_regeneration(self, tmp_path, monkeypatch):
        """A stale count or note in the committed file fails here, not in
        a later audit: regenerate it the way CI lints (cwd-relative paths)."""
        monkeypatch.chdir(ROOT)
        fresh = tmp_path / "baseline.json"
        update_baseline(
            fresh, collect_suppressions([Path(p) for p in LINTED_PATHS])
        )
        shipped = ROOT / "fraclint-baseline.json"
        assert fresh.read_text(encoding="utf-8") == shipped.read_text(encoding="utf-8")


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "baseline.json"
        update_baseline(out, collect_suppressions([src]))
        baseline = load_baseline(out)
        assert baseline["total"] == 1
        assert list(baseline["counts"].values()) == [1]

    def test_version_mismatch_is_an_error(self, tmp_path):
        out = tmp_path / "baseline.json"
        out.write_text(json.dumps({"version": 99, "total": 0, "counts": {}}))
        with pytest.raises(ReproError):
            load_baseline(out)

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ReproError):
            load_baseline(tmp_path / "nope.json")


class TestBudget:
    def _baseline_for(self, tmp_path, body):
        src = _tree(tmp_path, body)
        out = tmp_path / "baseline.json"
        update_baseline(out, collect_suppressions([src]))
        return src, load_baseline(out)

    def test_within_baseline_passes(self, tmp_path):
        src, baseline = self._baseline_for(tmp_path, NOTED)
        assert check_budget(baseline, collect_suppressions([src])) == []

    def test_shrinkage_passes(self, tmp_path):
        src, baseline = self._baseline_for(tmp_path, NOTED)
        (src / "m.py").write_text("import math\nx = math.log(2.0)\n")
        assert check_budget(baseline, collect_suppressions([src])) == []

    def test_unnoted_growth_fails(self, tmp_path):
        src, baseline = self._baseline_for(tmp_path, NOTED)
        (src / "m.py").write_text(UNNOTED)
        problems = check_budget(baseline, collect_suppressions([src]))
        assert len(problems) == 1
        assert "audit note" in problems[0]

    def test_noted_growth_passes(self, tmp_path):
        src, baseline = self._baseline_for(tmp_path, NOTED)
        (src / "m.py").write_text(
            NOTED + "y = math.log(0.5)  # fraclint: disable=FRL003 -- also floored\n"
        )
        assert check_budget(baseline, collect_suppressions([src])) == []

    def test_new_group_without_note_fails(self, tmp_path):
        src, baseline = self._baseline_for(tmp_path, NOTED)
        (src / "other.py").write_text(
            "def f(x):\n    assert x  # fraclint: disable=FRL008\n"
        )
        problems = check_budget(baseline, collect_suppressions([src]))
        assert len(problems) == 1
        assert "FRL008" in problems[0]


class TestCli:
    def test_update_baseline_writes_a_missing_file_then_gate(self, tmp_path, capsys):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "fresh" / "baseline.json"
        assert not out.exists()
        assert main([str(src), "--update-baseline", str(out)]) == 0
        assert out.is_file()
        [(key, count)] = load_baseline(out)["counts"].items()
        assert key.endswith("m.py::FRL003") and count == 1
        assert main([str(src), "--baseline", str(out)]) == 0
        assert "within baseline" in capsys.readouterr().out

    def test_gate_fails_on_unnoted_growth(self, tmp_path, capsys):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "baseline.json"
        assert main([str(src), "--update-baseline", str(out)]) == 0
        (src / "m.py").write_text(UNNOTED)
        assert main([str(src), "--baseline", str(out)]) == 1
        assert "over baseline" in capsys.readouterr().out

    def test_missing_baseline_is_usage_error(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        with pytest.raises(SystemExit) as excinfo:
            main([str(src), "--baseline", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2


class TestUpdateBaseline:
    """Mechanical regeneration with audit-note preservation."""

    def test_update_then_check_round_trips_clean(self, tmp_path, capsys):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "baseline.json"
        assert main([str(src), "--update-baseline", str(out)]) == 0
        assert "audit notes" in capsys.readouterr().out
        assert main([str(src), "--baseline", str(out)]) == 0
        assert "within baseline" in capsys.readouterr().out

    def test_update_is_deterministic(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "baseline.json"
        records = collect_suppressions([src])
        update_baseline(out, records)
        first = out.read_text()
        update_baseline(out, records)
        assert out.read_text() == first

    def test_payload_records_notes_per_group(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        payload = update_baseline(
            tmp_path / "baseline.json", collect_suppressions([src])
        )
        [(key, notes)] = payload["notes"].items()
        assert key.endswith("m.py::FRL003")
        assert notes == ["sigma floored in fit()"]

    def test_previous_notes_are_dropped_for_surviving_groups(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "baseline.json"
        records = collect_suppressions([src])
        update_baseline(out, records)
        # the directive's wording changes; only the tree's wording is kept
        (src / "m.py").write_text(
            "import math\n"
            "x = math.log(0.5)  # fraclint: disable=FRL003 -- new wording\n"
        )
        payload = update_baseline(out, collect_suppressions([src]))
        [(_key, notes)] = payload["notes"].items()
        assert notes == ["new wording"]

    def test_dropped_groups_forget_their_notes(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "baseline.json"
        update_baseline(out, collect_suppressions([src]))
        (src / "m.py").write_text("import math\nx = math.sqrt(2.0)\n")
        payload = update_baseline(out, collect_suppressions([src]))
        assert payload["notes"] == {}
        assert payload["counts"] == {}

    def test_loads_back_through_the_gate(self, tmp_path):
        src = _tree(tmp_path, NOTED)
        out = tmp_path / "baseline.json"
        update_baseline(out, collect_suppressions([src]))
        baseline = load_baseline(out)
        assert check_budget(baseline, collect_suppressions([src])) == []

    def test_shipped_baseline_was_mechanically_updated(self):
        """The committed fraclint-baseline.json carries the notes section."""
        baseline = load_baseline(ROOT / "fraclint-baseline.json")
        assert "notes" in baseline
        records = collect_suppressions(
            [ROOT / "src", ROOT / "tests", ROOT / "benchmarks", ROOT / "examples"]
        )
        assert check_budget(baseline, records) == []
