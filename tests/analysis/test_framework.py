"""Framework-level tests: suppressions, aliases, CLI, reporters."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    Violation,
    all_checkers,
    analyze_file,
    analyze_paths,
    explain,
    iter_python_files,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.__main__ import main
from repro.analysis.baseline import collect_suppressions
from repro.analysis.framework import (
    EXPLAIN_SECTIONS,
    PARSE_ERROR_RULE,
    FileContext,
    run_analysis,
)

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: The rules fraclint ships (docs/invariants.md, "Value table").
KEPT_RULES = {f"FRL{n:03d}" for n in [*range(1, 15), 20, 21, 22, 24, 25]}


class TestRegistry:
    def test_at_least_eight_rules(self):
        checkers = all_checkers()
        assert len(checkers) >= 8
        rules = [c.rule for c in checkers]
        assert rules == sorted(rules)
        assert len(set(rules)) == len(rules)

    def test_expected_rule_ids_present(self):
        assert {c.rule for c in all_checkers()} == KEPT_RULES

    def test_docs_and_catalogue_name_exactly_the_registered_rules(self):
        import repro.analysis.checkers as checkers_pkg

        docs = (ROOT / "docs" / "invariants.md").read_text(encoding="utf-8")
        headings = set(re.findall(r"^### (FRL\d{3}) ", docs, flags=re.MULTILINE))
        catalogue = set(
            re.findall(r"^(FRL\d{3}) ", checkers_pkg.__doc__, flags=re.MULTILINE)
        )
        registered = {c.rule for c in all_checkers()}
        assert headings == registered
        assert catalogue == registered

    def test_every_suppression_names_a_registered_rule(self):
        known = {c.rule for c in all_checkers()} | {"*"}  # "*" is disable=all
        fixtures = ROOT / "tests" / "analysis" / "fixtures"
        records = [
            r
            for r in collect_suppressions(
                [ROOT / d for d in ("src", "tests", "benchmarks", "examples")]
            )
            if not Path(r["path"]).resolve().is_relative_to(fixtures)
        ]
        assert records, "no suppressions found: the scan is broken"
        stale = [r for r in records if not set(r["rules"]) <= known]
        assert stale == [], stale

    def test_every_rule_documented(self):
        for checker in all_checkers():
            assert checker.name, checker.rule
            assert checker.description, checker.rule


class TestAliases:
    def test_import_as_resolution(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("import numpy as np\nx = np.random.seed\n")
        ctx = FileContext.parse(f)
        import ast

        attr = ast.parse("np.random.seed").body[0].value
        ctx2 = FileContext.parse(f)
        assert ctx2.resolve(attr) == "numpy.random.seed"
        assert ctx.aliases["np"] == "numpy"

    def test_from_import_resolution(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("from math import log as ln\n")
        ctx = FileContext.parse(f)
        assert ctx.aliases["ln"] == "math.log"


class TestSuppressions:
    def test_line_suppression(self):
        violations = analyze_file(FIXTURES / "suppressed.py", force_library=True)
        lines = {(v.rule, v.line) for v in violations}
        assert ("FRL003", 12) not in lines  # line-scoped disable honoured
        assert any(rule == "FRL003" for rule, _ in lines)  # unsuppressed site

    def test_file_suppression(self):
        violations = analyze_file(FIXTURES / "suppressed.py", force_library=True)
        assert all(v.rule != "FRL008" for v in violations)

    def test_string_hash_not_a_comment(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            'MSG = "# fraclint: disable-file=FRL008"\n'
            "def f(x):\n"
            "    assert x\n"
        )
        violations = analyze_file(f, force_library=True)
        assert [v.rule for v in violations] == ["FRL008"]


class TestParseErrors:
    def test_syntax_error_reported_as_frl000(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        violations = analyze_file(f, force_library=True)
        assert len(violations) == 1
        assert violations[0].rule == PARSE_ERROR_RULE


class TestFileDiscovery:
    def test_skips_pycache_and_hidden(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "h.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        found = list(iter_python_files([tmp_path]))
        assert [p.name for p in found] == ["ok.py"]

    def test_single_file_path(self):
        found = list(iter_python_files([FIXTURES / "clean.py"]))
        assert len(found) == 1


class TestReporters:
    def _violations(self):
        return [
            Violation(path="a.py", line=3, col=1, rule="FRL001", message="bad"),
            Violation(path="b.py", line=9, col=5, rule="FRL008", message="worse"),
        ]

    def test_text_format(self):
        out = render_text(self._violations(), n_files=4)
        assert "a.py:3:1: FRL001 bad" in out
        assert "2 violation(s) in 2 file(s)" in out

    def test_text_clean(self):
        assert "clean" in render_text([], n_files=4)

    def test_json_roundtrip(self):
        payload = json.loads(render_json(self._violations(), n_files=4))
        assert payload["count"] == 2
        assert payload["files_scanned"] == 4
        assert payload["violations"][0]["rule"] == "FRL001"


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(ROOT / "src")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_with_locations(self, tmp_path, capsys):
        bad = tmp_path / "src" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main([str(bad.parent)]) == 1
        out = capsys.readouterr().out
        assert "FRL001" in out
        assert "bad.py:2:" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1

    def test_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\ndef f(x=[]):\n    return x\n")
        assert main([str(bad), "--select", "FRL006"]) == 1
        out = capsys.readouterr().out
        assert "FRL006" in out and "FRL001" not in out

    def test_disable_skips_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main([str(bad), "--disable", "FRL001"]) == 0

    def test_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "FRL999", str(FIXTURES / "clean.py")])
        assert excinfo.value.code == 2

    def test_missing_path_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no/such/dir"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {line.split()[0] for line in lines} == KEPT_RULES
        assert len(lines) == len(KEPT_RULES)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--profile", "trace.jsonl"],
            ["--format", "ledger"],
            ["--write-baseline", "baseline.json"],
        ],
    )
    def test_retired_options_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, str(FIXTURES / "clean.py")])
        assert excinfo.value.code == 2


class TestSelfCheck:
    """Acceptance: the shipped tree is clean, and the gate actually gates."""

    def test_shipped_src_tree_is_violation_free(self):
        violations, n_files = analyze_paths([ROOT / "src"])
        assert n_files > 50
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_whole_repo_is_violation_free(self):
        paths = [ROOT / "src", ROOT / "tests", ROOT / "benchmarks", ROOT / "examples"]
        violations, _ = analyze_paths([p for p in paths if p.exists()])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_introduced_violation_is_caught(self, tmp_path):
        """Copy a shipped module, strip one guard, and fraclint must fire."""
        src = (ROOT / "src/repro/errormodels/gaussian.py").read_text(encoding="utf-8")
        # Strip only the bare suppression (the batched classmethods'
        # suppressions carry "-- note" trailers that would dangle).
        mutated = src.replace("  # fraclint: disable=FRL003\n", "\n")
        assert mutated != src
        target = tmp_path / "gaussian.py"
        target.write_text(mutated)
        violations = analyze_file(target, force_library=True)
        assert any(v.rule == "FRL003" for v in violations)


class TestExplain:
    def test_every_registered_rule_has_a_rule_card(self):
        for checker in all_checkers():
            card = explain(checker.rule)
            assert card.startswith(checker.rule)
            for section in EXPLAIN_SECTIONS:
                assert section in card, (checker.rule, section)

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            explain("FRL999")

    def test_cli_explain_prints_all_sections(self, capsys):
        assert main(["--explain", "frl013"]) == 0  # case-insensitive
        out = capsys.readouterr().out
        for section in EXPLAIN_SECTIONS:
            assert section in out

    def test_cli_explain_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--explain", "FRL999"])
        assert excinfo.value.code == 2

    def test_cli_explain_without_rule_lists_every_card(self, capsys):
        assert main(["--explain"]) == 0
        out = capsys.readouterr().out
        for checker in all_checkers():
            assert checker.rule in out, checker.rule
            assert checker.name in out, checker.name
        assert "--explain RULE" in out  # points at the full card


class TestSarif:
    def _violations(self):
        return [
            Violation(path="src/a.py", line=3, col=1, rule="FRL001", message="bad"),
            Violation(path="src/b.py", line=0, col=0, rule="FRL000", message="broke"),
        ]

    def test_structure_follows_2_1_0(self):
        doc = json.loads(render_sarif(self._violations(), n_files=4))
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "fraclint"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"FRL001", "FRL000"} <= rule_ids  # unknown ids get stub entries
        assert {c.rule for c in all_checkers()} <= rule_ids

    def test_results_reference_rules_and_locations(self):
        doc = json.loads(render_sarif(self._violations(), n_files=4))
        run = doc["runs"][0]
        results = run["results"]
        assert len(results) == 2
        first = results[0]
        assert first["ruleId"] == "FRL001"
        assert first["level"] == "error"
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["region"]["startLine"] == 3
        # SARIF regions are 1-based: the FRL000 zero line/col is clamped
        second_region = results[1]["locations"][0]["physicalLocation"]["region"]
        assert second_region["startLine"] == 1
        assert second_region["startColumn"] == 1
        rule_index = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {res["ruleId"] for res in results} <= rule_index

    def test_clean_run_is_valid_sarif(self):
        doc = json.loads(render_sarif([], n_files=9))
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["properties"]["filesScanned"] == 9

    def test_cli_sarif_output_to_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        out = tmp_path / "report.sarif"
        assert main([str(bad), "--format", "sarif", "--output", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "FRL001"
        assert "report written" in capsys.readouterr().out


class TestRunAnalysisApi:
    def test_parallel_jobs_match_serial(self):
        serial = run_analysis([ROOT / "src/repro/analysis"])
        threaded = run_analysis([ROOT / "src/repro/analysis"], jobs=4)
        assert [v.format() for v in serial.violations] == [
            v.format() for v in threaded.violations
        ]
        assert serial.stats["files"] == threaded.stats["files"]

    def test_project_checkers_respect_suppressions(self, tmp_path):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "w.py").write_text(
            "def record(path, line):\n"
            "    # journal writer for the scratch harness, rewritten atomically\n"
            "    with open(path, 'a') as fh:  # fraclint: disable=FRL014\n"
            "        fh.write(line)\n"
        )
        result = run_analysis([tree], force_library=True)
        assert [v for v in result.violations if v.rule == "FRL014"] == []

    def test_cli_stats_line(self, capsys):
        assert main([str(ROOT / "src/repro/analysis"), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "re-indexed" in out

    def test_cli_layers_exits_zero(self, capsys):
        assert main(["--layers"]) == 0
        assert "layer DAG" in capsys.readouterr().out
