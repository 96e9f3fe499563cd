"""fraclint v3: shape/dtype inference, FRL015–FRL019, and the ledger.

Fixture modules live under ``fixtures/perf/``: one ``bad_*`` / ``good_*``
pair per rule, an adversarial ``dynamic.py`` that must produce *zero*
findings (dynamic shapes degrade to unknown — positive evidence only),
and ``vectorized.py``, the known-clean batched rewrite shape PR 7
targets.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.framework import run_analysis
from repro.analysis.ledger import (
    build_ledger,
    ledger_violation_rows,
    render_ledger,
    render_ledger_json,
)
from repro.analysis.perf import PERF_RULES
from repro.analysis.shapes import UNKNOWN, AbstractValue, join, promote_dtype

ROOT = Path(__file__).resolve().parents[2]
PERF = Path(__file__).resolve().parent / "fixtures" / "perf"
TRACE = ROOT / "benchmarks" / "results" / "BENCH_table2_trace.jsonl"


@pytest.fixture(scope="module")
def perf_result():
    return run_analysis([PERF], force_library=True)


def _hits(result, rules=PERF_RULES):
    return sorted(
        (Path(v.path).name, v.line, v.rule)
        for v in result.violations
        if v.rule in rules
    )


class TestLattice:
    def test_join_of_identical_values_is_stable(self):
        a = AbstractValue(kind="array", rank=2, dtype="float32", rng="nonneg")
        assert join(a, a) == a

    def test_join_degrades_toward_unknown(self):
        a = AbstractValue(kind="array", rank=2, dtype="float32")
        b = AbstractValue(kind="scalar", dtype="int")
        joined = join(a, b)
        assert joined.kind == "unknown"
        assert join(a, UNKNOWN) == UNKNOWN

    def test_dtype_promotion_is_numpy_shaped(self):
        assert promote_dtype("float32", "float64") == "float64"
        assert promote_dtype("int", "float32") == "float32"
        assert promote_dtype("bool", "int") == "int"
        assert promote_dtype("float64", None) is None


class TestRuleFixtures:
    def test_hot_loops_flagged_and_vectorized_rewrite_clean(self, perf_result):
        hits = _hits(perf_result, rules=("FRL015",))
        assert ("bad_hotloop.py", 8, "FRL015") in hits  # per-iteration .fit
        assert ("bad_hotloop.py", 17, "FRL015") in hits  # dim-range loop
        assert all(name != "good_hotloop.py" for name, _, _ in hits)

    def test_hidden_copies_flagged(self, perf_result):
        hits = _hits(perf_result, rules=("FRL016",))
        assert ("bad_copy.py", 10, "FRL016") in hits  # fancy gather in loop
        assert ("bad_copy.py", 18, "FRL016") in hits  # concat in loop
        assert ("bad_copy.py", 24, "FRL016") in hits  # column slice -> ravel
        assert all(name != "good_copy.py" for name, _, _ in hits)

    def test_dtype_widening_flagged(self, perf_result):
        hits = _hits(perf_result, rules=("FRL017",))
        assert ("bad_dtype.py", 9, "FRL017") in hits  # f32 x f64 arithmetic
        assert ("bad_dtype.py", 14, "FRL017") in hits  # widening astype
        assert ("bad_dtype.py", 21, "FRL017") in hits  # per-element math
        assert all(name != "good_dtype.py" for name, _, _ in hits)

    def test_numerical_safety_flagged(self, perf_result):
        hits = _hits(perf_result, rules=("FRL018",))
        assert ("bad_numeric.py", 8, "FRL018") in hits  # log of nonneg
        assert ("bad_numeric.py", 13, "FRL018") in hits  # divide by nonneg
        assert ("bad_numeric.py", 18, "FRL018") in hits  # exp on float32
        assert all(name != "good_numeric.py" for name, _, _ in hits)

    def test_loop_invariant_alloc_flagged(self, perf_result):
        hits = _hits(perf_result, rules=("FRL019",))
        assert ("bad_invariant.py", 10, "FRL019") in hits  # np.zeros in loop
        assert ("bad_invariant.py", 19, "FRL019") in hits  # Gram in loop
        assert all(name != "good_invariant.py" for name, _, _ in hits)


class TestDegradation:
    """Dynamic shapes must degrade to unknown, never to a guess."""

    def test_adversarial_dynamic_module_is_silent(self, perf_result):
        assert [h for h in _hits(perf_result) if h[0] == "dynamic.py"] == []

    def test_vectorized_rewrite_is_silent(self, perf_result):
        assert [h for h in _hits(perf_result) if h[0] == "vectorized.py"] == []

    def test_no_unsuppressed_findings_on_src_repro(self):
        result = run_analysis([ROOT / "src"])
        perf_violations = [v for v in result.violations if v.rule in PERF_RULES]
        assert perf_violations == [], [v.format() for v in perf_violations]


class TestInterprocedural:
    def _scan(self, tmp_path, body):
        (tmp_path / "mod.py").write_text(textwrap.dedent(body), encoding="utf-8")
        return run_analysis([tmp_path], force_library=True)

    def test_dtype_flows_through_a_call(self, tmp_path):
        result = self._scan(
            tmp_path,
            """
            import numpy as np

            def make_narrow(n):
                return np.zeros(n, dtype=np.float32)

            def caller(n):
                narrow = make_narrow(n)
                return narrow + np.ones(n, dtype=np.float64)
            """,
        )
        hits = _hits(result, rules=("FRL017",))
        assert [(name, rule) for name, _, rule in hits] == [("mod.py", "FRL017")]

    def test_unresolvable_call_degrades_to_unknown(self, tmp_path):
        result = self._scan(
            tmp_path,
            """
            import numpy as np

            def caller(factory, n):
                mystery = factory(n)
                return mystery + np.ones(n, dtype=np.float64)
            """,
        )
        assert _hits(result) == []


class TestLedger:
    """The --profile join against the committed table2 trace."""

    @pytest.fixture(scope="class")
    def project(self):
        return run_analysis([ROOT / "src"], checkers=[]).project

    @pytest.fixture(scope="class")
    def ledger(self, project):
        return build_ledger(project, TRACE)

    def test_training_tail_ranks_first_after_scoring_rewrite(self, ledger):
        """Post-scoring-rewrite trajectory: the scoring gather fell from
        the #1 measured slot (batched away under ``score.batch``); what
        tops the ledger now is the audited per-member training tail that
        rides under ``fit.batch``."""
        top = ledger.entries[0]
        assert top.rank == 1
        assert top.rule == "FRL015"
        assert top.attributed_via == "repro.core.engine.run_feature_batch"
        assert top.wall_s is not None and top.wall_s > 0
        assert top.audited

    def test_scoring_entries_price_below_training(self, ledger):
        """The scoring half of the rewrite, visible in the ranking: every
        finding attributed to scoring (``score_contributions`` or its
        batched ``gather_surprisals``) now costs a small fraction of the
        top training entry."""
        scoring = [
            e
            for e in ledger.entries
            if e.attributed_via
            in ("repro.core.engine.score_contributions", "repro.core.engine.gather_surprisals")
        ]
        assert scoring, "the scoring gathers should still be priced"
        top_wall = ledger.entries[0].wall_s
        assert all(e.wall_s is not None and e.wall_s < 0.5 * top_wall for e in scoring)

    def test_scalar_fit_loop_dropped_out_of_the_measured_ranks(self, ledger):
        """The pre-batching #1 (the per-feature fit loop) survives as the
        byte-equivalence reference path, but no measured span attributes
        to it any more — fit.train now times run_feature_tasks."""
        fit_loops = [
            e
            for e in ledger.entries
            if e.rule == "FRL015"
            and e.path.endswith("core/engine.py")
            and "per-feature fit loop" in e.audit_note
        ]
        assert fit_loops, "the scalar reference loop should still be audited"
        assert all(e.wall_s is None for e in fit_loops)

    def test_every_finding_is_audited(self, ledger):
        assert ledger.n_unaudited == 0
        assert all(e.audited for e in ledger.entries)

    def test_measured_entries_rank_before_unmeasured(self, ledger):
        walls = [e.wall_s for e in ledger.entries]
        seen_unmeasured = False
        for wall in walls:
            if wall is None:
                seen_unmeasured = True
            else:
                assert not seen_unmeasured, "measured entry after unmeasured"
        assert any(w is None for w in walls)  # bootstrap is not in table2
        measured = [w for w in walls if w is not None]
        assert measured == sorted(measured, reverse=True)

    def test_markdown_rendering(self, ledger):
        text = render_ledger(ledger)
        assert text.startswith("# Optimization ledger")
        assert "| 1 |" in text
        assert "0 unaudited" in text

    def test_json_rendering_round_trips(self, ledger):
        payload = json.loads(render_ledger_json(ledger))
        assert payload["n_findings"] == len(ledger.entries)
        assert payload["entries"][0]["rank"] == 1

    def test_sarif_rows_carry_rank_and_time(self, ledger):
        rows = ledger_violation_rows(ledger)
        assert rows[0].message.startswith("[ledger #1, ")
        assert {r.rule for r in rows} <= set(PERF_RULES)

    def test_committed_ledger_matches_regeneration(self, ledger):
        committed = (ROOT / "docs" / "optimization-ledger.md").read_text(
            encoding="utf-8"
        )
        regenerated = render_ledger(ledger).replace(
            str(TRACE), "benchmarks/results/BENCH_table2_trace.jsonl"
        )
        assert committed.rstrip("\n") == regenerated.rstrip("\n")


class TestBenchTrajectory:
    """BENCH_table2.json is the committed perf-trajectory anchor."""

    def test_bench_json_present_and_parsable(self):
        payload = json.loads(
            (ROOT / "benchmarks" / "results" / "BENCH_table2.json").read_text(
                encoding="utf-8"
            )
        )
        assert payload["format"] == "repro-bench-table2-v2"
        assert payload["entries"], "trajectory entries missing"
        for entry in payload["entries"]:
            assert entry["label"]
            for key in ("wall_s", "cpu_s", "rss_peak_bytes", "features_per_s"):
                assert isinstance(entry[key], (int, float)) and entry[key] > 0
            assert entry["n_feature_tasks"] > 0
            assert entry["rows"], "per-dataset rows missing"

    def test_batched_speedup_is_committed_and_at_least_10x(self):
        """The ISSUE 7 acceptance bar, pinned so a regression that slows
        the batched path below 10x the per-feature baseline fails CI."""
        payload = json.loads(
            (ROOT / "benchmarks" / "results" / "BENCH_table2.json").read_text(
                encoding="utf-8"
            )
        )
        by_label = {e["label"]: e for e in payload["entries"]}
        baseline = by_label["per-feature-linear-svr"]
        batched = by_label["batched-ridge"]
        # Same workload: the trajectory compares equal task counts.
        assert batched["n_feature_tasks"] == baseline["n_feature_tasks"]
        assert batched["features_per_s"] >= 10 * baseline["features_per_s"]

    def test_committed_trace_is_a_valid_fracscope_trace(self):
        from repro.telemetry.trace import read_trace

        result = read_trace(TRACE)
        events = {r["event"] for r in result.records}
        assert "SpanFinished" in events
        assert result.n_torn == 0 and result.errors == []
