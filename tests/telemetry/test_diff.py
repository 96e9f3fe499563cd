"""Trace diff: population matching, thresholds, drift, and the Table II pin."""

from pathlib import Path

import pytest

from repro.telemetry.diff import (
    RATIO_THRESHOLD,
    diff_traces,
    log_ratio,
    render_trace_diff,
)

# Frozen copies of Table II traces: the benches write theirs to
# benchmarks/results/, so re-running one never moves these pins.
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BATCHED_TRACE = FIXTURES / "BENCH_table2_trace.jsonl"
PER_FEATURE_TRACE = FIXTURES / "BENCH_table2_trace_per_feature.jsonl"
# Recorded with the retired exact-key training batches and per-model
# ``score.gather`` loop. That engine is gone from the tree; the committed
# trace stays as a fixture, and git history can regenerate it (the
# ``benchmarks/make_singleton_trace.py`` script of the commit that
# recorded it). It is condensed to what a diff reads: the header and
# every ``SpanFinished`` record with its span, depth, wall, CPU and RSS,
# so every population, count, wall and the speedup diff exactly as from
# the full recording.
SINGLETON_TRACE = FIXTURES / "BENCH_table2_trace_batched_ridge.jsonl"


def span_done(name, wall, *, depth=0, cpu=None, rss=0):
    return {
        "seq": 0,
        "t": 0.0,
        "event": "SpanFinished",
        "span": name,
        "depth": depth,
        "wall_s": wall,
        "cpu_s": wall if cpu is None else cpu,
        "rss_peak_bytes": rss,
    }


class TestPopulations:
    def test_parametrized_spans_fold_onto_their_base_name(self):
        a = [span_done("ensemble.member[0]", 1.0), span_done("ensemble.member[1]", 2.0)]
        b = [span_done("ensemble.member[0]", 3.0)]
        diff = diff_traces(a, b)
        (pop,) = diff.populations
        assert pop.name == "ensemble.member"
        assert pop.qualname == "repro.core.ensemble.FRaCEnsemble.fit"
        assert pop.a.count == 2 and pop.a.wall_s == 3.0
        assert pop.b.count == 1 and pop.b.wall_s == 3.0

    def test_rss_aggregates_as_population_max(self):
        a = [span_done("fit.train", 1.0, rss=100), span_done("fit.train", 1.0, rss=700)]
        diff = diff_traces(a, [])
        assert diff.populations[0].a.rss_peak_bytes == 700

    def test_verdicts_follow_the_deterministic_band(self):
        base = [span_done("fit.train", 10.0)]
        assert diff_traces(base, [span_done("fit.train", 10.5)]).populations[0].verdict == "unchanged"
        assert diff_traces(base, [span_done("fit.train", 12.0)]).populations[0].verdict == "regressed"
        assert diff_traces(base, [span_done("fit.train", 8.0)]).populations[0].verdict == "improved"
        # Exactly on the band edge stays unchanged (strict inequality).
        exactly = [span_done("fit.train", 10.0 * RATIO_THRESHOLD)]
        assert diff_traces(base, exactly).populations[0].verdict == "unchanged"

    def test_unmatched_populations_are_only_sided(self):
        diff = diff_traces([span_done("fit.old", 1.0)], [span_done("fit.new", 1.0)])
        verdicts = {p.name: p.verdict for p in diff.populations}
        assert verdicts == {"fit.new": "only-b", "fit.old": "only-a"}


class TestHeadline:
    def test_speedup_from_top_level_spans_only(self):
        a = [span_done("fit.train", 20.0), span_done("score.gather", 99.0, depth=1)]
        b = [span_done("fit.train", 2.0)]
        diff = diff_traces(a, b)
        assert diff.top_wall_a == 20.0  # nested span excluded
        assert diff.top_wall_b == 2.0
        assert diff.speedup == pytest.approx(10.0)

    def test_degenerate_walls_yield_no_speedup(self):
        assert diff_traces([], []).speedup is None


class TestEventDrift:
    def test_equal_multisets_report_consistent(self):
        records = [span_done("fit.train", 1.0)]
        diff = diff_traces(records, list(records))
        assert not diff.events_drifted
        assert "consistent" in render_trace_diff(diff)

    def test_count_drift_is_reported_per_event_name(self):
        a = [span_done("fit.train", 1.0)]
        b = [span_done("fit.train", 1.0), span_done("fit.train", 1.0)]
        diff = diff_traces(a, b)
        assert diff.event_drift == [("SpanFinished", 1, 2)]
        assert "different work" in render_trace_diff(diff)


class TestLogRatio:
    def test_symmetric_around_zero(self):
        assert log_ratio(1.0, 2.0) == pytest.approx(-log_ratio(2.0, 1.0))

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            log_ratio(0.0, 1.0)


class TestCommittedTableIIPin:
    """The ISSUE 8 acceptance pin: the >=10x Table II improvement must be
    readable from the two committed reference traces alone."""

    @pytest.fixture(scope="class")
    def diff(self):
        assert BATCHED_TRACE.exists() and PER_FEATURE_TRACE.exists()
        return diff_traces(
            str(PER_FEATURE_TRACE),
            str(BATCHED_TRACE),
            label_a="per-feature-linear-svr",
            label_b="batched-scoring",
        )

    def test_wall_clock_improvement_is_at_least_10x(self, diff):
        assert diff.speedup is not None
        assert diff.speedup >= 10.0

    def test_training_phase_improved_and_render_says_faster(self, diff):
        by_name = {p.name: p for p in diff.populations}
        assert by_name["fit.train"].verdict == "improved"
        text = render_trace_diff(diff)
        assert "faster" in text
        assert "per-feature-linear-svr" in text and "batched-scoring" in text

    def test_diff_is_deterministic(self, diff):
        again = diff_traces(
            str(PER_FEATURE_TRACE),
            str(BATCHED_TRACE),
            label_a="per-feature-linear-svr",
            label_b="batched-scoring",
        )
        assert render_trace_diff(again) == render_trace_diff(diff)

    @pytest.mark.parametrize(
        "trace",
        [BATCHED_TRACE, PER_FEATURE_TRACE, SINGLETON_TRACE],
        ids=["batched", "per_feature", "batched_ridge"],
    )
    def test_fixture_is_a_valid_fracscope_trace(self, trace):
        from repro.telemetry.trace import read_trace

        result = read_trace(trace)
        assert "SpanFinished" in {r["event"] for r in result.records}
        assert result.n_torn == 0 and result.errors == []


class TestCommittedScoringRewritePin:
    """The ISSUE 10 acceptance pin: the scoring rewrite must be readable
    from the two committed traces alone. The singleton-engine trace names
    its gather loop ``score.gather`` and the batched engine ``score.batch``;
    the diff pairs them through the shared ``gather_surprisals`` qualname.
    """

    @pytest.fixture(scope="class")
    def diff(self):
        assert SINGLETON_TRACE.exists() and BATCHED_TRACE.exists()
        return diff_traces(
            str(SINGLETON_TRACE),
            str(BATCHED_TRACE),
            label_a="singleton-batch",
            label_b="batched-scoring",
        )

    def test_gather_and_batch_pair_as_one_renamed_population(self, diff):
        by_name = {p.name: p for p in diff.populations}
        assert "score.gather -> score.batch" in by_name
        assert "score.gather" not in by_name and "score.batch" not in by_name

    def test_scoring_rewrite_holds_its_floor(self, diff):
        """Measured ~2.7x wall on the committed traces; pinned at 2x —
        the irreducible per-model gather+gemv under byte-equality caps
        this well short of the ISSUE's optimistic 5x estimate."""
        by_name = {p.name: p for p in diff.populations}
        pop = by_name["score.gather -> score.batch"]
        assert pop.verdict == "improved"
        assert pop.a.count == pop.b.count  # one span per scored run either way
        assert pop.a.wall_s >= 2.0 * pop.b.wall_s

    def test_masked_training_improved_end_to_end(self, diff):
        by_name = {p.name: p for p in diff.populations}
        assert by_name["fit.train"].verdict == "improved"
        assert diff.speedup is not None and diff.speedup >= 1.25
