"""Trace toolchain: tolerant reading, summarizing, rendering."""

import json

import pytest

from repro.telemetry.sinks import TRACE_FORMAT
from repro.telemetry.trace import (
    TraceError,
    per_feature_counts,
    read_trace,
    render_trace_summary,
    summarize_trace,
)


def write_trace(path, records, *, torn_tail="", header=None):
    lines = [json.dumps(header if header is not None else {"format": TRACE_FORMAT})]
    lines.extend(json.dumps(r, sort_keys=True) for r in records)
    path.write_text("\n".join(lines) + "\n" + torn_tail)


def rec(seq, event, **payload):
    return {"seq": seq, "t": 0.0, "event": event, **payload}


class TestReadTrace:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="no such trace"):
            read_trace(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_non_json_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError, match="bad header"):
            read_trace(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_trace(path, [], header={"format": "something-else"})
        with pytest.raises(TraceError, match="something-else"):
            read_trace(path)

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_trace(
            path,
            [rec(0, "RunStarted", kind="fit")],
            torn_tail='{"seq": 1, "eve',
        )
        result = read_trace(path)
        assert result.n_torn == 1
        assert result.errors == []
        assert len(result.records) == 1

    def test_mid_file_garbage_is_an_error_not_torn(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT})
            + "\n"
            + "garbage line\n"
            + json.dumps(rec(1, "RunStarted"))
            + "\n"
        )
        result = read_trace(path)
        assert result.n_torn == 0
        assert len(result.errors) == 1 and "line 2" in result.errors[0]
        assert len(result.records) == 1

    def test_record_without_event_key_is_an_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_trace(path, [{"seq": 0, "t": 0.0}])
        result = read_trace(path)
        assert result.records == []
        assert "not an event record" in result.errors[0]


class TestPerFeatureCounts:
    def test_key_lists_hash_as_tuples(self):
        records = [
            rec(0, "FeatureTaskStarted", key=[3, 0, 42]),
            rec(1, "FeatureTaskStarted", key=[3, 0, 42]),
            rec(2, "FeatureTaskFinished", key=[3, 0, 42]),
        ]
        counts = per_feature_counts(records)
        assert counts[("FeatureTaskStarted", (3, 0, 42))] == 2
        assert counts[("FeatureTaskFinished", (3, 0, 42))] == 1

    def test_fold_events_fall_back_to_feature_id(self):
        counts = per_feature_counts(
            [rec(0, "FoldTrained", feature_id=7, slot=1, fold=0)]
        )
        assert counts[("FoldTrained", (7, 1))] == 1


FAULTY_RECORDS = [
    rec(0, "RunStarted", kind="frac.fit", n_tasks=3, mode="serial", n_workers=1),
    rec(1, "SpanFinished", span="fit.train", wall_s=0.5, cpu_s=0.4),
    rec(2, "FeatureTaskFinished", index=0, status="ok", key=[0, 0], duration_s=0.2,
        attempts=1),
    rec(3, "CheckpointHit", index=1, key=[1, 0]),
    rec(4, "FeatureTaskFinished", index=1, status="cached", key=[1, 0], attempts=0),
    rec(5, "RetryScheduled", index=2, attempt=1, kind="exception", backoff_s=0.1),
    rec(6, "TaskTimedOut", index=2, attempt=1, timeout_s=0.5),
    rec(7, "CheckpointMiss", index=2, key=[2, 0]),
    rec(8, "FeatureTaskFinished", index=2, status="skipped", kind="timeout",
        key=[2, 0], attempts=2),
    rec(9, "ScoreComputed", n_samples=10, n_models=2),
    rec(10, "RunFinished", kind="frac.fit", status="ok", n_models=2, n_skipped=1,
        failure_report={
            "n_failures": 1,
            "failures": [{"index": 2, "key": {"__tuple__": [2, 0]},
                          "kind": "timeout", "message": "hung", "attempts": 2}],
        }),
]


class TestSummarize:
    def test_folds_the_run_level_facts(self):
        summary = summarize_trace(FAULTY_RECORDS)
        assert summary.n_events == len(FAULTY_RECORDS)
        assert summary.runs == [
            {"kind": "frac.fit", "n_tasks": 3, "mode": "serial", "n_workers": 1,
             "status": "ok", "n_models": 2, "n_skipped": 1, "n_failed": 0}
        ]
        assert summary.phases == [("fit.train", 0.5, 0.4, 1)]
        assert summary.task_status_counts == {"ok": 1, "cached": 1, "skipped": 1}
        assert summary.n_retries == 1 and summary.n_timeouts == 1
        assert summary.checkpoint_hits == 1 and summary.checkpoint_misses == 1
        assert summary.checkpoint_reuse == 0.5
        assert summary.n_scores == 1
        assert summary.slowest[0][1] == [0, 0]  # only the ok task carried a duration

    def test_fault_accounting_consistent(self):
        summary = summarize_trace(FAULTY_RECORDS)
        assert summary.skipped_by_kind == {"timeout": 1}
        assert summary.report_by_kind == {"timeout": 1}
        assert summary.faults_consistent

    def test_fault_accounting_mismatch_detected(self):
        # Drop the terminal event: skips seen in the stream but no report.
        summary = summarize_trace(FAULTY_RECORDS[:-1])
        assert not summary.faults_consistent

    def test_unfinished_run_marked(self):
        summary = summarize_trace(FAULTY_RECORDS[:1])
        assert summary.runs[0]["status"] == "unfinished"


class TestRender:
    def test_golden_sections(self):
        text = render_trace_summary(summarize_trace(FAULTY_RECORDS))
        assert "trace summary: 11 event(s)" in text
        assert "frac.fit: ok — 2 model(s), 1 skipped, 0 failed (3 task(s), serial x1)" in text
        assert "fit.train" in text and "x1" in text
        assert "skipped (timeout): 1 [failure report: 1]" in text
        assert "event/report accounting: consistent" in text
        assert "checkpoint: 1 hit(s) / 1 miss(es) (50.0% reused)" in text
        assert "item 2 (key={'__tuple__': [2, 0]}): timeout after 2 attempt(s) — hung" in text
        assert "scoring: 1 batch(es) scored" in text

    def test_mismatch_rendered_loudly(self):
        text = render_trace_summary(summarize_trace(FAULTY_RECORDS[:-1]))
        assert "MISMATCH" in text

    def test_torn_lines_reported(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_trace(path, FAULTY_RECORDS, torn_tail='{"torn')
        text = render_trace_summary(summarize_trace(read_trace(path)))
        assert "1 torn line(s) dropped" in text


class TestAttribution:
    """span -> qualname attribution (the join key of `repro trace diff`)."""

    def test_known_spans_map_and_parameter_suffix_is_stripped(self):
        from repro.telemetry.trace import SPAN_QUALNAMES, qualname_for_span

        assert qualname_for_span("fit.train") == "repro.core.engine.run_feature_tasks"
        assert (
            qualname_for_span("ensemble.member[7]")
            == SPAN_QUALNAMES["ensemble.member"]
        )
        assert qualname_for_span("no.such.span") is None

    def test_span_qualnames_point_at_real_functions(self):
        """The attribution table must not drift from the instrumented code."""
        import importlib

        from repro.telemetry.trace import SPAN_QUALNAMES

        for qualname in SPAN_QUALNAMES.values():
            parts = qualname.split(".")
            for split in range(len(parts) - 1, 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:split]))
                except ImportError:
                    continue
                for attr in parts[split:]:
                    obj = getattr(obj, attr)
                break
            else:
                raise AssertionError(f"unimportable qualname {qualname}")
            assert callable(obj), qualname


class TestNearestRankPercentile:
    """ISSUE 8 satellite: deterministic percentiles, no interpolation."""

    def test_known_population(self):
        from repro.telemetry.trace import nearest_rank_percentile

        values = [float(v) for v in range(1, 101)]  # 1..100
        assert nearest_rank_percentile(values, 50) == 50.0
        assert nearest_rank_percentile(values, 95) == 95.0
        assert nearest_rank_percentile(values, 99) == 99.0

    def test_result_is_always_an_observed_member(self):
        from repro.telemetry.trace import PERCENTILE_POINTS, nearest_rank_percentile

        values = [0.3, 7.1, 2.2, 0.9]
        for p in PERCENTILE_POINTS:
            assert nearest_rank_percentile(values, p) in values

    def test_single_element_is_every_percentile(self):
        from repro.telemetry.trace import nearest_rank_percentile

        assert nearest_rank_percentile([4.2], 50) == 4.2
        assert nearest_rank_percentile([4.2], 99) == 4.2

    def test_empty_population_raises(self):
        from repro.telemetry.trace import nearest_rank_percentile

        with pytest.raises(ValueError, match="empty population"):
            nearest_rank_percentile([], 50)

    def test_summary_carries_phase_percentiles(self):
        walls = [0.1, 0.2, 0.3, 0.4]
        records = [
            rec(i, "SpanFinished", span="fit.train", depth=0, wall_s=w, cpu_s=w / 2)
            for i, w in enumerate(walls)
        ]
        summary = summarize_trace(records)
        pct = summary.phase_percentiles["fit.train"]
        assert pct["wall"] == [0.2, 0.4, 0.4]
        assert pct["cpu"] == [0.1, 0.2, 0.2]

    def test_render_shows_percentile_columns(self):
        records = [
            rec(0, "SpanFinished", span="fit.train", depth=0, wall_s=0.5, cpu_s=0.4)
        ]
        text = render_trace_summary(summarize_trace(records))
        assert "wall-p50/p95/p99=0.500/0.500/0.500" in text
        assert "cpu-p50/p95/p99=0.400/0.400/0.400" in text
