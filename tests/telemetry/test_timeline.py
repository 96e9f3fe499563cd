"""Timeline reconstruction: packing, stragglers, parallelism, critical path."""

import json

from repro.telemetry.sinks import TRACE_FORMAT
from repro.telemetry.timeline import (
    STRAGGLER_FACTOR,
    build_timeline,
    render_timeline,
)


def rec(seq, t, event, **payload):
    return {"seq": seq, "t": t, "event": event, **payload}


def task(seq, t0, t1, index, *, key=None, duration=None, status="ok", attempts=1):
    """A started/finished record pair for one task."""
    return [
        rec(seq, t0, "FeatureTaskStarted", index=index, attempt=0, key=key),
        rec(
            seq + 1,
            t1,
            "FeatureTaskFinished",
            index=index,
            status=status,
            attempts=attempts,
            key=key,
            duration_s=duration,
        ),
    ]


def span_pair(seq, t0, t1, name, *, depth=0):
    return [
        rec(seq, t0, "SpanStarted", span=name, depth=depth),
        rec(seq + 1, t1, "SpanFinished", span=name, depth=depth, wall_s=t1 - t0,
            cpu_s=t1 - t0),
    ]


class TestPairing:
    def test_start_finish_pairs_become_intervals(self):
        records = task(0, 1.0, 3.0, index=0, key=[5, 0], duration=1.5)
        timeline = build_timeline(records)
        assert len(timeline.intervals) == 1
        interval = timeline.intervals[0]
        assert interval.start_t == 1.0
        assert interval.end_t == 3.0
        assert interval.span_s == 2.0
        assert interval.key == [5, 0]
        assert interval.queue_wait_s == 0.5

    def test_finish_without_start_is_an_instant_replay(self):
        records = [
            rec(0, 2.0, "FeatureTaskFinished", index=7, status="cached", attempts=0)
        ]
        timeline = build_timeline(records)
        assert timeline.n_instant == 1
        assert timeline.intervals[0].span_s == 0.0
        assert timeline.n_slots == 0  # zero-length intervals are not packed

    def test_retry_interval_spans_first_dispatch_to_terminal_finish(self):
        records = [
            rec(0, 1.0, "FeatureTaskStarted", index=3, attempt=0),
            rec(1, 2.0, "FeatureTaskStarted", index=3, attempt=1),
            rec(2, 5.0, "FeatureTaskFinished", index=3, status="ok", attempts=2,
                duration_s=2.5),
        ]
        timeline = build_timeline(records)
        assert len(timeline.intervals) == 1
        assert timeline.intervals[0].start_t == 1.0
        assert timeline.intervals[0].end_t == 5.0

    def test_retried_task_does_not_leak_into_a_later_run(self):
        # Two attempts at index 0 (t = 0, 1) finish at 2; a later run
        # reuses index 0 from t = 10 to 11. The retry's start must die
        # with the first finish, not open the later run's interval.
        records = [
            rec(0, 0.0, "FeatureTaskStarted", index=0, attempt=0),
            rec(1, 1.0, "FeatureTaskStarted", index=0, attempt=1),
            rec(2, 2.0, "FeatureTaskFinished", index=0, status="ok", attempts=2,
                duration_s=1.0),
            *task(3, 10.0, 11.0, index=0, duration=1.0),
        ]
        timeline = build_timeline(records)
        assert [(iv.start_t, iv.end_t) for iv in timeline.intervals] == [
            (0.0, 2.0),
            (10.0, 11.0),
        ]
        assert timeline.intervals[1].queue_wait_s == 0.0
        assert timeline.n_slots == 1

    def test_missing_duration_yields_no_queue_wait(self):
        records = task(0, 0.0, 1.0, index=0)
        assert build_timeline(records).intervals[0].queue_wait_s is None


class TestSlotPacking:
    def test_sequential_tasks_share_one_slot(self):
        records = task(0, 0.0, 1.0, index=0) + task(2, 1.0, 2.0, index=1)
        timeline = build_timeline(records)
        assert timeline.n_slots == 1
        assert timeline.lanes[0].n_tasks == 2
        assert timeline.lanes[0].busy_s == 2.0
        assert timeline.utilization == 1.0

    def test_overlapping_tasks_open_new_slots(self):
        records = (
            task(0, 0.0, 2.0, index=0)
            + task(2, 1.0, 3.0, index=1)
            + task(4, 2.5, 3.5, index=2)  # fits back onto slot 0
        )
        timeline = build_timeline(records)
        assert timeline.n_slots == 2
        assert [lane.n_tasks for lane in timeline.lanes] == [2, 1]
        assert timeline.makespan_s == 3.5

    def test_packing_is_deterministic_under_record_order(self):
        forward = task(0, 0.0, 2.0, index=0) + task(2, 1.0, 3.0, index=1)
        reversed_pairs = task(0, 1.0, 3.0, index=1) + task(2, 0.0, 2.0, index=0)
        a = build_timeline(forward)
        b = build_timeline(reversed_pairs)
        assert [(l.slot, l.n_tasks) for l in a.lanes] == [
            (l.slot, l.n_tasks) for l in b.lanes
        ]


class TestParallelismProfile:
    def test_overlap_counts_as_two_in_flight(self):
        records = task(0, 0.0, 2.0, index=0) + task(2, 1.0, 3.0, index=1)
        timeline = build_timeline(records)
        assert timeline.parallelism == [(1, 2.0), (2, 1.0)]

    def test_back_to_back_tasks_never_register_double_concurrency(self):
        records = task(0, 0.0, 1.0, index=0) + task(2, 1.0, 2.0, index=1)
        timeline = build_timeline(records)
        assert timeline.parallelism == [(1, 2.0)]


class TestStragglers:
    def test_task_over_factor_times_median_is_flagged(self):
        records = []
        seq = 0
        for i in range(9):
            records += task(seq, float(i), i + 0.1, index=i, duration=0.1)
            seq += 2
        records += task(seq, 20.0, 21.0, index=99, key=[99, 0], duration=1.0)
        timeline = build_timeline(records)
        assert timeline.median_duration_s == 0.1
        assert [iv.index for iv in timeline.stragglers] == [99]
        assert timeline.stragglers[0].duration_s >= (
            STRAGGLER_FACTOR * timeline.median_duration_s
        )

    def test_no_scheduler_durations_no_straggler_analysis(self):
        records = task(0, 0.0, 1.0, index=0)
        timeline = build_timeline(records)
        assert timeline.median_duration_s is None
        assert timeline.stragglers == []


class TestCriticalPath:
    def test_task_parallel_phase_is_bounded_by_its_longest_task(self):
        records = (
            span_pair(0, 0.0, 1.0, "fit.preprocess")
            + [rec(2, 1.0, "SpanStarted", span="fit.train", depth=0)]
            + task(3, 1.0, 5.0, index=0)
            + task(5, 1.0, 3.0, index=1)
            + [rec(7, 5.0, "SpanFinished", span="fit.train", depth=0, wall_s=4.0,
                   cpu_s=4.0)]
            + span_pair(8, 5.0, 5.5, "score.contributions")
        )
        timeline = build_timeline(records)
        assert [seg.name for seg in timeline.segments] == [
            "fit.preprocess",
            "fit.train",
            "score.contributions",
        ]
        train = timeline.segments[1]
        assert train.wall_s == 4.0
        assert train.critical_s == 4.0  # longest single task (0.0->... 1.0->5.0)
        assert train.n_tasks == 2
        assert timeline.critical_path_s == 1.0 + 4.0 + 0.5
        assert timeline.observed_wall_s == 1.0 + 4.0 + 0.5

    def test_nested_spans_do_not_enter_the_critical_path(self):
        records = (
            [rec(0, 0.0, "SpanStarted", span="score.contributions", depth=0)]
            + span_pair(1, 0.1, 0.9, "score.gather", depth=1)
            + [rec(3, 1.0, "SpanFinished", span="score.contributions", depth=0,
                   wall_s=1.0, cpu_s=1.0)]
        )
        timeline = build_timeline(records)
        assert [seg.name for seg in timeline.segments] == ["score.contributions"]
        assert timeline.observed_wall_s == 1.0

    def test_torn_span_pairs_are_tolerated(self):
        records = [
            rec(0, 0.0, "SpanStarted", span="fit.train", depth=0),
            # no matching finish: the run was killed mid-phase
            rec(1, 1.0, "SpanFinished", span="never.opened", depth=0, wall_s=9.0),
        ]
        timeline = build_timeline(records)
        assert timeline.segments == []


class TestRenderDeterminism:
    def _records(self):
        return (
            span_pair(0, 0.0, 0.5, "fit.preprocess")
            + [rec(2, 0.5, "SpanStarted", span="fit.train", depth=0)]
            + task(3, 0.5, 2.5, index=0, key=[0, 0], duration=1.8)
            + task(5, 0.7, 1.2, index=1, key=[1, 0], duration=0.4)
            + [rec(7, 2.5, "SpanFinished", span="fit.train", depth=0, wall_s=2.0,
                   cpu_s=1.9)]
        )

    def test_two_builds_render_byte_identical(self):
        a = render_timeline(build_timeline(self._records()))
        b = render_timeline(build_timeline(self._records()))
        assert a == b

    def test_file_roundtrip_renders_byte_identical(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [json.dumps({"format": TRACE_FORMAT})]
        lines += [json.dumps(r, sort_keys=True) for r in self._records()]
        path.write_text("\n".join(lines) + "\n")
        assert render_timeline(build_timeline(str(path))) == render_timeline(
            build_timeline(self._records())
        )

    def test_render_mentions_the_load_bearing_facts(self):
        text = render_timeline(build_timeline(self._records()))
        assert "virtual slot" in text
        assert "parallelism profile" in text
        assert "queue-wait vs execute" in text
        assert "critical path" in text
        assert "max theoretical speedup" in text

    def test_empty_trace_renders_gracefully(self):
        text = render_timeline(build_timeline([]))
        assert "nothing to reconstruct" in text
