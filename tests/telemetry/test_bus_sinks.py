"""EventBus and sinks: stamping, delivery, trace durability, progress."""

import io
import json

import pytest

from repro.telemetry import (
    TRACE_FORMAT,
    EventBus,
    JsonlTraceSink,
    MemorySink,
    ProgressSink,
    TelemetrySinkError,
    TraceRecord,
)
from repro.telemetry.events import (
    FeatureTaskFinished,
    FeatureTaskStarted,
    RetryScheduled,
    RunFinished,
    RunStarted,
)
from repro.telemetry.trace import read_trace


class TestEventBus:
    def test_sequence_numbers_and_counts(self):
        sink = MemorySink()
        bus = EventBus([sink])
        bus.emit(FeatureTaskStarted(index=0))
        bus.emit(FeatureTaskStarted(index=1))
        bus.emit(FeatureTaskFinished(index=0))
        assert [r.seq for r in sink.records] == [0, 1, 2]
        assert bus.n_emitted == 3
        assert bus.counts == {"FeatureTaskStarted": 2, "FeatureTaskFinished": 1}

    def test_emit_after_close_is_noop(self):
        sink = MemorySink()
        bus = EventBus([sink])
        bus.emit(FeatureTaskStarted(index=0))
        bus.close()
        bus.emit(FeatureTaskStarted(index=1))
        assert len(sink.records) == 1
        assert bus.n_emitted == 1

    def test_trace_metadata(self):
        bus = EventBus(trace_path="run.jsonl")
        bus.emit(RunStarted(kind="frac.fit", n_tasks=3))
        meta = bus.trace_metadata()
        assert meta["trace_path"] == "run.jsonl"
        assert meta["n_events"] == 1
        assert meta["event_counts"] == {"RunStarted": 1}

    def test_add_sink_mid_run(self):
        bus = EventBus()
        bus.emit(FeatureTaskStarted(index=0))
        late = bus.add_sink(MemorySink())
        bus.emit(FeatureTaskStarted(index=1))
        assert late.names() == ["FeatureTaskStarted"]


class TestMemorySink:
    def test_signature_multiset(self):
        sink = MemorySink()
        bus = EventBus([sink])
        bus.emit(FeatureTaskFinished(index=0, key=(0, 0), duration_s=0.1))
        bus.emit(FeatureTaskFinished(index=0, key=(0, 0), duration_s=9.9))
        bus.emit(FeatureTaskFinished(index=1, key=(1, 0)))
        sigs = sink.signatures()
        # Timing differences collapse; deterministic fields distinguish.
        assert sorted(sigs.values()) == [1, 2]


class TestJsonlTraceSink:
    def test_header_then_records_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlTraceSink(path)
        bus = EventBus([sink], trace_path=str(path))
        bus.emit(RunStarted(kind="frac.fit", n_tasks=2))
        bus.emit(FeatureTaskFinished(index=0, key=(0, 0)))
        bus.close()

        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"format": TRACE_FORMAT}
        assert sink.n_written == 2
        result = read_trace(path)
        assert [r["event"] for r in result.records] == [
            "RunStarted",
            "FeatureTaskFinished",
        ]
        assert result.n_torn == 0 and result.errors == []

    def test_append_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlTraceSink(path)
        record = TraceRecord(seq=0, t_wall=0.0, event=FeatureTaskStarted(index=0))
        sink.handle(record)
        sink.close()
        # Simulate a kill mid-write: a half-written final line, no newline.
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"seq": 1, "t"')

        resumed = JsonlTraceSink(path, append=True)
        resumed.handle(TraceRecord(seq=1, t_wall=0.0, event=FeatureTaskStarted(index=1)))
        resumed.close()

        result = read_trace(path)
        assert result.errors == [] and result.n_torn == 0
        assert [r["index"] for r in result.records] == [0, 1]

    def test_append_to_fully_torn_file_rewrites_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"format"')  # nothing intact, not even the header
        sink = JsonlTraceSink(path, append=True)
        sink.close()
        assert json.loads(path.read_text().splitlines()[0]) == {"format": TRACE_FORMAT}

    def test_closed_sink_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "run.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(TelemetrySinkError, match="closed"):
            sink.handle(TraceRecord(seq=0, t_wall=0.0, event=FeatureTaskStarted()))


class TestProgressSink:
    def _emit(self, sink, *events):
        bus = EventBus([sink])
        for event in events:
            bus.emit(event)
        bus.close()

    def test_paints_progress_and_ends_line(self):
        stream = io.StringIO()
        sink = ProgressSink(stream, min_interval_s=0.0)
        self._emit(
            sink,
            RunStarted(kind="frac.fit", n_tasks=2),
            FeatureTaskFinished(index=0, status="ok"),
            RetryScheduled(index=1, attempt=1),
            FeatureTaskFinished(index=1, status="skipped", kind="exception"),
            RunFinished(kind="frac.fit", status="ok"),
        )
        out = stream.getvalue()
        assert "[frac.fit] 2/2 tasks" in out
        assert "retries 1" in out
        assert "failed 1" in out
        assert out.endswith("\n")

    def test_throttles_repaints(self):
        stream = io.StringIO()
        sink = ProgressSink(stream, min_interval_s=3600.0)
        self._emit(
            sink,
            RunStarted(kind="run", n_tasks=50),  # forced paint
            *[FeatureTaskFinished(index=i) for i in range(50)],  # all throttled
        )
        assert stream.getvalue().count("\r") == 1


class TestProgressSinkThrottleBoundaries:
    """ISSUE 8 satellite: the throttle comparison is strict-less-than,
    so a repaint at exactly ``min_interval_s`` elapsed is allowed."""

    def _sink_on_fake_clock(self, monkeypatch, interval):
        from repro.parallel import profiling

        clock = {"now": 0.0}
        monkeypatch.setattr(profiling, "wall_seconds", lambda: clock["now"])
        stream = io.StringIO()
        sink = ProgressSink(stream, min_interval_s=interval)
        bus = EventBus([sink])
        bus.emit(RunStarted(kind="run", n_tasks=3))  # forced paint at t=0
        return bus, stream, clock

    def test_repaint_at_exactly_the_interval_is_allowed(self, monkeypatch):
        bus, stream, clock = self._sink_on_fake_clock(monkeypatch, 10.0)
        clock["now"] = 10.0  # elapsed == min_interval_s: not < 10.0
        bus.emit(FeatureTaskFinished(index=0))
        assert stream.getvalue().count("\r") == 2

    def test_repaint_just_under_the_interval_is_blocked(self, monkeypatch):
        bus, stream, clock = self._sink_on_fake_clock(monkeypatch, 10.0)
        clock["now"] = 9.999
        bus.emit(FeatureTaskFinished(index=0))
        assert stream.getvalue().count("\r") == 1

    def test_run_boundaries_force_paints_through_the_throttle(self, monkeypatch):
        bus, stream, clock = self._sink_on_fake_clock(monkeypatch, 10.0)
        clock["now"] = 0.001  # well inside the throttle window
        bus.emit(RunFinished(kind="run", status="ok"))
        assert stream.getvalue().count("\r") == 2
        assert stream.getvalue().endswith("\n")

    def test_blocked_paint_does_not_reset_the_throttle_window(self, monkeypatch):
        bus, stream, clock = self._sink_on_fake_clock(monkeypatch, 10.0)
        clock["now"] = 6.0
        bus.emit(FeatureTaskFinished(index=0))  # blocked
        clock["now"] = 10.0  # 10s since the *last paint*, not since the block
        bus.emit(FeatureTaskFinished(index=1))
        assert stream.getvalue().count("\r") == 2
