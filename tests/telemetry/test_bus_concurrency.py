"""Dynamic ground truth for the FRL021/FRL022/FRL024 static rules.

Two halves:

- the ``EventBus.close()`` deadlock regression: a sink whose ``close()``
  re-enters the bus used to deadlock on the non-reentrant bus lock,
  because teardown ran inside the critical section (the FRL022
  blocking-call-under-lock finding fixed in this revision);
- a deterministic interleaving stress test: barrier-scheduled thread-mode
  publishers hammer one bus concurrently, and the observable outcome —
  the trace event multiset and the bus's per-event counts — must be
  replay-identical across runs even though the interleaving itself is
  scheduler-chosen.
"""

import io
import threading

from repro.parallel.executor import ExecutionConfig, get_shared, run_tasks
from repro.telemetry import EventBus, MemorySink, ProgressSink
from repro.telemetry.events import (
    FeatureTaskFinished,
    FeatureTaskStarted,
    RunFinished,
    RunStarted,
)


class ReentrantCloseSink:
    """A sink whose close() re-enters the bus — the deadlock trigger."""

    def __init__(self) -> None:
        self.records: list = []
        self.closed = False
        self.n_at_close = None

    def handle(self, record) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True
        # Both re-entries used to deadlock while close() held the bus
        # lock: emit() and the n_emitted property each acquire it.
        self.bus.emit(RunFinished(kind="teardown", status="ok"))
        self.n_at_close = self.bus.n_emitted


class TestCloseReentrancy:
    def test_sink_close_reentering_bus_does_not_deadlock(self):
        sink = ReentrantCloseSink()
        bus = EventBus([sink])
        sink.bus = bus
        bus.emit(FeatureTaskStarted(index=0))

        done = threading.Event()

        def close_bus():
            bus.close()
            done.set()

        closer = threading.Thread(target=close_bus, daemon=True)
        closer.start()
        closer.join(timeout=10.0)
        assert done.is_set(), "EventBus.close() deadlocked on a re-entrant sink"
        assert sink.closed
        # The re-entrant emit lands after _closed is set: a defined no-op.
        assert sink.n_at_close == 1
        assert [r.event.name for r in sink.records] == ["FeatureTaskStarted"]

    def test_close_still_closes_every_sink_exactly_once(self):
        class CountingSink:
            def __init__(self):
                self.n_closed = 0

            def handle(self, record):
                pass

            def close(self):
                self.n_closed += 1

        sinks = [CountingSink(), CountingSink(), CountingSink()]
        bus = EventBus(sinks)
        bus.close()
        assert [s.n_closed for s in sinks] == [1, 1, 1]


N_PUBLISHERS = 4
EVENTS_PER_TASK = 25


def _publish_burst(index: int) -> int:
    """One barrier-scheduled publisher: all tasks start emitting at once."""
    bus, barrier = get_shared()
    barrier.wait(timeout=30.0)
    for i in range(EVENTS_PER_TASK):
        bus.emit(FeatureTaskStarted(index=index * EVENTS_PER_TASK + i))
        bus.emit(
            FeatureTaskFinished(index=index * EVENTS_PER_TASK + i, status="ok")
        )
    return index


def _run_once() -> tuple:
    """One thread-mode publishing storm; returns the observable outcome."""
    memory = MemorySink()
    progress = ProgressSink(stream=io.StringIO(), min_interval_s=0.0)
    bus = EventBus([memory, progress])
    barrier = threading.Barrier(N_PUBLISHERS)
    bus.emit(RunStarted(kind="stress", n_tasks=N_PUBLISHERS * EVENTS_PER_TASK))
    results = run_tasks(
        _publish_burst,
        list(range(N_PUBLISHERS)),
        shared=(bus, barrier),
        config=ExecutionConfig(mode="thread", n_workers=N_PUBLISHERS),
    )
    bus.emit(RunFinished(kind="stress", status="ok"))
    bus.close()
    multiset = sorted(
        tuple(sorted((k, v) for k, v in r.to_dict().items() if k not in ("seq", "t")))
        for r in memory.records
    )
    seqs = [r.seq for r in memory.records]
    return results, multiset, bus.counts, bus.n_emitted, seqs


class TestInterleavingDeterminism:
    def test_trace_multiset_and_metrics_replay_identical(self):
        results_a, multiset_a, counts_a, n_a, seqs_a = _run_once()
        results_b, multiset_b, counts_b, n_b, seqs_b = _run_once()
        # Harvested results keep submission order regardless of schedule.
        assert results_a == results_b == list(range(N_PUBLISHERS))
        # Every emit was stamped atomically: a contiguous, gap-free
        # sequence even under maximal contention.
        assert seqs_a == sorted(seqs_a) == list(range(n_a))
        assert n_a == n_b == 2 * N_PUBLISHERS * EVENTS_PER_TASK + 2
        # The interleaving is scheduler-chosen, the outcome is not.
        assert multiset_a == multiset_b
        assert counts_a == counts_b
