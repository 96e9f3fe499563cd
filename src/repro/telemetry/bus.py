"""The event bus: one emit path, pluggable sinks, per-event counts.

A bus stamps every event with a monotonically increasing sequence number
and a wall timestamp (read through the profiling layer — FRL007), counts
it by name, and fans the record out to its sinks.

Emission is serialized under a lock: the engine's thread mode trains
feature models concurrently and their ``FoldTrained`` events interleave
arbitrarily, but each record is stamped and delivered atomically.

Telemetry is an observation channel, never a computation input — a bus
carries no RNG, reads no results, and the library behaves identically
(bit-for-bit) with or without one installed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from repro.parallel import profiling
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.sinks import Sink


@dataclass(frozen=True)
class TraceRecord:
    """One stamped event: what the sinks receive."""

    seq: int
    t_wall: float
    event: TelemetryEvent

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "t": self.t_wall,
            "event": self.event.name,
            **self.event.to_dict(),
        }


class EventBus:
    """Delivers telemetry events to sinks, counting them by name."""

    def __init__(
        self,
        sinks: "Iterable[Sink] | None" = None,
        *,
        trace_path: "str | None" = None,
    ) -> None:
        self.sinks: list[Sink] = list(sinks or [])
        #: Path of the JSONL trace this bus writes, if any (recorded into
        #: persisted-artifact metadata so a pickle points at its trace).
        self.trace_path = trace_path
        self.counts: dict[str, int] = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False

    def add_sink(self, sink: Sink) -> Sink:
        with self._lock:
            self.sinks.append(sink)
        return sink

    def emit(self, event: TelemetryEvent) -> None:
        """Stamp one event and deliver it to every sink, atomically."""
        with self._lock:
            if self._closed:
                return
            record = TraceRecord(
                seq=self._seq, t_wall=profiling.wall_seconds(), event=event
            )
            self._seq += 1
            self.counts[event.name] = self.counts.get(event.name, 0) + 1
            for sink in self.sinks:
                sink.handle(record)

    @property
    def n_emitted(self) -> int:
        with self._lock:
            return self._seq

    def trace_metadata(self) -> dict:
        """Summary embedded alongside persisted artifacts: where the
        trace lives and what it contains."""
        with self._lock:
            return {
                "trace_path": self.trace_path,
                "n_events": self._seq,
                "event_counts": dict(sorted(self.counts.items())),
            }

    def close(self) -> None:
        """Close every sink; further emits become no-ops.

        Sinks are snapshotted under the lock but closed outside it: a
        sink whose ``close()`` re-enters the bus (flushing a final
        summary through ``emit``, reading ``n_emitted``) would deadlock
        on the non-reentrant ``threading.Lock`` if teardown happened
        inside the critical section. ``_closed`` is set first, so any
        re-entrant emit during teardown is a defined no-op.
        """
        with self._lock:
            self._closed = True
            sinks = list(self.sinks)
        for sink in sinks:
            sink.close()
