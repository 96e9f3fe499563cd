"""Spans: nested wall/CPU/RSS accounting for named run phases.

A span brackets one phase of a run (preprocessing, training, scoring,
one ensemble member, the JL projection pass) and emits paired
``SpanStarted`` / ``SpanFinished`` events carrying the phase's wall
time, CPU time, and the process's peak RSS at close. Spans nest; the
per-thread depth is recorded so a trace reader can rebuild the phase
tree without matching timestamps.

All clock and RSS reads route through :mod:`repro.parallel.profiling`
(the FRL007 containment): a span *observes* time, it never feeds it
back into results. With telemetry off, ``span()`` yields immediately
and touches no clock at all.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.parallel import profiling
from repro.telemetry.events import SpanFinished, SpanStarted
from repro.telemetry.runtime import get_bus

_STATE = threading.local()


def _depth() -> int:
    return getattr(_STATE, "depth", 0)


@dataclass
class SpanHandle:
    """What an open ``span()`` yields: the measured phase so far."""

    name: str
    depth: int
    wall_s: float = 0.0
    cpu_s: float = 0.0


@contextmanager
def span(name: str, *, bus=None, attrs: "dict | None" = None):
    """Measure one named phase and emit its start/finish events.

    ``bus`` defaults to the ambient bus; with no bus installed the
    context is a pure pass-through (zero overhead when off). Yields a
    :class:`SpanHandle` whose timings are filled in at exit, so callers
    that also want the numbers locally need not re-measure. ``attrs`` are
    deterministic phase parameters stamped onto both paired events
    (batch size, plan-group key — facts about the work, never timings).
    """
    bus = bus if bus is not None else get_bus()
    if bus is None:
        yield None
        return
    depth = _depth()
    handle = SpanHandle(name=name, depth=depth)
    bus.emit(SpanStarted(span=name, depth=depth, attrs=attrs))
    _STATE.depth = depth + 1
    w0 = profiling.wall_seconds()
    c0 = profiling.cpu_seconds()
    try:
        yield handle
    finally:
        handle.wall_s = profiling.wall_seconds() - w0
        handle.cpu_s = profiling.cpu_seconds() - c0
        _STATE.depth = depth
        bus.emit(
            SpanFinished(
                span=name,
                depth=depth,
                wall_s=handle.wall_s,
                cpu_s=handle.cpu_s,
                rss_peak_bytes=profiling.peak_rss_bytes(),
                attrs=attrs,
            )
        )
