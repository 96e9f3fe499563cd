"""Clock, resource, and sleep primitives.

This module is the only place the library may read clocks (enforced by
fraclint rule FRL007, see docs/invariants.md): timing must stay an
*observation* — never an input to results — so every consumer routes
through here, where the nondeterminism is contained and auditable. The
telemetry layer (:mod:`repro.telemetry`) builds on these primitives;
code sections are timed with :func:`repro.telemetry.span`, which feeds
the numbers through the event bus.
"""

from __future__ import annotations

import resource
import sys
import time


def cpu_seconds() -> float:
    """Process CPU clock, for resource accounting."""
    return time.process_time()


def wall_seconds() -> float:
    """Monotonic wall clock, for telemetry timestamps and span widths."""
    return time.perf_counter()


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalized
    here so telemetry events carry one unit. Not a clock — but resource
    observation belongs in the same contained layer.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def sleep_seconds(seconds: float) -> None:
    """Suspend the calling thread for ``seconds`` (non-positive: no-op).

    Scheduling delays — retry backoff, injected hangs — are time *effects*
    the same way clock reads are time *observations*: neither may influence
    computed results, only when they happen. Routing every sleep through
    here keeps that nondeterminism contained alongside the clocks (FRL007),
    and gives tests one seam to monkeypatch when asserting deterministic
    backoff schedules without actually waiting.
    """
    if seconds > 0:
        time.sleep(seconds)
