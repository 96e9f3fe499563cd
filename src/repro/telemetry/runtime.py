"""Process-global telemetry state: the ambient bus and its lifecycle.

The library is observable through one ambient :class:`EventBus`. By
default none is installed, and every instrumentation site reduces to a
single ``get_bus() is None`` check — the zero-overhead-when-off
contract: no event objects are built, no sinks exist, no file is
written.

``configure()`` installs a bus (typically from the CLI's ``--trace`` /
``--progress`` flags or a test fixture), ``shutdown()`` closes it.
Process-mode worker children must never inherit the parent's sinks —
a forked worker writing to the parent's trace file descriptor would
interleave bytes with the parent — so the executor's process-pool
initializer calls :func:`on_worker_start`, which drops the inherited
bus reference before any task runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import JsonlTraceSink, ProgressSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.events import TelemetryEvent

_BUS: "EventBus | None" = None


def get_bus() -> "EventBus | None":
    """The ambient bus, or ``None`` when telemetry is off (the default)."""
    return _BUS


def set_bus(bus: "EventBus | None") -> "EventBus | None":
    """Install ``bus`` as the ambient bus; returns the previous one."""
    global _BUS
    previous = _BUS
    _BUS = bus
    return previous


def emit(event: "TelemetryEvent") -> None:
    """Emit onto the ambient bus; no-op when telemetry is off."""
    bus = _BUS
    if bus is not None:
        bus.emit(event)


def configure(
    *,
    trace_path: "str | None" = None,
    progress: bool = False,
    append: bool = False,
    extra_sinks: "list | None" = None,
) -> EventBus:
    """Build and install an ambient bus from the common sink recipe.

    Replaces (and closes) any previously configured bus.
    """
    sinks: list = []
    if trace_path:
        sinks.append(JsonlTraceSink(trace_path, append=append))
    if progress:
        sinks.append(ProgressSink())
    sinks.extend(extra_sinks or [])
    bus = EventBus(sinks, trace_path=str(trace_path) if trace_path else None)
    previous = set_bus(bus)
    if previous is not None:
        previous.close()
    return bus


def shutdown() -> "EventBus | None":
    """Close and uninstall the ambient bus; returns it for inspection."""
    bus = set_bus(None)
    if bus is not None:
        bus.close()
    return bus


def on_worker_start() -> None:
    """Disable telemetry in a freshly forked worker process.

    Called by the executor's process-pool initializer. The reference is
    dropped without closing: the sinks (and their file descriptors)
    belong to the parent.
    """
    global _BUS
    _BUS = None
