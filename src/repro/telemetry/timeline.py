"""Timeline reconstruction: who did what, when, and what bounded the run.

fracscope's recording half (bus, sinks, trace files) answers *what
happened*; this module answers *why the run took as long as it did*. It
rebuilds a per-slot execution timeline from the ``FeatureTaskStarted`` /
``FeatureTaskFinished`` pairs and the span tree in one
``repro-trace-v1`` file and derives:

- **virtual worker slots** — tasks packed first-fit onto lanes by their
  observed dispatch/finish wall-clock stamps. Slots are a deterministic
  *reconstruction* of concurrency, not OS worker identities (the trace
  deliberately records no worker ids; process pools recycle), but the
  lane count lower-bounds the worker count that produced the trace and
  per-lane busy time exposes load imbalance;
- **utilization** — busy time over makespan, per lane and overall;
- **queue-wait vs execute** — a task's dispatch→finish interval minus
  its scheduler-observed execute time (``duration_s``) is time spent
  queued behind a saturated pool or waiting on retries;
- **straggler ranking** — tasks whose execute time dwarfs the
  nearest-rank median (the classic long-tail that caps speedup);
- **parallelism profile** — a boundary-event sweep giving the time
  spent at each concurrency level;
- **critical path** — top-level spans run sequentially, so the run's
  lower bound is the sum over phases of the phase's unavoidable time:
  the longest single task for a task-parallel phase (the task DAG is
  embarrassingly parallel — no task depends on another, so the longest
  chain is the longest task), the span's own wall otherwise.

Everything here is a pure function of the record list: same JSONL in,
byte-identical report out (the fracscope determinism contract — no
clocks, no randomness, no dict-order dependence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.trace import (
    TraceReadResult,
    nearest_rank_percentile,
    read_trace,
)

#: A task is a straggler when its execute time reaches this multiple of
#: the population's nearest-rank median.
STRAGGLER_FACTOR = 3.0

#: Maximum rows rendered for lanes and stragglers (full data stays on
#: the dataclasses; rendering truncates deterministically).
MAX_RENDER_ROWS = 10


@dataclass
class TaskInterval:
    """One task's observed life on the wall clock."""

    index: int
    key: object
    start_t: float
    end_t: float
    status: str = "ok"
    attempts: int = 1
    #: Scheduler-observed execute wall of the final attempt; ``None``
    #: where the execution mode cannot attribute per-item time.
    duration_s: "float | None" = None
    #: Virtual lane assigned by first-fit packing (filled by build).
    slot: int = -1

    @property
    def span_s(self) -> float:
        """Dispatch-to-finish interval on the parent's wall clock."""
        return self.end_t - self.start_t

    @property
    def queue_wait_s(self) -> "float | None":
        """Interval time not spent executing (None without duration)."""
        if self.duration_s is None:
            return None
        return max(0.0, self.span_s - self.duration_s)


@dataclass
class SlotLane:
    """One virtual worker lane of the reconstructed timeline."""

    slot: int
    n_tasks: int = 0
    busy_s: float = 0.0


@dataclass
class PhaseSegment:
    """One sequential top-level phase on the critical path."""

    name: str
    wall_s: float
    #: Unavoidable serial time: the longest single task for a
    #: task-parallel phase, else the phase wall itself.
    critical_s: float
    n_tasks: int = 0  # task intervals overlapping this phase


@dataclass
class Timeline:
    """The full derived timeline for one trace."""

    intervals: list = field(default_factory=list)  # TaskInterval, packed order
    lanes: list = field(default_factory=list)  # SlotLane by slot
    t0: "float | None" = None
    t1: "float | None" = None
    #: Tasks that finished without a matching start (checkpoint replay
    #: emits only FeatureTaskFinished) — counted, not packed.
    n_instant: int = 0
    parallelism: list = field(default_factory=list)  # (concurrency, seconds)
    stragglers: list = field(default_factory=list)  # TaskInterval, ranked
    median_duration_s: "float | None" = None
    segments: list = field(default_factory=list)  # PhaseSegment, trace order
    observed_wall_s: float = 0.0  # sum of top-level span walls

    @property
    def makespan_s(self) -> float:
        if self.t0 is None or self.t1 is None:
            return 0.0
        return self.t1 - self.t0

    @property
    def n_slots(self) -> int:
        return len(self.lanes)

    @property
    def utilization(self) -> float:
        """Busy time over lane-seconds of makespan (0 when degenerate)."""
        denom = self.n_slots * self.makespan_s
        if denom <= 0.0:
            return 0.0
        return sum(lane.busy_s for lane in self.lanes) / denom

    @property
    def critical_path_s(self) -> float:
        return sum(seg.critical_s for seg in self.segments)


def _pair_task_intervals(records: list) -> "tuple[list, int]":
    """Match Started/Finished records into intervals, in finish order.

    Retries re-dispatch the same index, so an interval spans an index's
    first dispatch to its terminal finish, which is exactly the
    queue+retry+execute life of the item; the finish closes the index,
    so a later run reusing it opens a fresh interval. Finishes with no
    start on file (checkpoint replay, torn head) become zero-length
    markers counted separately.
    """
    pending: dict[int, float] = {}
    intervals: list[TaskInterval] = []
    n_instant = 0
    for rec in records:
        event = rec.get("event")
        if event == "FeatureTaskStarted":
            # Only the first dispatch opens the interval; retry
            # dispatches of the same in-flight index extend nothing.
            pending.setdefault(rec.get("index", -1), rec.get("t", 0.0))
        elif event == "FeatureTaskFinished":
            index = rec.get("index", -1)
            end_t = rec.get("t", 0.0)
            start_t = pending.pop(index, None)
            if start_t is None:
                start_t = end_t
                n_instant += 1
            intervals.append(
                TaskInterval(
                    index=index,
                    key=rec.get("key"),
                    start_t=start_t,
                    end_t=end_t,
                    status=rec.get("status", "ok"),
                    attempts=rec.get("attempts", 1),
                    duration_s=rec.get("duration_s"),
                )
            )
    return intervals, n_instant


def _pack_slots(intervals: list) -> list:
    """First-fit interval packing onto virtual lanes.

    Deterministic: process intervals by (start, end, index); an interval
    takes the lowest-numbered lane free at its start (lane free time is
    the last occupant's end), else opens a new lane. The lane count is a
    lower bound on the true concurrency that produced the trace.
    """
    lane_free: list[float] = []
    lanes: list[SlotLane] = []
    for interval in sorted(intervals, key=lambda iv: (iv.start_t, iv.end_t, iv.index)):
        slot = next(
            (s for s, free_at in enumerate(lane_free) if free_at <= interval.start_t),
            None,
        )
        if slot is None:
            slot = len(lane_free)
            lane_free.append(0.0)
            lanes.append(SlotLane(slot=slot))
        interval.slot = slot
        lane_free[slot] = interval.end_t
        lanes[slot].n_tasks += 1
        lanes[slot].busy_s += interval.span_s
    return lanes


def _parallelism_profile(intervals: list) -> list:
    """Time spent at each concurrency level, by boundary-event sweep.

    At a shared boundary the finish is processed before the start
    (delta -1 sorts first), so back-to-back tasks on one lane never
    register as concurrency 2.
    """
    boundaries: list[tuple] = []
    for interval in intervals:
        if interval.span_s <= 0.0:
            continue
        boundaries.append((interval.start_t, 1))
        boundaries.append((interval.end_t, -1))
    if not boundaries:
        return []
    boundaries.sort(key=lambda b: (b[0], b[1]))
    at_level: dict[int, float] = {}
    level = 0
    prev_t = boundaries[0][0]
    for t, delta in boundaries:
        if t > prev_t and level > 0:
            at_level[level] = at_level.get(level, 0.0) + (t - prev_t)
        level += delta
        prev_t = t
    return sorted(at_level.items())


def _rank_stragglers(intervals: list) -> "tuple[list, float | None]":
    """Tasks whose execute time reaches STRAGGLER_FACTOR x the median."""
    durations = [iv.duration_s for iv in intervals if iv.duration_s is not None]
    if not durations:
        return [], None
    median = nearest_rank_percentile(durations, 50)
    threshold = STRAGGLER_FACTOR * median
    flagged = [
        iv
        for iv in intervals
        if iv.duration_s is not None and iv.duration_s > 0.0 and iv.duration_s >= threshold
    ]
    flagged.sort(key=lambda iv: (-iv.duration_s, iv.index))
    return flagged, median


def _critical_segments(records: list, intervals: list) -> "tuple[list, float]":
    """Top-level phase segments and the observed sequential wall.

    Rebuilds the span tree with a depth stack (tolerating torn pairs the
    same way the trace reader tolerates a torn tail) and keeps depth-0
    spans, which the engine runs strictly in sequence. For each, the
    critical contribution is the longest single task interval that
    overlaps its window when any do (the task DAG has no inter-task
    edges, so the longest chain is the longest task), else its own wall.
    """
    stack: list[tuple] = []  # (span name, start t, depth)
    segments: list[PhaseSegment] = []
    observed = 0.0
    for rec in records:
        event = rec.get("event")
        if event == "SpanStarted":
            stack.append((rec.get("span", "?"), rec.get("t", 0.0), rec.get("depth", 0)))
        elif event == "SpanFinished":
            name = rec.get("span", "?")
            depth = rec.get("depth", 0)
            while stack and (stack[-1][0] != name or stack[-1][2] != depth):
                stack.pop()  # torn inner pair: discard unmatched opens
            if not stack:
                continue
            _, start_t, _ = stack.pop()
            if depth != 0:
                continue
            end_t = rec.get("t", start_t)
            wall = rec.get("wall_s", end_t - start_t)
            overlapping = [
                iv
                for iv in intervals
                if iv.end_t > start_t and iv.start_t < end_t and iv.span_s > 0.0
            ]
            if overlapping:
                critical = max(iv.span_s for iv in overlapping)
            else:
                critical = wall
            segments.append(
                PhaseSegment(
                    name=name,
                    wall_s=wall,
                    critical_s=critical,
                    n_tasks=len(overlapping),
                )
            )
            observed += wall
    return segments, observed


def build_timeline(source: "TraceReadResult | list | str") -> Timeline:
    """Derive the full timeline from a trace (result, records, or path)."""
    if isinstance(source, TraceReadResult):
        records = source.records
    elif isinstance(source, list):
        records = source
    else:
        records = read_trace(source).records

    timeline = Timeline()
    intervals, timeline.n_instant = _pair_task_intervals(records)
    timeline.intervals = intervals
    packable = [iv for iv in intervals if iv.span_s > 0.0]
    timeline.lanes = _pack_slots(packable)
    if packable:
        timeline.t0 = min(iv.start_t for iv in packable)
        timeline.t1 = max(iv.end_t for iv in packable)
    timeline.parallelism = _parallelism_profile(intervals)
    timeline.stragglers, timeline.median_duration_s = _rank_stragglers(intervals)
    timeline.segments, timeline.observed_wall_s = _critical_segments(records, intervals)
    return timeline


def _fmt_key(interval: TaskInterval) -> str:
    if interval.key is not None:
        return f"key={interval.key}"
    return f"index={interval.index}"


def render_timeline(timeline: Timeline) -> str:
    """Deterministic text rendering of a :class:`Timeline`."""
    lines: list[str] = []
    n_timed = len([iv for iv in timeline.intervals if iv.span_s > 0.0])
    lines.append(
        f"timeline: {len(timeline.intervals)} task(s)"
        f" ({timeline.n_instant} replayed without a start record)"
        f" over {timeline.n_slots} virtual slot(s),"
        f" makespan={timeline.makespan_s:.3f}s"
    )

    if timeline.lanes:
        lines.append("")
        lines.append("virtual slots (first-fit reconstruction, not OS workers)")
        makespan = timeline.makespan_s
        for lane in timeline.lanes[:MAX_RENDER_ROWS]:
            share = 100.0 * lane.busy_s / makespan if makespan > 0.0 else 0.0
            lines.append(
                f"  slot {lane.slot}: {lane.n_tasks} task(s),"
                f" busy={lane.busy_s:.3f}s ({share:.1f}% of makespan)"
            )
        if len(timeline.lanes) > MAX_RENDER_ROWS:
            lines.append(f"  ... {len(timeline.lanes) - MAX_RENDER_ROWS} more slot(s)")
        lines.append(f"  overall utilization: {100.0 * timeline.utilization:.1f}%")

    if timeline.parallelism:
        lines.append("")
        lines.append("parallelism profile (time at each concurrency level)")
        for level, seconds in timeline.parallelism:
            lines.append(f"  {level} in flight: {seconds:.3f}s")

    waits = [iv.queue_wait_s for iv in timeline.intervals if iv.queue_wait_s is not None]
    if waits:
        executes = [iv.duration_s for iv in timeline.intervals if iv.duration_s is not None]
        lines.append("")
        lines.append(
            f"queue-wait vs execute ({len(waits)} scheduler-timed task(s))"
        )
        lines.append(f"  total execute: {sum(executes):.3f}s")
        lines.append(f"  total queue-wait: {sum(waits):.3f}s")

    if timeline.median_duration_s is not None:
        lines.append("")
        lines.append(
            f"stragglers (>= {STRAGGLER_FACTOR:.1f}x median execute"
            f" {timeline.median_duration_s:.3f}s): {len(timeline.stragglers)}"
        )
        for iv in timeline.stragglers[:MAX_RENDER_ROWS]:
            lines.append(
                f"  {_fmt_key(iv)}: {iv.duration_s:.3f}s ({iv.attempts} attempt(s))"
            )
        if len(timeline.stragglers) > MAX_RENDER_ROWS:
            lines.append(
                f"  ... {len(timeline.stragglers) - MAX_RENDER_ROWS} more straggler(s)"
            )

    if timeline.segments:
        lines.append("")
        lines.append("critical path (sequential top-level phases)")
        width = max(len(seg.name) for seg in timeline.segments)
        for seg in timeline.segments:
            row = f"  {seg.name.ljust(width)}  wall={seg.wall_s:.3f}s"
            if seg.n_tasks:
                row += (
                    f"  critical={seg.critical_s:.3f}s"
                    f" (longest of {seg.n_tasks} parallel task(s))"
                )
            lines.append(row)
        lines.append(
            f"  critical path total: {timeline.critical_path_s:.3f}s"
            f" vs observed wall {timeline.observed_wall_s:.3f}s"
        )
        if timeline.critical_path_s > 0.0:
            headroom = timeline.observed_wall_s / timeline.critical_path_s
            lines.append(
                f"  max theoretical speedup at infinite workers: {headroom:.2f}x"
            )

    if n_timed == 0 and not timeline.segments:
        lines.append("")
        lines.append("no task intervals or spans on file — nothing to reconstruct")
    return "\n".join(lines)
