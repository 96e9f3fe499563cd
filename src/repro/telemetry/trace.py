"""Trace files: reading, summarizing, rendering.

The read side of the JSONL trace sink. ``read_trace`` replays a trace
tolerantly — a run killed mid-write leaves at most one torn final line,
which is dropped and counted, mirroring the checkpoint journal's
recovery model — and ``summarize_trace`` folds the event stream into
the run-level facts an operator asks of a feature-scale batch:

- per-phase wall/CPU breakdown (from spans);
- the slowest features (scheduler-observed task durations);
- the retry / timeout / crash / skip accounting, cross-checked against
  the failure report embedded in the terminal ``RunFinished`` event;
- checkpoint reuse rate.

``python -m repro trace run.jsonl`` renders the summary as text, then
the worker timeline (:mod:`repro.telemetry.timeline`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.sinks import TRACE_FORMAT
from repro.utils.exceptions import ReproError

#: Failure kinds a skipped task may carry, in report order.
FAILURE_KINDS = ("exception", "timeout", "crash")


class TraceError(ReproError):
    """Raised when a file is not a readable trace."""


def nearest_rank_percentile(values: "list[float]", p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.

    No interpolation — the result is always an observed member of
    ``values``, so two summaries of the same trace are byte-identical
    however the platform rounds (the determinism contract of every
    fracscope analysis). ``values`` must be non-empty.
    """
    if not values:
        raise ValueError("percentile of an empty population")
    ordered = sorted(values)
    rank = max(1, -(-int(p) * len(ordered) // 100))  # ceil without floats
    return ordered[min(rank, len(ordered)) - 1]


#: Percentile points reported for every span population.
PERCENTILE_POINTS = (50, 95, 99)


@dataclass
class TraceReadResult:
    """Outcome of replaying one trace file."""

    path: str
    records: list = field(default_factory=list)
    n_torn: int = 0  # torn trailing lines dropped (kill mid-write)
    errors: list = field(default_factory=list)  # undecodable non-tail lines


def read_trace(path: "str | Path") -> TraceReadResult:
    """Replay a JSONL trace; tolerate (and count) a torn final line."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no such trace file: {path}")
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    # A file ending in "\n" splits into [..., b""]; a torn tail does not.
    torn_tail = lines and lines[-1] != b""
    if lines and lines[-1] == b"":
        lines = lines[:-1]

    result = TraceReadResult(path=str(path))
    if not lines:
        raise TraceError(f"{path} is empty; not a {TRACE_FORMAT} trace")
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise TraceError(f"{path} is not a {TRACE_FORMAT} trace (bad header)") from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceError(
            f"{path} is not a {TRACE_FORMAT} trace "
            f"(header format: {header.get('format')!r})"
            if isinstance(header, dict)
            else f"{path} is not a {TRACE_FORMAT} trace"
        )

    last = len(lines) - 1
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if i == last and torn_tail:
                result.n_torn += 1
            else:
                result.errors.append(f"line {i + 1}: undecodable JSON")
            continue
        if not isinstance(record, dict) or "event" not in record:
            result.errors.append(f"line {i + 1}: not an event record")
            continue
        result.records.append(record)
    return result


def per_feature_counts(records: list) -> dict:
    """Multiset of (event name, task key) pairs.

    The replay-determinism check: two identical seeded runs must produce
    identical per-feature counts, timestamps notwithstanding.
    """
    counts: dict[tuple, int] = {}
    for rec in records:
        key = rec.get("key")
        if key is None and "feature_id" in rec:
            key = [rec["feature_id"], rec.get("slot", 0)]
        sig = (rec["event"], tuple(key) if isinstance(key, list) else key)
        counts[sig] = counts.get(sig, 0) + 1
    return counts


@dataclass
class TraceSummary:
    """Folded view of one trace, ready to render or assert against."""

    n_events: int = 0
    n_torn: int = 0
    n_errors: int = 0
    runs: list = field(default_factory=list)  # RunStarted/Finished digests
    phases: list = field(default_factory=list)  # (span, wall_s, cpu_s, count)
    #: span -> {"wall": [p50, p95, p99], "cpu": [...]}; nearest-rank over
    #: that span's population, no interpolation (deterministic).
    phase_percentiles: dict = field(default_factory=dict)
    slowest: list = field(default_factory=list)  # (key, index, duration, attempts)
    n_retries: int = 0
    n_timeouts: int = 0
    n_crashes: int = 0
    task_status_counts: dict = field(default_factory=dict)
    skipped_by_kind: dict = field(default_factory=dict)  # from events
    report_by_kind: dict = field(default_factory=dict)  # from RunFinished payload
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0
    failure_report: "dict | None" = None
    n_scores: int = 0

    @property
    def checkpoint_reuse(self) -> float:
        total = self.checkpoint_hits + self.checkpoint_misses
        return self.checkpoint_hits / total if total else 0.0

    @property
    def faults_consistent(self) -> bool:
        """Do event-derived skip counts match the embedded report?"""
        report = {k: v for k, v in self.report_by_kind.items() if v}
        events = {k: v for k, v in self.skipped_by_kind.items() if v}
        return report == events


def summarize_trace(result: "TraceReadResult | list") -> TraceSummary:
    """Fold a replayed trace (or a bare record list) into a summary."""
    if isinstance(result, TraceReadResult):
        records = result.records
        summary = TraceSummary(n_torn=result.n_torn, n_errors=len(result.errors))
    else:
        records = list(result)
        summary = TraceSummary()
    summary.n_events = len(records)

    phases: dict[str, list] = {}
    samples: dict[str, list] = {}  # span -> [(wall_s, cpu_s), ...]
    open_runs: list[dict] = []
    tasks: list[tuple] = []
    for rec in records:
        name = rec["event"]
        if name == "RunStarted":
            open_runs.append(
                {
                    "kind": rec.get("kind", ""),
                    "n_tasks": rec.get("n_tasks", 0),
                    "mode": rec.get("mode", ""),
                    "n_workers": rec.get("n_workers", 1),
                    "status": "unfinished",
                }
            )
        elif name == "RunFinished":
            digest = {
                "kind": rec.get("kind", ""),
                "status": rec.get("status", ""),
                "n_models": rec.get("n_models", 0),
                "n_skipped": rec.get("n_skipped", 0),
                "n_failed": rec.get("n_failed", 0),
            }
            for run in reversed(open_runs):
                if run["status"] == "unfinished" and run["kind"] == digest["kind"]:
                    run.update(digest)
                    break
            else:
                open_runs.append(digest)
            report = rec.get("failure_report")
            if report is not None:
                summary.failure_report = report
                for failure in report.get("failures", []):
                    kind = failure.get("kind", "exception")
                    summary.report_by_kind[kind] = summary.report_by_kind.get(kind, 0) + 1
        elif name == "SpanFinished":
            span_name = rec.get("span", "?")
            agg = phases.setdefault(span_name, [0.0, 0.0, 0])
            agg[0] += rec.get("wall_s", 0.0)
            agg[1] += rec.get("cpu_s", 0.0)
            agg[2] += 1
            samples.setdefault(span_name, []).append(
                (rec.get("wall_s", 0.0), rec.get("cpu_s", 0.0))
            )
        elif name == "FeatureTaskFinished":
            status = rec.get("status", "ok")
            summary.task_status_counts[status] = (
                summary.task_status_counts.get(status, 0) + 1
            )
            if status == "skipped":
                kind = rec.get("kind") or "exception"
                summary.skipped_by_kind[kind] = summary.skipped_by_kind.get(kind, 0) + 1
            tasks.append(
                (
                    rec.get("duration_s"),
                    rec.get("key"),
                    rec.get("index", -1),
                    rec.get("attempts", 1),
                )
            )
        elif name == "RetryScheduled":
            summary.n_retries += 1
        elif name == "TaskTimedOut":
            summary.n_timeouts += 1
        elif name == "WorkerCrashDetected":
            summary.n_crashes += 1
        elif name == "CheckpointHit":
            summary.checkpoint_hits += 1
        elif name == "CheckpointMiss":
            summary.checkpoint_misses += 1
        elif name == "ScoreComputed":
            summary.n_scores += 1

    summary.runs = open_runs
    summary.phases = sorted(
        ((name, w, c, n) for name, (w, c, n) in phases.items()),
        key=lambda row: (-row[1], row[0]),
    )
    summary.phase_percentiles = {
        name: {
            "wall": [
                nearest_rank_percentile([w for w, _ in pop], p)
                for p in PERCENTILE_POINTS
            ],
            "cpu": [
                nearest_rank_percentile([c for _, c in pop], p)
                for p in PERCENTILE_POINTS
            ],
        }
        for name, pop in samples.items()
    }
    timed = [t for t in tasks if t[0] is not None]
    summary.slowest = sorted(timed, key=lambda t: (-t[0], t[2]))[:10]
    return summary


#: Span name -> the qualname of the function whose cost the span measures.
#: Parametrized spans (``ensemble.member[3]``) match by their base name.
#: ``repro trace diff`` uses it to pair spans renamed between two traces,
#: and fraclint's FRL020 requires every literal span name to be a key.
SPAN_QUALNAMES = {
    "fit.preprocess": "repro.core.imputation.Preprocessor.fit",
    "fit.build_tasks": "repro.core.frac.FRaC.fit_prepared",
    # The training span wraps the batched/per-feature dispatcher.
    "fit.train": "repro.core.engine.run_feature_tasks",
    # One run_feature_batch call: carries batch_size / group attrs. A
    # planner batch has its group digest; a task run on its own (fault
    # plans, passthrough, decomposed members) is a size-1 span, group "".
    "fit.batch": "repro.core.engine.run_feature_batch",
    "score.contributions": "repro.core.engine.score_contributions",
    # The scoring hot path, nested under score.contributions. The span
    # was named score.gather while gather_surprisals was the per-model
    # masked-copy loop and became score.batch when the loop was batched;
    # both names map to the same qualname, which is how `repro trace diff`
    # matches the renamed populations across old and new traces.
    "score.gather": "repro.core.engine.gather_surprisals",
    "score.batch": "repro.core.engine.gather_surprisals",
    "jl.project": "repro.core.preprojection.JLFRaC._project",
    "ensemble.member": "repro.core.ensemble.FRaCEnsemble.fit",
}


def qualname_for_span(span: str) -> "str | None":
    """Call-graph qualname a span name attributes to, if known.

    Strips a ``[...]`` parameter suffix first, so every
    ``ensemble.member[i]`` series folds onto one qualname.
    """
    base = span.split("[", 1)[0]
    return SPAN_QUALNAMES.get(base)


def render_trace_summary(summary: TraceSummary) -> str:
    """Deterministic text rendering of a :class:`TraceSummary`."""
    lines: list[str] = []
    tail = ""
    if summary.n_torn:
        tail += f", {summary.n_torn} torn line(s) dropped"
    if summary.n_errors:
        tail += f", {summary.n_errors} undecodable line(s)"
    lines.append(f"trace summary: {summary.n_events} event(s){tail}")

    if summary.runs:
        lines.append("")
        lines.append("runs")
        for run in summary.runs:
            geometry = ""
            if run.get("mode"):
                geometry = f", {run['mode']} x{run.get('n_workers', 1)}"
            lines.append(
                f"  {run['kind'] or '?'}: {run['status']}"
                f" — {run.get('n_models', 0)} model(s),"
                f" {run.get('n_skipped', 0)} skipped,"
                f" {run.get('n_failed', 0)} failed"
                f" ({run.get('n_tasks', 0)} task(s){geometry})"
            )

    if summary.phases:
        lines.append("")
        lines.append("phases (by total wall time; p50/p95/p99 nearest-rank)")
        width = max(len(name) for name, *_ in summary.phases)
        total_w = total_c = 0.0
        for name, wall, cpu, count in summary.phases:
            total_w += wall
            total_c += cpu
            row = f"  {name.ljust(width)}  wall={wall:.3f}s  cpu={cpu:.3f}s  x{count}"
            pct = summary.phase_percentiles.get(name)
            if pct is not None:
                wp = "/".join(f"{v:.3f}" for v in pct["wall"])
                cp = "/".join(f"{v:.3f}" for v in pct["cpu"])
                row += f"  wall-p50/p95/p99={wp}  cpu-p50/p95/p99={cp}"
            lines.append(row)
        lines.append(f"  {'total'.ljust(width)}  wall={total_w:.3f}s  cpu={total_c:.3f}s")

    if summary.task_status_counts:
        lines.append("")
        lines.append("tasks")
        for status in sorted(summary.task_status_counts):
            lines.append(f"  {status}: {summary.task_status_counts[status]}")

    if summary.slowest:
        lines.append("")
        lines.append("slowest features (scheduler-observed)")
        for duration, key, index, attempts in summary.slowest:
            label = f"key={key}" if key is not None else f"index={index}"
            lines.append(f"  {label}: {duration:.3f}s ({attempts} attempt(s))")

    lines.append("")
    lines.append("faults")
    lines.append(f"  retries scheduled: {summary.n_retries}")
    lines.append(f"  timeouts observed: {summary.n_timeouts}")
    lines.append(f"  worker crashes detected: {summary.n_crashes}")
    for kind in FAILURE_KINDS:
        from_events = summary.skipped_by_kind.get(kind, 0)
        from_report = summary.report_by_kind.get(kind, 0)
        lines.append(
            f"  skipped ({kind}): {from_events} [failure report: {from_report}]"
        )
    lines.append(
        "  event/report accounting: "
        + ("consistent" if summary.faults_consistent else "MISMATCH")
    )

    if summary.checkpoint_hits or summary.checkpoint_misses:
        lines.append("")
        lines.append(
            f"checkpoint: {summary.checkpoint_hits} hit(s) /"
            f" {summary.checkpoint_misses} miss(es)"
            f" ({100.0 * summary.checkpoint_reuse:.1f}% reused)"
        )

    if summary.failure_report and summary.failure_report.get("failures"):
        lines.append("")
        lines.append("failure report (embedded in RunFinished)")
        for failure in summary.failure_report["failures"]:
            lines.append(
                f"  item {failure.get('index')} (key={failure.get('key')!r}):"
                f" {failure.get('kind')} after {failure.get('attempts')} attempt(s)"
                f" — {failure.get('message')}"
            )

    if summary.n_scores:
        lines.append("")
        lines.append(f"scoring: {summary.n_scores} batch(es) scored")
    return "\n".join(lines)
