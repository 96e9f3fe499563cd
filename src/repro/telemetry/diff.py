"""Trace diff: compare two runs of the same workload from their traces.

The question behind every perf PR is "what actually changed?", and the
honest answer lives in trace data, not in commit messages. This module
compares two ``repro-trace-v1`` files by:

- **matched span populations** — spans fold onto their base name
  (``ensemble.member[3]`` → ``ensemble.member``), carrying the
  call-graph qualname from :data:`SPAN_QUALNAMES` when known, so a
  population present in both traces yields per-population wall/CPU/RSS
  deltas even when the runs used different parallel geometry. A span
  that was *renamed* between the runs (``score.gather`` →
  ``score.batch``) still matches when exactly one name on each side
  maps to the same qualname: the code being measured is the same, so
  the populations compare — rendered as ``old -> new``;
- **deterministic thresholds** — a population counts as changed only
  when its wall ratio leaves the ``[1/RATIO_THRESHOLD,
  RATIO_THRESHOLD]`` band (default ±10%); no machine-dependent
  tolerance, so the same two files always produce the same verdict;
- **event-multiset drift** — per-event-name counts compared across the
  runs; a drifted multiset means the runs did *different work* (extra
  retries, lost checkpoint hits), which reframes any timing delta;
- **headline wall** — the sum of top-level (depth-0) span walls per
  trace, and their ratio as the speedup.

``python -m repro trace diff A B`` renders the result. Like every
fracscope analysis, the diff is a pure function of the two record
lists: byte-identical output for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.trace import (
    TraceReadResult,
    qualname_for_span,
    read_trace,
)

#: A population's wall ratio must leave [1/RATIO_THRESHOLD, RATIO_THRESHOLD]
#: to count as changed.
RATIO_THRESHOLD = 1.10


@dataclass
class SpanStats:
    """One span population's aggregate in one trace."""

    name: str
    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_peak_bytes: int = 0  # max over the population


@dataclass
class PopulationDelta:
    """One span population across both traces."""

    name: str
    qualname: "str | None" = None
    a: "SpanStats | None" = None
    b: "SpanStats | None" = None

    @property
    def wall_ratio(self) -> "float | None":
        """B's wall over A's (>1 means B slower); None when unmatched."""
        if self.a is None or self.b is None or self.a.wall_s <= 0.0:
            return None
        return self.b.wall_s / self.a.wall_s

    @property
    def verdict(self) -> str:
        if self.a is None:
            return "only-b"
        if self.b is None:
            return "only-a"
        ratio = self.wall_ratio
        if ratio is None:
            return "unchanged"
        if ratio > RATIO_THRESHOLD:
            return "regressed"
        if ratio < 1.0 / RATIO_THRESHOLD:
            return "improved"
        return "unchanged"


@dataclass
class TraceDiff:
    """Full comparison of two traces."""

    label_a: str
    label_b: str
    populations: list = field(default_factory=list)  # PopulationDelta
    event_drift: list = field(default_factory=list)  # (event, count_a, count_b)
    top_wall_a: float = 0.0  # sum of depth-0 span walls
    top_wall_b: float = 0.0

    @property
    def speedup(self) -> "float | None":
        """A's headline wall over B's (>1: B is faster); None if degenerate."""
        if self.top_wall_a <= 0.0 or self.top_wall_b <= 0.0:
            return None
        return self.top_wall_a / self.top_wall_b

    @property
    def events_drifted(self) -> bool:
        return bool(self.event_drift)


def _records(source: "TraceReadResult | list | str") -> list:
    if isinstance(source, TraceReadResult):
        return source.records
    if isinstance(source, list):
        return source
    return read_trace(source).records


def _span_populations(records: list) -> "dict[str, SpanStats]":
    stats: dict[str, SpanStats] = {}
    for rec in records:
        if rec.get("event") != "SpanFinished":
            continue
        base = rec.get("span", "?").split("[", 1)[0]
        agg = stats.setdefault(base, SpanStats(name=base))
        agg.count += 1
        agg.wall_s += rec.get("wall_s", 0.0)
        agg.cpu_s += rec.get("cpu_s", 0.0)
        agg.rss_peak_bytes = max(agg.rss_peak_bytes, rec.get("rss_peak_bytes", 0) or 0)
    return stats


def _top_level_wall(records: list) -> float:
    return sum(
        rec.get("wall_s", 0.0)
        for rec in records
        if rec.get("event") == "SpanFinished" and rec.get("depth", 0) == 0
    )


def _event_counts(records: list) -> "dict[str, int]":
    counts: dict[str, int] = {}
    for rec in records:
        name = rec.get("event", "?")
        counts[name] = counts.get(name, 0) + 1
    return counts


def _rename_matches(names_a: set, names_b: set) -> "dict[str, str]":
    """Pair spans renamed between the traces through their shared qualname.

    A name present only in A matches a name present only in B when both
    map to the same :data:`SPAN_QUALNAMES` qualname and each side has
    exactly one such name — the measured code is identical, only its
    label moved (``score.gather`` → ``score.batch``). Ambiguous fan-outs
    (two old names onto one new, or vice versa) stay unmatched: a wrong
    pairing would fabricate a ratio.
    """
    by_qual_a: "dict[str, list[str]]" = {}
    for name in sorted(names_a - names_b):
        qual = qualname_for_span(name)
        if qual is not None:
            by_qual_a.setdefault(qual, []).append(name)
    by_qual_b: "dict[str, list[str]]" = {}
    for name in sorted(names_b - names_a):
        qual = qualname_for_span(name)
        if qual is not None:
            by_qual_b.setdefault(qual, []).append(name)
    return {
        only_a[0]: by_qual_b[qual][0]
        for qual, only_a in by_qual_a.items()
        if len(only_a) == 1 and len(by_qual_b.get(qual, ())) == 1
    }


def diff_traces(
    a: "TraceReadResult | list | str",
    b: "TraceReadResult | list | str",
    *,
    label_a: str = "A",
    label_b: str = "B",
) -> TraceDiff:
    """Compare two traces (results, record lists, or paths)."""
    records_a = _records(a)
    records_b = _records(b)
    stats_a = _span_populations(records_a)
    stats_b = _span_populations(records_b)

    diff = TraceDiff(label_a=label_a, label_b=label_b)
    renames = _rename_matches(set(stats_a), set(stats_b))
    renamed_b = set(renames.values())
    for name in sorted(set(stats_a) | set(stats_b)):
        if name in renamed_b:
            continue  # folded into its rename partner's delta below
        if name in renames:
            name_b = renames[name]
            diff.populations.append(
                PopulationDelta(
                    name=f"{name} -> {name_b}",
                    qualname=qualname_for_span(name),
                    a=stats_a[name],
                    b=stats_b[name_b],
                )
            )
            continue
        diff.populations.append(
            PopulationDelta(
                name=name,
                qualname=qualname_for_span(name),
                a=stats_a.get(name),
                b=stats_b.get(name),
            )
        )
    counts_a = _event_counts(records_a)
    counts_b = _event_counts(records_b)
    for name in sorted(set(counts_a) | set(counts_b)):
        ca, cb = counts_a.get(name, 0), counts_b.get(name, 0)
        if ca != cb:
            diff.event_drift.append((name, ca, cb))
    diff.top_wall_a = _top_level_wall(records_a)
    diff.top_wall_b = _top_level_wall(records_b)
    return diff


def _fmt_ratio(ratio: "float | None") -> str:
    if ratio is None:
        return "n/a"
    if ratio >= 1.0:
        return f"{ratio:.2f}x slower"
    return f"{1.0 / ratio:.2f}x faster"


def render_trace_diff(diff: TraceDiff) -> str:
    """Deterministic text rendering of a :class:`TraceDiff`."""
    lines: list[str] = []
    lines.append(f"trace diff: A={diff.label_a}  B={diff.label_b}")
    lines.append(
        f"  headline wall (top-level spans): A={diff.top_wall_a:.3f}s"
        f"  B={diff.top_wall_b:.3f}s"
    )
    speedup = diff.speedup
    if speedup is not None:
        if speedup >= 1.0:
            lines.append(f"  B is {speedup:.2f}x faster than A")
        else:
            lines.append(f"  B is {1.0 / speedup:.2f}x slower than A")

    if diff.populations:
        lines.append("")
        lines.append(
            f"span populations (changed = wall ratio outside"
            f" +/-{100.0 * (RATIO_THRESHOLD - 1.0):.0f}% band)"
        )
        width = max(len(p.name) for p in diff.populations)
        for pop in diff.populations:
            row = f"  {pop.name.ljust(width)}  [{pop.verdict}]"
            if pop.a is not None:
                row += f"  A: wall={pop.a.wall_s:.3f}s x{pop.a.count}"
            if pop.b is not None:
                row += f"  B: wall={pop.b.wall_s:.3f}s x{pop.b.count}"
            if pop.wall_ratio is not None:
                row += f"  ({_fmt_ratio(pop.wall_ratio)})"
            if pop.qualname:
                row += f"  via `{pop.qualname}`"
            lines.append(row)

    lines.append("")
    if diff.event_drift:
        lines.append("event-multiset drift (the runs did different work)")
        for name, ca, cb in diff.event_drift:
            lines.append(f"  {name}: A={ca}  B={cb}")
    else:
        lines.append("event multisets: consistent (same work, timing aside)")
    return "\n".join(lines)

