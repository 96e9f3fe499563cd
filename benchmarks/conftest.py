"""Shared benchmark fixtures.

Benchmarks run the paper's protocol at a reduced feature scale (DESIGN.md
§5). Environment overrides allow dialing the fidelity/cost trade-off:

- ``REPRO_BENCH_SCALE``      feature-scale factor (default 1/64)
- ``REPRO_BENCH_REPLICATES`` replicates per data set (default 5, as in
  the paper)
- ``REPRO_BENCH_SAMPLES``    sample-scale factor (default 1.0 = paper
  sample counts)

Each bench writes its rendered table/series to ``benchmarks/results/`` so
the regenerated artifacts survive pytest's output capture. A telemetry
sidecar, ``benchmarks/results/BENCH_telemetry.json``, records per-bench
wall time, CPU time, and peak RSS through the telemetry metrics registry
(see docs/observability.md), so successive bench runs can be compared
without re-parsing pytest output.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.experiments import DEFAULT_BENCH_SCALE, StudySettings, default_study
from repro.parallel import profiling
from repro.telemetry import MetricsRegistry

RESULTS_DIR = Path(__file__).parent / "results"

#: Session-wide registry the timing hook below fills; dumped at exit.
_BENCH_METRICS = MetricsRegistry()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    w0, c0 = profiling.wall_seconds(), profiling.cpu_seconds()
    yield
    name = item.nodeid.split("::")[-1]
    _BENCH_METRICS.gauge(f"bench.{name}.wall_s").set(profiling.wall_seconds() - w0)
    _BENCH_METRICS.gauge(f"bench.{name}.cpu_s").set(profiling.cpu_seconds() - c0)
    _BENCH_METRICS.gauge(f"bench.{name}.rss_peak_bytes").set(
        profiling.peak_rss_bytes()
    )


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_METRICS.snapshot()["gauges"]:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"format": "repro-bench-telemetry-v1", **_BENCH_METRICS.snapshot()}
    (RESULTS_DIR / "BENCH_telemetry.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="session")
def settings() -> StudySettings:
    return default_study(
        scale=float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_BENCH_SCALE)),
        sample_scale=float(os.environ.get("REPRO_BENCH_SAMPLES", 1.0)),
        n_replicates=int(os.environ.get("REPRO_BENCH_REPLICATES", 5)),
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/results/."""
    print(f"\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@contextmanager
def capture_trace(path: Path):
    """Route telemetry into a fracscope JSONL trace at ``path``.

    Installs a private bus via ``set_bus`` save/restore — not
    ``configure(trace_path=...)``, which would close whatever bus the
    surrounding session owns — so the capture composes with any ambient
    telemetry. Read the trace with ``python -m repro trace <path>`` or
    compare two with ``python -m repro trace diff A B``
    (docs/observability.md).
    """
    from repro.telemetry import EventBus
    from repro.telemetry.runtime import get_bus, set_bus
    from repro.telemetry.sinks import JsonlTraceSink

    sink = JsonlTraceSink(path)
    previous = get_bus()
    set_bus(EventBus(sinks=[sink]))
    try:
        yield
    finally:
        set_bus(previous)
        sink.close()


def emit_json(
    results_dir: Path, name: str, payload: dict, *, label: "str | None" = None
) -> Path:
    """Persist a BENCH_*.json point under benchmarks/results/.

    Without ``label`` the file is overwritten with ``payload`` (one-shot
    benches). With ``label`` the file is a *trajectory*: a v2 document
    whose ``entries`` list accumulates one labelled payload per engine
    generation, so the committed results carry their own history (the
    regression test compares the newest entry against its predecessors).
    A legacy single-payload (v1) file is migrated into the first entry;
    re-running a bench replaces its own label's entry rather than
    appending a duplicate, keeping reruns idempotent.
    """
    target = results_dir / f"{name}.json"
    if label is None:
        target.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return target

    entries: list[dict] = []
    if target.exists():
        existing = json.loads(target.read_text(encoding="utf-8"))
        if isinstance(existing.get("entries"), list):
            entries = existing["entries"]
        else:
            existing.pop("format", None)
            legacy_label = existing.pop("label", "baseline")
            entries = [{"label": legacy_label, **existing}]
    entries = [e for e in entries if e.get("label") != label]
    entries.append({"label": label, **payload})
    document = {"format": f"repro-bench-{name.split('_', 1)[-1].lower()}-v2", "entries": entries}
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


#: Events kept when a captured trace is condensed: runs and spans carry
#: all the wall/CPU time ``repro trace diff`` compares. The per-task /
#: per-fold events are O(features) lines (megabytes at even bench
#: scale); their counts are folded into BENCH_*.json first.
CONDENSED_EVENTS = frozenset(
    {"RunStarted", "RunFinished", "SpanStarted", "SpanFinished"}
)


def condense_trace(path: Path) -> None:
    """Rewrite a trace in place, keeping only :data:`CONDENSED_EVENTS`.

    The result is still a valid fracscope trace (header preserved), and
    ``python -m repro trace diff`` reads the same span populations from
    it — span time is untouched, only per-task annotations are gone.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = [lines[0]]
    kept.extend(
        line for line in lines[1:]
        if line.strip() and json.loads(line).get("event") in CONDENSED_EVENTS
    )
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
