"""Suppression-debt budget: baseline file and growth gate.

Every ``# fraclint: disable[-file]=RULE`` comment is *debt*: a site where
an invariant is waived. The baseline file records how much debt exists
per ``(path, rule)`` so CI can hold the line: a run **fails** when a
group's suppression count grows past the baseline and any suppression in
that group lacks an audit note (the trailing ``-- why`` text, or the
standalone comment lines directly above the directive — the FRL003
positivity-proof convention). Paying debt down never fails; regenerate
the baseline with ``python -m repro.analysis --update-baseline`` after an
audit to ratchet the budget.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.analysis.framework import FileContext, iter_python_files
from repro.utils.exceptions import ReproError

__all__ = [
    "BASELINE_VERSION",
    "collect_suppressions",
    "update_baseline",
    "load_baseline",
    "check_budget",
]

BASELINE_VERSION = 1


def collect_suppressions(paths: "Iterable[Path]") -> "list[dict]":
    """Every suppression record under ``paths``, with its file attached.

    Records are ``{"path", "line", "scope", "rules", "note"}``. Files
    that fail to parse contribute no records (their FRL000 finding blocks
    the run anyway); suppression comments are still read from files that
    parse, whether or not they are library code.
    """
    records: list[dict] = []
    for file_path in iter_python_files(paths):
        try:
            ctx = FileContext.parse(file_path)
        except SyntaxError:
            continue
        for record in ctx.suppression_records():
            records.append({"path": ctx.display_path, **record})
    return sorted(records, key=lambda r: (r["path"], r["line"]))


def _group_counts(records: "list[dict]") -> "dict[str, int]":
    counts: dict[str, int] = {}
    for record in records:
        for rule in record["rules"]:
            key = f"{record['path']}::{rule}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def _group_notes(records: "list[dict]") -> "dict[str, list[str]]":
    notes: dict[str, set] = {}
    for record in records:
        if not record["note"]:
            continue
        for rule in record["rules"]:
            notes.setdefault(f"{record['path']}::{rule}", set()).add(record["note"])
    return {key: sorted(values) for key, values in notes.items()}


def update_baseline(path: "Path | str", records: "list[dict]") -> dict:
    """Regenerate ``path`` mechanically from the current tree.

    Counts and the ``notes`` section (per group, the sorted audit notes
    of the suppressions in the tree) come from ``records`` alone; the
    previous file, if any, is overwritten, so a note whose directive was
    reworded or paid down leaves the baseline with it. The output is
    deterministic: updating twice with an unchanged tree produces
    byte-identical files (the round-trip the tests pin).
    """
    target = Path(path)
    payload = {
        "version": BASELINE_VERSION,
        "total": sum(len(r["rules"]) for r in records),
        "counts": _group_counts(records),
        "notes": _group_notes(records),
    }
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot write baseline {target}: {exc}") from exc
    return payload


def load_baseline(path: "Path | str") -> dict:
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read baseline {target}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"baseline {target} is not valid JSON: {exc}") from exc
    if payload.get("version") != BASELINE_VERSION:
        raise ReproError(
            f"baseline {target} has version {payload.get('version')!r}; "
            f"expected {BASELINE_VERSION} — regenerate with --update-baseline"
        )
    return payload


def check_budget(baseline: dict, records: "list[dict]") -> "list[str]":
    """Problems (empty list = budget holds) for the current records.

    A ``(path, rule)`` group over its baseline count fails only when a
    suppression in that group lacks an audit note — growth justified by
    notes passes, shrinkage always passes, and un-noted debt *within*
    budget is tolerated (pre-existing). The gate therefore ratchets: new
    debt requires a written justification, old debt cannot silently grow.
    """
    base_counts = baseline.get("counts", {})
    current_counts = _group_counts(records)
    problems: list[str] = []
    for key in sorted(current_counts):
        grown_by = current_counts[key] - int(base_counts.get(key, 0))
        if grown_by <= 0:
            continue
        path, _sep, rule = key.partition("::")
        unnoted = [
            r
            for r in records
            if r["path"] == path and rule in r["rules"] and not r["note"]
        ]
        if unnoted:
            lines = ", ".join(str(r["line"]) for r in unnoted)
            problems.append(
                f"{key}: {grown_by} new suppression(s) over baseline and "
                f"un-noted suppression(s) at line(s) {lines} — every new "
                "suppression needs an audit note (`-- why`, or a comment "
                "line above)"
            )
    return problems
