"""``python -m repro.analysis`` — run fraclint from the command line.

Exit status: 0 when clean, 1 when violations were found or the
suppression-debt budget is exceeded, 2 on usage errors. The CI gate runs
``python -m repro.analysis src/ tests/ benchmarks/ examples/ --cache
.fraclint-cache.json --baseline fraclint-baseline.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.framework import all_checkers, explain, run_analysis
from repro.analysis.reporters import RENDERERS
from repro.utils.exceptions import ReproError

#: Sentinel for a bare ``--explain`` (no rule): print the card index.
_EXPLAIN_INDEX = "__index__"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "fraclint: enforce the FRaC reproduction's determinism, RNG, "
            "and numerical-safety invariants (see docs/invariants.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout (CI artifacts)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        help="incremental cache file keyed by content hash; unchanged "
        "files are neither re-parsed nor re-checked",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="index/check files with N worker processes via the repo's "
        "own run_tasks (default: in-process)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="enforce the suppression-debt budget recorded in FILE",
    )
    parser.add_argument(
        "--update-baseline",
        metavar="FILE",
        dest="update_baseline",
        help="regenerate FILE mechanically (counts and audit notes from "
        "the current tree only), and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="append cache/indexing statistics to the report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        dest="explain_rule",
        nargs="?",
        const=_EXPLAIN_INDEX,
        help="print a rule card (invariant, example violation, fix) and "
        "exit; with no RULE, list a one-line index of every card",
    )
    parser.add_argument(
        "--layers",
        action="store_true",
        help="print the FRL013 import-layer diagram and exit",
    )
    return parser


def _split_rules(spec: "str | None") -> "set[str]":
    if not spec:
        return set()
    return {rule.strip().upper() for rule in spec.split(",") if rule.strip()}


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    checkers = all_checkers()
    if args.list_rules:
        for checker in checkers:
            scope = "library" if checker.library_only else "everywhere"
            print(f"{checker.rule}  {checker.name:<24} [{scope}] {checker.description}")
        return 0

    if args.layers:
        from repro.analysis.checkers.flow import render_layer_diagram

        print(render_layer_diagram())
        return 0

    if args.explain_rule:
        if args.explain_rule == _EXPLAIN_INDEX:
            for checker in checkers:
                print(f"{checker.rule}  {checker.name:<24} {checker.description}")
            print()
            print("Run --explain RULE for the full card (invariant, example, fix).")
            return 0
        rule = args.explain_rule.strip().upper()
        known = {c.rule for c in checkers}
        if rule not in known:
            parser.error(f"unknown rule id {rule!r}; known: {', '.join(sorted(known))}")
        print(explain(rule))
        return 0

    known = {c.rule for c in checkers}
    selected = _split_rules(args.select)
    disabled = _split_rules(args.disable)
    for rule in (selected | disabled) - known:
        parser.error(f"unknown rule id {rule!r}; known: {', '.join(sorted(known))}")
    if selected:
        checkers = [c for c in checkers if c.rule in selected]
    if disabled:
        checkers = [c for c in checkers if c.rule not in disabled]

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(map(str, missing))}")

    if args.update_baseline:
        from repro.analysis.baseline import collect_suppressions, update_baseline

        records = collect_suppressions(paths)
        try:
            payload = update_baseline(args.update_baseline, records)
        except ReproError as exc:
            parser.error(str(exc))
        print(
            f"fraclint: baseline updated at {args.update_baseline} "
            f"({payload['total']} suppression(s) in {len(payload['counts'])} "
            f"group(s), {len(payload['notes'])} with audit notes)"
        )
        return 0

    baseline = None
    if args.baseline:
        from repro.analysis.baseline import load_baseline

        try:
            baseline = load_baseline(args.baseline)
        except ReproError as exc:
            parser.error(str(exc))

    result = run_analysis(
        paths, checkers=checkers, cache_path=args.cache, jobs=args.jobs
    )
    report = RENDERERS[args.format](result.violations, result.n_files)
    if args.stats:
        report += (
            f"\nfraclint: {result.stats['modules_reindexed']} module(s) "
            f"re-indexed, {result.stats['cache_hits']} cache hit(s)"
        )
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"fraclint: report written to {args.output}")
    else:
        print(report)

    status = 1 if result.violations else 0
    if baseline is not None:
        from repro.analysis.baseline import check_budget, collect_suppressions

        problems = check_budget(baseline, collect_suppressions(paths))
        for problem in problems:
            print(f"fraclint budget: {problem}")
        if problems:
            status = 1
        else:
            print("fraclint budget: suppression debt within baseline")
    return status


if __name__ == "__main__":
    sys.exit(main())
