"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro table1
    python -m repro table2 --scale 0.0078 --replicates 5
    python -m repro table3 --scale 0.004 --replicates 2
    python -m repro table5
    python -m repro fig1
    python -m repro fig2
    python -m repro fig3 --projections 10
    python -m repro datasets            # list the compendium
    python -m repro fit --dataset breast.basal --output detector.pkl \
        --checkpoint run.journal --max-retries 2 --task-timeout 600

The heavy tables honour ``--scale`` / ``--samples`` / ``--replicates`` so a
laptop run can trade fidelity for time (see README "Reproducing the
paper").

Fault tolerance: ``--max-retries`` / ``--task-timeout`` apply to every
engine run (failed features are skipped and reported instead of aborting
the run); ``fit`` additionally streams completed feature models to a
``--checkpoint`` journal, and ``--resume`` restarts a killed run from it,
re-executing only the missing items (docs/scaling.md, "Fault tolerance").

Observability: ``--trace run.jsonl`` records the run's full telemetry
stream to a kill-tolerant JSONL trace and ``--progress`` paints a
throttled one-line progress display on stderr. A recorded trace is
analyzed with ``python -m repro trace run.jsonl`` (summary), ``trace
timeline run.jsonl`` (worker timeline, stragglers, critical path),
``trace diff A B`` (two-run comparison), and ``trace report run.jsonl``
(markdown run report). See docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.data.compendium import COMPENDIUM, table1_rows
from repro.experiments import (
    StudySettings,
    average_fractions,
    fig1_structure,
    fig2_preprojection,
    fig3_sweep,
    render_ascii_series,
    render_table,
    table2,
    table3,
    table4,
    table5,
)


def _settings(args: argparse.Namespace) -> StudySettings:
    return StudySettings(
        scale=args.scale,
        sample_scale=args.samples,
        n_replicates=args.replicates,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        seed=args.seed,
    )


def _cmd_datasets(args: argparse.Namespace) -> str:
    rows = [
        {
            "data set": e.name,
            "kind": e.kind,
            "features": e.paper_features,
            "normal": e.paper_normal,
            "anomaly": e.paper_anomaly,
            "paper full AUC": e.paper_full_auc,
        }
        for e in COMPENDIUM.values()
    ]
    return render_table(rows, title="The compendium (paper Table I geometry)")


def _cmd_table1(args: argparse.Namespace) -> str:
    return render_table(
        table1_rows(scale=args.scale, sample_scale=args.samples),
        title=f"Table I at scale={args.scale}",
    )


def _cmd_table2(args: argparse.Namespace) -> str:
    return render_table(table2(_settings(args)), title="Table II: full FRaC")


def _cmd_table3(args: argparse.Namespace) -> str:
    rows = table3(_settings(args))
    return "\n\n".join(
        [
            render_table(rows, title="Table III: filter/JL/entropy fractions"),
            render_table(average_fractions(rows), title="Averages"),
        ]
    )


def _cmd_table4(args: argparse.Namespace) -> str:
    rows = table4(_settings(args))
    return "\n\n".join(
        [
            render_table(rows, title="Table IV: diverse fractions"),
            render_table(average_fractions(rows), title="Averages"),
        ]
    )


def _cmd_table5(args: argparse.Namespace) -> str:
    return render_table(table5(_settings(args)), title="Table V: schizophrenia")


def _cmd_fig1(args: argparse.Namespace) -> str:
    blocks = []
    for name, lines in fig1_structure(rng=args.seed).items():
        blocks.append(name + "\n" + "\n".join("  " + l for l in lines))
    return "Figure 1: variant wiring\n\n" + "\n\n".join(blocks)


def _cmd_fig2(args: argparse.Namespace) -> str:
    out = fig2_preprojection(rng=args.seed)
    return "\n".join(
        [
            "Figure 2: preprojection worked example",
            f"schema:  {out['schema']}",
            f"datum:   {out['datum']}",
            f"1-hot:   {out['one_hot_concatenated']}",
            f"JL:      {out['jl_shape'][0]} x {out['jl_shape'][1]} random map",
            f"result:  {[round(v, 3) for v in out['projected']]}",
        ]
    )


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.experiments.report import build_report, write_report

    if args.output:
        path = write_report(_settings(args), args.output,
                            fig3_projections=args.projections)
        return f"report written to {path}"
    return build_report(_settings(args), fig3_projections=args.projections)


def _cmd_fig3(args: argparse.Namespace) -> str:
    rows = fig3_sweep(_settings(args), n_projections=args.projections)
    return "\n\n".join(
        [
            render_table(rows, title="Figure 3: JL dimension sweep"),
            render_ascii_series(rows, "scaled_dim", "auc", title="AUC vs dimension"),
        ]
    )


def _cmd_fit(args: argparse.Namespace) -> str:
    """Train one detector on a compendium data set, fault-tolerantly."""
    from dataclasses import replace

    from repro import load_replicates
    from repro.core.frac import FRaC
    from repro.parallel import CheckpointJournal, ExecutionConfig
    from repro.persistence import save_detector
    from repro.utils.exceptions import ReproError

    settings = _settings(args)
    rep = load_replicates(
        args.dataset, 1, scale=args.scale, sample_scale=args.samples, rng=args.seed
    )[0]
    cfg = settings.config_for(args.dataset)
    cfg = replace(
        cfg,
        execution=ExecutionConfig(
            mode=args.mode,
            n_workers=args.workers,
            retry=settings.retry_policy,
        ),
    )

    journal = None
    if args.checkpoint:
        path = Path(args.checkpoint)
        if path.exists() and not args.resume:
            raise ReproError(
                f"checkpoint journal {path} already exists; pass --resume to "
                f"continue that run (or remove the file to start over)"
            )
        journal = CheckpointJournal(path)
    elif args.resume:
        raise ReproError("--resume requires --checkpoint <journal>")

    detector = FRaC(cfg, rng=args.seed)
    try:
        detector.fit(rep.x_train, rep.schema, checkpoint=journal)
    finally:
        if journal is not None:
            journal.close()

    lines = [
        f"fitted {args.dataset}: {len(detector.models_)} feature models "
        f"({detector.n_skipped_} skipped) under {args.mode} mode",
    ]
    if journal is not None:
        lines.append(
            f"checkpoint {args.checkpoint}: resumed {journal.preloaded} "
            f"item(s), journaled {journal.appended} new"
        )
    report = detector.failure_report_
    if report:
        lines.append(report.summary())
    if args.output:
        save_detector(detector, args.output, schema=rep.schema,
                      metadata={"dataset": args.dataset, "seed": args.seed,
                                "settings": settings.to_metadata()})
        lines.append(f"detector written to {args.output}")
    return "\n".join(lines)


def _read_checked(path: str):
    from repro.telemetry.trace import read_trace
    from repro.utils.exceptions import ReproError

    result = read_trace(path)
    if result.errors:
        detail = "; ".join(result.errors[:5])
        raise ReproError(
            f"{path}: {len(result.errors)} undecodable mid-file line(s) "
            f"({detail}) — the file is corrupt beyond a torn tail"
        )
    return result


def _cmd_trace(args: argparse.Namespace) -> str:
    """Trace analysis: summarize / timeline / diff / report.

    ``trace FILE`` summarizes; ``trace timeline FILE`` reconstructs the
    worker timeline; ``trace diff A B`` compares two traces; ``trace
    report FILE`` renders the markdown run report (--output writes it).
    See docs/observability.md ("fracscope v2").
    """
    from repro.utils.exceptions import ReproError

    verb, extra = args.path, list(args.extra)
    if verb == "diff":
        if len(extra) != 2:
            raise ReproError(
                "trace diff requires two trace files: "
                "python -m repro trace diff A.jsonl B.jsonl"
            )
        from repro.telemetry.diff import diff_traces, render_trace_diff

        diff = diff_traces(
            _read_checked(extra[0]),
            _read_checked(extra[1]),
            label_a=extra[0],
            label_b=extra[1],
        )
        return render_trace_diff(diff)
    if verb == "report":
        if len(extra) != 1:
            raise ReproError(
                "trace report requires one trace file: "
                "python -m repro trace report run.jsonl"
            )
        from repro.telemetry.report import render_run_report

        text = render_run_report(_read_checked(extra[0]))
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
            return f"run report written to {args.output}"
        return text
    if verb == "timeline":
        if len(extra) != 1:
            raise ReproError(
                "trace timeline requires one trace file: "
                "python -m repro trace timeline run.jsonl"
            )
        from repro.telemetry.timeline import build_timeline, render_timeline

        return render_timeline(build_timeline(_read_checked(extra[0])))
    if not verb:
        raise ReproError(
            "trace requires a trace file: python -m repro trace run.jsonl"
        )
    if extra:
        raise ReproError(
            f"unknown trace arguments {extra}; expected one of: "
            f"trace FILE | trace timeline FILE | trace diff A B | "
            f"trace report FILE"
        )
    from repro.telemetry.trace import render_trace_summary, summarize_trace

    return render_trace_summary(summarize_trace(_read_checked(verb)))


_COMMANDS = {
    "datasets": _cmd_datasets,
    "fit": _cmd_fit,
    "trace": _cmd_trace,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artifacts of 'Scalable FRaC Variants' (IPPS 2017).",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="artifact to regenerate")
    parser.add_argument("path", nargs="?", default="",
                        help="trace file to summarize, or a trace sub-command "
                             "(timeline | diff | report)")
    parser.add_argument("extra", nargs="*", default=[],
                        help="trace sub-command arguments (e.g. the two "
                             "files for: trace diff A.jsonl B.jsonl)")
    from repro.experiments.settings import DEFAULT_BENCH_SCALE

    parser.add_argument("--scale", type=float, default=DEFAULT_BENCH_SCALE,
                        help="feature-scale factor vs the paper (default 1/64)")
    parser.add_argument("--samples", type=float, default=1.0,
                        help="sample-scale factor (default 1.0 = paper counts)")
    parser.add_argument("--replicates", type=int, default=5,
                        help="replicates per data set (default 5, as the paper)")
    parser.add_argument("--projections", type=int, default=10,
                        help="projections per Fig-3 point (default 10)")
    parser.add_argument("--seed", type=int, default=2017, help="root seed")
    parser.add_argument("--output", default="",
                        help="write the report (report command) or the fitted "
                             "detector (fit command) here")
    parser.add_argument("--verbose", action="store_true",
                        help="log per-run progress to stderr")

    fault = parser.add_argument_group("fault tolerance (docs/scaling.md)")
    fault.add_argument("--max-retries", type=int, default=0,
                       help="retries per feature work item before it is "
                            "skipped and reported (default 0 = fail fast)")
    fault.add_argument("--task-timeout", type=float, default=None,
                       help="seconds before a pooled work item is declared "
                            "hung and its pool recycled (default: none)")
    fault.add_argument("--checkpoint", default="",
                       help="fit: stream completed feature models to this "
                            "append-only journal")
    fault.add_argument("--resume", action="store_true",
                       help="fit: resume from an existing --checkpoint "
                            "journal, re-running only missing items")

    obs = parser.add_argument_group("observability (docs/observability.md)")
    obs.add_argument("--trace", default="", metavar="PATH",
                     help="record the run's telemetry stream to this JSONL "
                          "trace file (inspect with: python -m repro trace PATH)")
    obs.add_argument("--progress", action="store_true",
                     help="paint a throttled one-line progress display on stderr")

    fit = parser.add_argument_group("fit command")
    fit.add_argument("--dataset", default="breast.basal",
                     help="compendium data set to fit (default breast.basal)")
    fit.add_argument("--mode", choices=["serial", "thread", "process"],
                     default="serial", help="execution mode for fit")
    fit.add_argument("--workers", type=int, default=None,
                     help="worker count for pooled modes (default: cpu count)")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    from repro.telemetry import runtime as telemetry_runtime
    from repro.utils.exceptions import ReproError

    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.utils.logging import enable_console_logging

        enable_console_logging()
    configured = None
    if args.trace or args.progress:
        configured = telemetry_runtime.configure(
            trace_path=args.trace or None,
            progress=args.progress,
        )
    try:
        print(_COMMANDS[args.command](args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Only tear down a bus this invocation installed; an ambient bus
        # configured by an embedding harness stays live.
        if configured is not None:
            telemetry_runtime.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
