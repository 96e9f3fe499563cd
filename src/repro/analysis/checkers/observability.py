"""Observability rule FRL020: span names must be attributable.

:data:`repro.telemetry.trace.SPAN_QUALNAMES` maps each span name to the
function it measures; ``repro trace diff`` pairs spans renamed between
two traces through it. A span name missing from the mapping is a phase
no diff can follow across a rename, which is the drift this rule
arrests. It promotes the importability anti-drift test in
``tests/telemetry/test_trace.py`` to a static whole-program check: every *literal* ``span()`` name in
library code must resolve (by its base name, ``[...]`` parameter suffix
stripped) to a ``SPAN_QUALNAMES`` key. Dynamic names (a variable, an
f-string with no literal base) are skipped — they are the job of the
runtime test, not a static rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.framework import (
    FileContext,
    ProjectChecker,
    ProjectContext,
    Violation,
    register,
)

#: Resolved callables that open a span. Both the defining module's
#: function and the package re-export count.
SPAN_CALLABLES = frozenset(
    {"repro.telemetry.spans.span", "repro.telemetry.span"}
)

#: Alias values / imported modules that mean "this file may call span()".
_SPAN_SOURCES = (
    "repro.telemetry.spans",
    "repro.telemetry",
)


def _may_use_span(module) -> bool:
    for value in module.aliases.values():
        if value in SPAN_CALLABLES or value in _SPAN_SOURCES:
            return True
    return any(
        imp.get("module", "").startswith("repro.telemetry")
        for imp in module.imported_modules
    )


def _literal_base(arg: ast.expr) -> "str | None":
    """The literal base name of a span argument, or None when dynamic.

    ``"fit.train"`` -> ``fit.train``; ``f"ensemble.member[{i}]"`` ->
    ``ensemble.member`` (the literal prefix up to the parameter bracket);
    a bare variable or an f-string opening with interpolation -> None.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value.split("[", 1)[0]
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            base = head.value.split("[", 1)[0]
            # A literal head that never reaches a bracket is still being
            # built dynamically ("fit." + mode) — not checkable.
            if "[" in head.value or len(arg.values) == 1:
                return base
    return None


@register
class SpanAttributionChecker(ProjectChecker):
    """Span names stay joinable to the call graph.

    Invariant:
        Every literal ``span()`` name in library code must resolve, by
        its base name (the ``[...]`` parameter suffix stripped), to a
        key of ``repro.telemetry.trace.SPAN_QUALNAMES``: that mapping
        names the function each span measures, and ``repro trace diff``
        follows a renamed phase across two traces only through it.

    Example violation:
        with span("fit.newphase"):
            ...
        # "fit.newphase" has no SPAN_QUALNAMES entry

    Fix:
        Add ``"fit.newphase": "<module>.<function>"`` to
        ``SPAN_QUALNAMES`` next to the instrumented function, or reuse
        an already-mapped phase name. Purely local, never-priced phases
        are the rare exception — suppress with
        ``# fraclint: disable=FRL020`` and a note saying why the phase
        must stay unmapped.
    """

    rule = "FRL020"
    name = "span-attribution"
    description = "every literal span() name must resolve in SPAN_QUALNAMES"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        # Imported at check time: the mapping is data owned by the
        # telemetry layer, and the module index records only dict
        # literals whose values are resolvable names (string constants
        # are not), so the live object is the source of truth.
        from repro.telemetry.trace import SPAN_QUALNAMES

        for name in sorted(project.index.modules):
            module = project.index.modules[name]
            if not module.is_library or not _may_use_span(module):
                continue
            try:
                ctx = FileContext.parse(Path(module.path))
            except (OSError, SyntaxError, ValueError):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                if ctx.resolve(node.func) not in SPAN_CALLABLES:
                    continue
                base = _literal_base(node.args[0])
                if base is None or base in SPAN_QUALNAMES:
                    continue
                yield ctx.violation(
                    self.rule,
                    node,
                    f"span name {base!r} is not in SPAN_QUALNAMES "
                    f"(repro.telemetry.trace) — no function is attributed "
                    f"to this phase; add a mapping or reuse a mapped name",
                )
