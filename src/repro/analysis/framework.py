"""Core machinery of ``fraclint``, the repo's self-hosted static analyzer.

The FRaC reproduction's correctness rests on invariants that no general
linter knows about: all randomness must flow through the SeedSequence
plumbing of :mod:`repro.utils.rng` (DESIGN.md §6), surprisal math must
never evaluate ``log`` of a value that could be zero or negative, learners
must honour the :class:`~repro.learners.base.BaseLearner` contract, and so
on. This module provides the pieces every checker shares:

- :class:`Violation` — one finding, formatted ``path:line:col: RULE msg``;
- :class:`FileContext` — a parsed file plus suppression-comment data and
  import-alias resolution;
- :class:`Checker` — the checker ABC, and a :func:`register` decorator
  feeding the global rule registry;
- :func:`analyze_file` / :func:`analyze_paths` — drivers used by both the
  CLI (``python -m repro.analysis``) and the test suite.

Suppressions
------------
A violation on line ``L`` is silenced by a ``# fraclint: disable=RULE``
comment on line ``L`` (comma-separate several rules, or use ``all``).
A ``# fraclint: disable-file=RULE`` comment anywhere silences the rule for
the whole file. Suppressions are meant for *audited* sites and should carry
a justification in the surrounding comment (see docs/invariants.md).
"""

from __future__ import annotations

import ast
import inspect
import io
import re
import tokenize
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Violation",
    "FileContext",
    "Checker",
    "ProjectChecker",
    "ProjectContext",
    "AnalysisResult",
    "register",
    "all_checkers",
    "get_checker",
    "explain",
    "ruleset_fingerprint",
    "analyze_file",
    "analyze_paths",
    "run_analysis",
    "iter_python_files",
]

_SUPPRESS_RE = re.compile(
    r"#\s*fraclint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<rules>(?:[A-Za-z0-9_*]+\s*,\s*)*[A-Za-z0-9_*]+)"
)

#: Rule id reserved for files that cannot be parsed at all.
PARSE_ERROR_RULE = "FRL000"


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule violated at a location, with a human message."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def _parse_suppressions(source: str) -> "tuple[dict[int, set[str]], set[str]]":
    """Extract per-line and per-file suppression comments.

    Returns ``(line -> rules, file_rules)``; the token stream (not a regex
    over raw lines) is used so that ``#`` inside string literals cannot be
    mistaken for a comment.
    """
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            rules = {
                r.strip().upper().replace("ALL", "*")
                for r in match.group("rules").split(",")
                if r.strip()
            }
            if match.group("scope") == "disable-file":
                per_file |= rules
            else:
                per_line.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass  # unterminated constructs surface as FRL000 via ast.parse
    return per_line, per_file


def _suppression_records(source: str) -> "list[dict]":
    """Every suppression directive with its audit note, in line order.

    A record is ``{"line", "scope", "rules", "note"}``. The note is the
    text after the rule list on the directive's own comment (``-- why``),
    or — when that is empty — the contiguous standalone comment lines
    directly above the directive (the FRL003 positivity-proof convention).
    Records feed :mod:`repro.analysis.baseline`'s suppression-debt budget:
    a suppression without a note is unaudited debt.
    """
    comments: dict[int, tuple] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = (tok.string, tok.start[1])
    except tokenize.TokenError:
        return []
    lines = source.splitlines()

    def standalone_text(line: int) -> "str | None":
        """Comment text when line holds nothing but a comment."""
        entry = comments.get(line)
        if entry is None:
            return None
        text, col = entry
        if line - 1 < len(lines) and lines[line - 1][:col].strip():
            return None  # trailing comment after code
        return text.lstrip("#").strip()

    records: list[dict] = []
    for line in sorted(comments):
        text, _col = comments[line]
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = sorted(
            r.strip().upper().replace("ALL", "*")
            for r in match.group("rules").split(",")
            if r.strip()
        )
        note = text[match.end():].strip().lstrip("-—:·").strip()
        if not note:
            above: list[str] = []
            cursor = line - 1
            while cursor >= 1:
                body = standalone_text(cursor)
                if body is None or _SUPPRESS_RE.search(body or ""):
                    break
                above.append(body)
                cursor -= 1
            note = " ".join(reversed(above)).strip()
        records.append(
            {
                "line": line,
                "scope": "file" if match.group("scope") == "disable-file" else "line",
                "rules": rules,
                "note": note,
            }
        )
    return records


def _display(path: Path) -> str:
    """Path as reported in violations: cwd-relative when possible."""
    try:
        return Path(path).resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return Path(path).as_posix()


def _infer_is_library(path: Path) -> bool:
    """Library code gets the strict rules; tests and fixtures do not."""
    parts = {p.lower() for p in path.parts}
    if parts & {"tests", "test", "examples", "benchmarks", "fixtures"}:
        return False
    name = path.name
    return not (name.startswith("test_") or name == "conftest.py")


@dataclass
class FileContext:
    """A parsed source file plus everything checkers need to inspect it."""

    path: Path
    source: str
    tree: ast.Module
    is_library: bool
    line_suppressions: dict = field(default_factory=dict)
    file_suppressions: set = field(default_factory=set)
    #: import alias -> fully dotted module/object path (e.g. ``np`` ->
    #: ``numpy``, ``npr`` -> ``numpy.random``, ``log`` -> ``math.log``).
    aliases: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, *, force_library: "bool | None" = None) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        per_line, per_file = _parse_suppressions(source)
        ctx = cls(
            path=path,
            source=source,
            tree=tree,
            is_library=_infer_is_library(path) if force_library is None else force_library,
            line_suppressions=per_line,
            file_suppressions=per_file,
        )
        ctx.aliases = _collect_aliases(tree)
        return ctx

    @property
    def display_path(self) -> str:
        return _display(self.path)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if {"*", rule} & self.file_suppressions:
            return True
        at_line = self.line_suppressions.get(line, set())
        return bool({"*", rule} & at_line)

    def suppression_records(self) -> "list[dict]":
        """Suppression directives with audit notes (see the module doc)."""
        return _suppression_records(self.source)

    def resolve(self, node: ast.AST) -> "str | None":
        """Fully dotted name of an expression, unfolding import aliases.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when the file
        did ``import numpy as np``; returns ``None`` for non-name shapes
        (subscripts, calls, literals).
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        head = self.aliases.get(cur.id, cur.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


def _collect_aliases(tree: ast.Module) -> dict:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None and "." in alias.name:
                    # ``import numpy.random`` binds ``numpy``; record the
                    # full path too so ``numpy.random.X`` resolves as-is.
                    aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


class ProjectContext:
    """Whole-program view handed to :class:`ProjectChecker` rules.

    Built once per :func:`run_analysis` invocation from every scanned
    file's :class:`~repro.analysis.index.ModuleIndex`, with the resolved
    :class:`~repro.analysis.callgraph.CallGraph` constructed lazily (rules
    that only need the import graph never pay for call resolution).
    """

    def __init__(self, index) -> None:
        self.index = index
        self._graph = None
        self._concurrency = None

    @property
    def graph(self):
        if self._graph is None:
            from repro.analysis.callgraph import build_call_graph

            self._graph = build_call_graph(self.index)
        return self._graph

    @property
    def concurrency(self):
        """The happens-before model of the concurrency rules, computed once.

        Work roots, worker reachability, mutable globals, the lock
        inventory, and the lock-order graph are shared by all four
        concurrency rules (FRL021, FRL022, FRL024, FRL025), so the model builds at most once per context.
        """
        if self._concurrency is None:
            from repro.analysis.concurrency import build_concurrency_model

            self._concurrency = build_concurrency_model(self)
        return self._concurrency


@dataclass
class AnalysisResult:
    """Everything one :func:`run_analysis` run produced."""

    violations: list
    n_files: int
    #: ``files``, ``modules_reindexed`` (parsed this run, i.e. cache
    #: misses), ``cache_hits``.
    stats: dict
    project: "ProjectContext | None" = None


class Checker(ABC):
    """One rule. Subclasses are registered via :func:`register`."""

    #: Stable rule id, e.g. ``"FRL001"``. Unique across the registry.
    rule: str = ""
    #: Short kebab-case name used in docs and ``--list-rules``.
    name: str = ""
    #: One-line description of the enforced invariant.
    description: str = ""
    #: When True the rule only applies to library code (``src/``), not to
    #: tests/examples/benchmarks. See :func:`_infer_is_library`.
    library_only: bool = True

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield violations found in ``ctx``."""

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_library or not self.library_only


class ProjectChecker(Checker):
    """A whole-program rule: runs once over the :class:`ProjectContext`.

    Subclasses implement :meth:`check_project`; the per-file :meth:`check`
    hook is a no-op so project rules cost nothing under
    :func:`analyze_file` (which by design has no cross-module view).
    Violations are still suppressible with the usual line/file comments —
    :func:`run_analysis` filters them through the indexed suppressions of
    the module each violation is anchored in.
    """

    @abstractmethod
    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        """Yield violations found across the indexed project."""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a :class:`Checker` subclass to the registry."""
    if not cls.rule or not cls.rule.startswith("FRL"):
        raise ValueError(f"checker {cls.__name__} must define a FRLxxx rule id")
    if cls.rule in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule}")
    _REGISTRY[cls.rule] = cls
    return cls


def all_checkers() -> "list[Checker]":
    """Fresh instances of every registered checker, sorted by rule id."""
    _ensure_builtin_checkers()
    return [_REGISTRY[rule]() for rule in sorted(_REGISTRY)]


def get_checker(rule: str) -> Checker:
    _ensure_builtin_checkers()
    # The registry is populated once per interpreter by import-time
    # @register decorators (append-only, and _ensure_builtin_checkers ran
    # on the line above), so a process-mode scan worker reads its own
    # fully-initialized copy and thread-mode readers see a dict that no
    # longer changes.
    return _REGISTRY[rule]()  # fraclint: disable=FRL021 — import-time-frozen registry, initialized before any read


def _ensure_builtin_checkers() -> None:
    # Import for the side effect of running the @register decorators.
    from repro.analysis import checkers  # noqa: F401


def analyze_file(
    path: Path,
    *,
    checkers: "Sequence[Checker] | None" = None,
    force_library: "bool | None" = None,
) -> "list[Violation]":
    """All (unsuppressed) violations in one file."""
    path = Path(path)
    try:
        ctx = FileContext.parse(path, force_library=force_library)
    except SyntaxError as exc:
        return [
            Violation(
                path=path.as_posix(),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    active = list(checkers) if checkers is not None else all_checkers()
    found: list[Violation] = []
    for checker in active:
        if not checker.applies_to(ctx):
            continue
        for violation in checker.check(ctx):
            if not ctx.is_suppressed(violation.rule, violation.line):
                found.append(violation)
    return sorted(found)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic stream of ``*.py``.

    ``fixtures`` directories are skipped during expansion: they hold
    *intentionally* violating code for the checker tests. The skip applies
    to the path *below* each given root, so passing a fixture tree (or
    file) explicitly still scans it.
    """
    for path in paths:
        path = Path(path)
        if path.is_dir():
            found = []
            for p in path.rglob("*.py"):
                rel_parts = p.relative_to(path).parts
                if "__pycache__" in rel_parts or "fixtures" in rel_parts:
                    continue
                if any(part.startswith(".") for part in rel_parts):
                    continue
                found.append(p)
            yield from sorted(found)
        elif path.suffix == ".py":
            yield path


def ruleset_fingerprint(checkers: "Sequence[Checker]") -> str:
    """Cache key component: which file-local rules produced the entries."""
    rules = sorted(c.rule for c in checkers if not isinstance(c, ProjectChecker))
    return "file:" + ",".join(rules)


def _scan_one(item: dict) -> dict:
    """Parse, file-check, and index one file (top-level: picklable).

    ``item`` is ``{"path", "force_library", "rules"}``; the result carries
    the serialized :class:`~repro.analysis.index.ModuleIndex` and the
    file-local violations as dicts, so it crosses process boundaries and
    feeds the on-disk cache unchanged.
    """
    from repro.analysis.index import ModuleIndex, content_hash, index_module, module_name_for

    path = Path(item["path"])
    force_library = item["force_library"]
    checkers = [get_checker(rule) for rule in item["rules"]]
    try:
        ctx = FileContext.parse(path, force_library=force_library)
    except SyntaxError as exc:
        is_library = _infer_is_library(path) if force_library is None else force_library
        broken = ModuleIndex(
            name=module_name_for(path),
            path=_display(path),
            sha256=content_hash(path.read_bytes()),
            is_library=is_library,
            parse_error=str(exc.msg),
        )
        violation = Violation(
            path=_display(path),
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc.msg}",
        )
        return {"module": broken.to_dict(), "violations": [violation.to_dict()]}
    found: list[Violation] = []
    for checker in checkers:
        if not checker.applies_to(ctx):
            continue
        for violation in checker.check(ctx):
            if not ctx.is_suppressed(violation.rule, violation.line):
                found.append(violation)
    module = index_module(ctx)
    return {
        "module": module.to_dict(),
        "violations": [v.to_dict() for v in sorted(found)],
    }


def run_analysis(
    paths: Iterable[Path],
    *,
    checkers: "Sequence[Checker] | None" = None,
    cache_path: "Path | str | None" = None,
    jobs: int = 0,
    force_library: "bool | None" = None,
) -> AnalysisResult:
    """Whole-program analysis over files and directories.

    File-local rules run per file (cached by content hash when
    ``cache_path`` is given; parallelized over files via the repo's own
    :func:`repro.parallel.executor.run_tasks` when ``jobs > 1``), then
    every :class:`ProjectChecker` runs once over the assembled
    :class:`ProjectContext`. ``stats["modules_reindexed"]`` counts files
    actually re-parsed this run — an unchanged tree under a warm cache
    re-indexes zero modules.
    """
    from repro.analysis.index import IndexCache, ModuleIndex, ProjectIndex, content_hash

    active = list(checkers) if checkers is not None else all_checkers()
    file_rules = [c.rule for c in active if not isinstance(c, ProjectChecker)]
    project_checkers = [c for c in active if isinstance(c, ProjectChecker)]

    cache = None
    if cache_path is not None:
        cache = IndexCache(cache_path, ruleset=ruleset_fingerprint(active))

    files = list(iter_python_files(paths))
    violations: list[Violation] = []
    project = ProjectIndex()
    pending: list[dict] = []
    for file_path in files:
        item = {
            "path": str(file_path),
            "force_library": force_library,
            "rules": file_rules,
        }
        if cache is not None:
            cached = cache.lookup(_display(file_path), content_hash(file_path.read_bytes()))
            if cached is not None:
                module, cached_violations = cached
                project.add(module)
                violations.extend(Violation(**v) for v in cached_violations)
                continue
        pending.append(item)

    if len(pending) > 1 and jobs > 1:
        from repro.parallel.executor import ExecutionConfig, run_tasks

        results = run_tasks(
            _scan_one, pending, config=ExecutionConfig(mode="process", n_workers=jobs)
        )
    else:
        results = [_scan_one(item) for item in pending]

    for result in results:
        module = ModuleIndex.from_dict(result["module"])
        project.add(module)
        violations.extend(Violation(**v) for v in result["violations"])
        if cache is not None:
            cache.store(module, result["violations"])

    if cache is not None:
        cache.prune(_display(Path(p)) for p in files)
        cache.save()

    context = ProjectContext(project)
    for checker in project_checkers:
        for violation in checker.check_project(context):
            module = project.by_path(violation.path)
            if module is not None and module.is_suppressed(violation.rule, violation.line):
                continue
            violations.append(violation)

    stats = {
        "files": len(files),
        "modules_reindexed": len(pending),
        "cache_hits": cache.hits if cache is not None else 0,
    }
    return AnalysisResult(
        violations=sorted(violations), n_files=len(files), stats=stats, project=context
    )


def analyze_paths(
    paths: Iterable[Path],
    *,
    checkers: "Sequence[Checker] | None" = None,
) -> "tuple[list[Violation], int]":
    """Run over files and directories; returns ``(violations, n_files)``."""
    result = run_analysis(paths, checkers=checkers)
    return result.violations, result.n_files


#: Docstring sections every checker must provide for ``--explain``.
EXPLAIN_SECTIONS = ("Invariant:", "Example violation:", "Fix:")


def explain(rule: str) -> str:
    """Human-readable rule card: invariant, example violation, fix.

    Sourced from the checker class docstring, which must contain the
    :data:`EXPLAIN_SECTIONS` headers (enforced here and in the tests so a
    new rule cannot ship without them).
    """
    checker = get_checker(rule)
    doc = inspect.cleandoc(checker.__class__.__doc__ or "")
    missing = [s for s in EXPLAIN_SECTIONS if s not in doc]
    if missing:
        raise ValueError(
            f"{rule} docstring is missing --explain section(s): {', '.join(missing)}"
        )
    scope = "library code" if checker.library_only else "all scanned code"
    header = f"{checker.rule} {checker.name} (applies to {scope})"
    body = doc.split("\n", 1)[1].strip() if "\n" in doc else ""
    return f"{header}\n{'=' * len(header)}\n{checker.description}\n\n{body}"
