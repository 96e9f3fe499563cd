"""Project index: per-module symbol tables for whole-program analysis.

fraclint v1 rules were file-local; the v2 rules (FRL010–FRL014) are
interprocedural — an unseeded generator constructed in one module can
taint a learner ``fit`` three call-hops and two modules away. This module
extracts, per file, everything the whole-program passes need *without
keeping the AST around*:

- the module's dotted name, import bindings, and imported ``repro.*``
  modules (the FRL013 layer graph);
- classes with locally-resolved base names (the FRL012 registry check and
  cross-module subclass walks);
- per-function *operation summaries*: ordered call sites with argument
  value references, assignments, returns, ``global`` writes, ``open``
  sites, and free names — the facts :mod:`repro.analysis.dataflow` and
  :mod:`repro.analysis.callgraph` run on;
- module-level string-keyed dict literals (serialized-name registries).

Every :class:`ModuleIndex` is JSON-serializable, which is what makes the
on-disk incremental cache possible: a module whose content hash is
unchanged is loaded from the cache instead of re-parsed, so repeat runs
re-index only what changed (asserted in tests/analysis/test_index.py).
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.utils.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.framework import FileContext

__all__ = [
    "FunctionInfo",
    "ModuleIndex",
    "ProjectIndex",
    "IndexCache",
    "index_module",
    "module_name_for",
    "CACHE_SCHEMA_VERSION",
]

#: Bump when the index or checker semantics change: stale cache entries
#: produced by an older fraclint must not satisfy a newer one.
#: v3: concurrency facts (lock contexts, async markers, attribute
#: accesses, mutations, with-resource scopes) for the concurrency rules.
#: v4: the async markers are gone; a v3 entry's extra keys would not
#: load through ``FunctionInfo.from_dict``.
CACHE_SCHEMA_VERSION = 4

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Method names that mutate their receiver in place. Used to classify a
#: ``x.append(...)`` as a *write* to ``x`` (and ``self.sinks.append(...)``
#: as a write access to the ``sinks`` field) for the concurrency rules.
_MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "remove", "setdefault",
        "update", "write",
    }
)


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, walking up through ``__init__.py``.

    Files outside any package (benchmark scripts, examples) get their stem
    (qualified by the parent directory name to stay unique-ish); package
    files get the full dotted path, e.g. ``repro.core.engine``.
    """
    path = Path(path)
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    cur = path.parent
    while (cur / "__init__.py").is_file():
        parts.append(cur.name)
        parent = cur.parent
        if parent == cur:
            break
        cur = parent
    if len(parts) == (0 if path.name == "__init__.py" else 1):
        # Not inside a package: prefix the directory for uniqueness.
        return f"{path.parent.name}.{path.stem}" if path.parent.name else path.stem
    return ".".join(reversed(parts))


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Value references and operation records (plain dicts: JSON-serializable)
# ---------------------------------------------------------------------------
#
# A *ref* is one atomic value source feeding an expression:
#   {"k": "name",   "v": <local name>}
#   {"k": "call",   "v": <call id within the function>}
#   {"k": "const",  "none": <bool>}            (literal; ``none`` marks None)
#   {"k": "lambda", "free": [<free names>]}
#   {"k": "func",   "v": <nested def qualname>}
#   {"k": "other"}
#
# An *op* is one ordered operation inside a function body:
#   {"op": "call", "id", "callee", "lineno", "col",
#    "args": [[ref, ...], ...], "kwargs": {name: [ref, ...]},
#    "star": [ref, ...], "targets": [names]}
#   {"op": "assign", "targets": [names], "sources": [ref, ...]}
#   {"op": "return", "sources": [ref, ...]}
#
# A *callee* is:
#   {"kind": "name", "v": <locally-resolved dotted or bare name>}
#   {"kind": "method", "recv": <receiver expr string>, "attr": <name>}
#   {"kind": "dynamic", "why": <reason>}


@dataclass
class FunctionInfo:
    """Flow-relevant facts for one function, method, or module body."""

    qualname: str
    name: str
    lineno: int
    params: list = field(default_factory=list)
    class_name: "str | None" = None
    ops: list = field(default_factory=list)
    global_writes: list = field(default_factory=list)
    opens: list = field(default_factory=list)
    free_names: list = field(default_factory=list)
    local_defs: dict = field(default_factory=dict)  # bare name -> qualname
    # -- concurrency facts (fraclint v4, the concurrency rules) ----------
    #: module-level symbol loads: [{"name", "lineno", "locks": [...]}]
    reads: list = field(default_factory=list)
    #: in-place container/global mutations, classified by scope:
    #: [{"name", "how": subscript|attribute|method|aug|global|delete,
    #:   "scope": local|global|alias|free, "target": dotted (non-local),
    #:   "lineno", "locks": [...]}]
    mutations: list = field(default_factory=list)
    #: ``self.<field>`` accesses: [{"attr", "kind": read|write, "lineno",
    #:   "locks": [...]}]
    attr_accesses: list = field(default_factory=list)
    #: with-statement acquisitions of name-shaped context managers:
    #: [{"lock", "lineno", "held": [locks already held]}]
    lock_acquires: list = field(default_factory=list)
    #: lock attributes/names bound to a threading factory:
    #: [{"name" | "attr", "lineno", "factory": dotted factory}]
    lock_defs: list = field(default_factory=list)
    #: "lineno:col" of call sites executed while holding a lock -> locks
    call_locks: dict = field(default_factory=dict)
    #: "lineno:col" of call sites used as a with-statement context
    with_calls: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "lineno": self.lineno,
            "params": self.params,
            "class_name": self.class_name,
            "ops": self.ops,
            "global_writes": self.global_writes,
            "opens": self.opens,
            "free_names": self.free_names,
            "local_defs": self.local_defs,
            "reads": self.reads,
            "mutations": self.mutations,
            "attr_accesses": self.attr_accesses,
            "lock_acquires": self.lock_acquires,
            "lock_defs": self.lock_defs,
            "call_locks": self.call_locks,
            "with_calls": self.with_calls,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionInfo":
        return cls(**data)

    def calls(self) -> "list[dict]":
        return [op for op in self.ops if op["op"] == "call"]


@dataclass
class ModuleIndex:
    """Everything the whole-program passes need to know about one file."""

    name: str
    path: str
    sha256: str
    is_library: bool
    package: "str | None" = None
    aliases: dict = field(default_factory=dict)
    #: Absolute dotted modules this file imports (``repro.*`` and external).
    imported_modules: list = field(default_factory=list)
    #: name -> {"kind": class|function|import|const, "lineno": int}
    symbols: dict = field(default_factory=dict)
    #: class name -> {"lineno", "bases": [resolved], "methods": [names],
    #:               "abstract_methods": [names], "private": bool}
    classes: dict = field(default_factory=dict)
    #: function qualname (local, e.g. "f" / "Cls.f") -> FunctionInfo dict
    functions: dict = field(default_factory=dict)
    #: module-level dict literals with str keys (serialized-name
    #: registries): name -> {"line": int, "entries": {key: resolved val}}
    dict_literals: dict = field(default_factory=dict)
    #: [{"line", "rules": [..], "note": str, "scope": "line"|"file"}]
    suppressions: list = field(default_factory=list)
    parse_error: "str | None" = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "sha256": self.sha256,
            "is_library": self.is_library,
            "package": self.package,
            "aliases": self.aliases,
            "imported_modules": self.imported_modules,
            "symbols": self.symbols,
            "classes": self.classes,
            "functions": self.functions,
            "dict_literals": self.dict_literals,
            "suppressions": self.suppressions,
            "parse_error": self.parse_error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleIndex":
        return cls(**data)

    def function(self, qualname: str) -> "FunctionInfo | None":
        data = self.functions.get(qualname)
        return None if data is None else FunctionInfo.from_dict(data)

    def is_suppressed(self, rule: str, line: int) -> bool:
        for record in self.suppressions:
            rules = set(record["rules"])
            if record["scope"] == "file" and {"*", rule} & rules:
                return True
            if record["scope"] == "line" and record["line"] == line and {"*", rule} & rules:
                return True
        return False


# ---------------------------------------------------------------------------
# The indexing visitor
# ---------------------------------------------------------------------------


class _Refs:
    """Extract atomic value references from an expression."""

    def __init__(self, collector: "_FunctionCollector") -> None:
        self.collector = collector

    def of(self, node: "ast.AST | None") -> list:
        refs: list = []
        self._walk(node, refs)
        return refs

    def _walk(self, node: "ast.AST | None", refs: list) -> None:
        if node is None:
            return
        if isinstance(node, ast.Name):
            refs.append({"k": "name", "v": node.id})
        elif isinstance(node, ast.Call):
            call_id = self.collector.visit_call(node)
            refs.append({"k": "call", "v": call_id})
        elif isinstance(node, ast.Constant):
            refs.append({"k": "const", "none": node.value is None})
        elif isinstance(node, ast.Lambda):
            refs.append(
                {"k": "lambda", "free": sorted(_lambda_free_names(node))}
            )
            # Calls inside a lambda body execute in the enclosing frame's
            # data environment for taint purposes; record them inline.
            self.collector.visit_expr(node.body)
        elif isinstance(node, ast.Starred):
            self._walk(node.value, refs)
        elif isinstance(
            node,
            (ast.Tuple, ast.List, ast.Set, ast.BinOp, ast.BoolOp, ast.UnaryOp,
             ast.Compare, ast.Subscript, ast.Attribute, ast.IfExp,
             ast.FormattedValue, ast.JoinedStr, ast.Await),
        ):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.operator, ast.cmpop, ast.boolop, ast.unaryop, ast.expr_context)):
                    self._walk(child, refs)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            bound = _comprehension_targets(node)
            inner: list = []
            for child in ast.iter_child_nodes(node):
                self._walk_comp(child, inner)
            refs.extend(r for r in inner if not (r["k"] == "name" and r["v"] in bound))
        elif isinstance(node, ast.Dict):
            for value in list(node.keys) + list(node.values):
                self._walk(value, refs)
        else:
            refs.append({"k": "other"})

    def _walk_comp(self, node: "ast.AST | None", refs: list) -> None:
        if node is None:
            return
        if isinstance(node, ast.comprehension):
            self._walk(node.iter, refs)
            for cond in node.ifs:
                self._walk(cond, refs)
        else:
            self._walk(node, refs)


def _comprehension_targets(node: ast.AST) -> "set[str]":
    bound: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.comprehension):
            for target in ast.walk(sub.target):
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


def _lambda_free_names(node: ast.Lambda) -> "set[str]":
    params = {a.arg for a in node.args.args + node.args.kwonlyargs + node.args.posonlyargs}
    if node.args.vararg:
        params.add(node.args.vararg.arg)
    if node.args.kwarg:
        params.add(node.args.kwarg.arg)
    params |= _comprehension_targets(node)
    free: set[str] = set()
    for sub in ast.walk(node.body):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in params:
            free.add(sub.id)
    return free - _BUILTIN_NAMES


def _target_names(target: ast.AST) -> "list[str]":
    """Flatten an assignment target to the base names it (re)binds/mutates."""
    names: list[str] = []
    if isinstance(target, ast.Name):
        names.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.extend(_target_names(element))
    elif isinstance(target, ast.Starred):
        names.extend(_target_names(target.value))
    elif isinstance(target, (ast.Subscript, ast.Attribute)):
        # ``preds[i] = v`` / ``obj.attr = v`` mutate the base container.
        names.extend(_target_names(target.value))
    return names


def _dotted_of(expr: ast.AST) -> "str | None":
    """``a.b.c`` string for a name-shaped expression, else None."""
    parts: list[str] = []
    cur = expr
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        return ".".join([cur.id] + list(reversed(parts)))
    return None


#: Lock/semaphore factories whose result is treated as a lock object.
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Semaphore", "threading.BoundedSemaphore",
        "multiprocessing.Lock", "multiprocessing.RLock",
    }
)


class _ConcurrencyFacts(ast.NodeVisitor):
    """Lock-aware second pass over one function body (fraclint v4).

    Walks the same statements as :class:`_FunctionCollector` but tracks
    the ``with``-statement lock stack, producing the facts the
    concurrency rules (FRL021/022/024/025) consume: module-global reads,
    in-place mutations classified by scope, ``self.<field>`` accesses,
    lock acquisitions with held-set, with-managed call positions. Nested function and class bodies are skipped — they are
    indexed as functions of their own.
    """

    def __init__(self, module: "_ModuleCollector", params: "list[str]") -> None:
        self.module = module
        self._params = set(params)
        self._held: list[str] = []
        self._globals: set[str] = set()
        self._rebinds: set[str] = set()
        self._raw_reads: list[dict] = []
        self._raw_mutations: list[dict] = []
        self.attr_accesses: list[dict] = []
        self.lock_acquires: list[dict] = []
        self.lock_defs: list[dict] = []
        self.call_locks: dict = {}
        self.with_calls: list[str] = []

    # -- driving ----------------------------------------------------------

    def run(self, body: "list[ast.stmt]") -> None:
        self._prescan_globals(body)
        for stmt in body:
            self.visit(stmt)

    def _prescan_globals(self, body: "list[ast.stmt]") -> None:
        # ``global X`` applies to the whole function scope regardless of
        # where the statement sits; collect declarations up front,
        # skipping nested defs (their globals are their own).
        stack: list = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Global):
                self._globals.update(node.names)
            stack.extend(ast.iter_child_nodes(node))

    def reads(self) -> list:
        skip = self._rebinds | self._params
        return [r for r in self._raw_reads if r["name"] not in skip]

    def mutations(self) -> list:
        out: list = []
        for m in self._raw_mutations:
            name = m["name"]
            if name == "self" or name in self._params or (
                name in self._rebinds and name not in self._globals
            ):
                scope, target = "local", None
            elif m["how"] == "global" or name in self._globals:
                scope, target = "global", f"{self.module.name}.{name}"
            elif name in self.module.symbols:
                scope, target = "global", f"{self.module.name}.{name}"
            elif name in self.module.aliases:
                scope, target = "alias", self.module.aliases[name]
            else:
                scope, target = "free", None
            out.append({**m, "scope": scope, "target": target})
        return out

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _key(node: ast.AST) -> str:
        return f"{node.lineno}:{node.col_offset}"

    def _read(self, name: str, lineno: int) -> None:
        if name in self.module.symbols:
            self._raw_reads.append(
                {"name": name, "lineno": lineno, "locks": list(self._held)}
            )

    def _mutate(self, name: str, how: str, lineno: int) -> None:
        self._raw_mutations.append(
            {"name": name, "how": how, "lineno": lineno, "locks": list(self._held)}
        )

    def _self_access(self, attr: str, kind: str, lineno: int) -> None:
        self.attr_accesses.append(
            {"attr": attr, "kind": kind, "lineno": lineno, "locks": list(self._held)}
        )

    # -- statements --------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._rebinds.add(node.name)
        for deco in node.decorator_list:
            self.visit(deco)
        for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
            self.visit(default)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._rebinds.add(node.name)
        for deco in node.decorator_list:
            self.visit(deco)
        for base in node.bases:
            self.visit(base)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        args = node.args
        self._rebinds.update(
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        )
        if args.vararg:
            self._rebinds.add(args.vararg.arg)
        if args.kwarg:
            self._rebinds.add(args.kwarg.arg)
        self.visit(node.body)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._rebinds.add((alias.asname or alias.name).split(".")[0])

    visit_ImportFrom = visit_Import  # type: ignore[assignment]

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._rebinds.add(node.name)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_lock_def(node.targets, node.value, node.lineno)
        for target in node.targets:
            self._record_store(target, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_lock_def([node.target], node.value, node.lineno)
            self._record_store(node.target, node.lineno)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target, node.lineno)
        self.visit(node.value)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._record_store(node.target, node.lineno)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record_store(target, node.lineno, how="delete")

    def visit_For(self, node: "ast.For | ast.AsyncFor") -> None:
        self._record_store(node.target, node.lineno)
        self.visit(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_Global(self, node: ast.Global) -> None:
        pass  # handled by the prescan

    def _visit_comprehension(self, node: ast.AST) -> None:
        self._rebinds.update(_comprehension_targets(node))
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_With(self, node: "ast.With | ast.AsyncWith") -> None:
        acquired = 0
        for item in node.items:
            ctx_expr = item.context_expr
            lock = _dotted_of(ctx_expr)
            if lock is None and isinstance(ctx_expr, ast.Call):
                self.with_calls.append(self._key(ctx_expr))
                func = ctx_expr.func
                if isinstance(func, ast.Name) and func.id == "getattr":
                    # ``with getattr(self, "_lock"):`` — a lock we cannot
                    # name. Recorded so the rules treat the scope as
                    # neither guarded nor unguarded evidence.
                    lock = "<dynamic>"
            if item.optional_vars is not None:
                self._record_store(item.optional_vars, node.lineno)
            self.visit(ctx_expr)
            if lock is not None:
                self.lock_acquires.append(
                    {"lock": lock, "lineno": ctx_expr.lineno, "held": list(self._held)}
                )
                self._held.append(lock)
                acquired += 1
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self._held[-acquired:]

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- expressions -------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node.id, node.lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            return self.generic_visit(node)
        parts = [node.attr]
        cur = node.value
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            if cur.id == "self":
                self._self_access(parts[-1], "read", node.lineno)
            else:
                self._read(cur.id, node.lineno)
            return None
        self.visit(cur)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if self._held:
            self.call_locks[self._key(node)] = list(self._held)
        func = node.func
        if isinstance(func, ast.Attribute):
            mutator = func.attr in _MUTATOR_METHODS
            parts: list[str] = []
            cur = func.value
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name):
                if cur.id == "self":
                    if parts:
                        self._self_access(
                            parts[-1], "write" if mutator else "read", node.lineno
                        )
                else:
                    if mutator:
                        self._mutate(cur.id, "method", node.lineno)
                    self._read(cur.id, node.lineno)
            else:
                self.visit(cur)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    # -- stores -------------------------------------------------------------

    def _record_store(self, target: ast.AST, lineno: int, how: "str | None" = None) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self._mutate(target.id, how or "global", lineno)
            else:
                self._rebinds.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, lineno, how=how)
        elif isinstance(target, ast.Starred):
            self._record_store(target.value, lineno, how=how)
        elif isinstance(target, ast.Subscript):
            self._store_base(target.value, how or "subscript", lineno)
            self.visit(target.slice)
        elif isinstance(target, ast.Attribute):
            self._store_base(target, how or "attribute", lineno)

    def _store_base(self, expr: ast.AST, how: str, lineno: int) -> None:
        """Record the container mutated by a subscript/attribute store."""
        parts: list[str] = []
        cur = expr
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            if cur.id == "self" and parts:
                self._self_access(parts[-1], "write", lineno)
            self._mutate(cur.id, how, lineno)
        elif isinstance(cur, ast.Subscript):
            self._store_base(cur.value, how, lineno)
            self.visit(cur.slice)
        else:
            self.visit(cur)

    def _record_lock_def(self, targets: "list[ast.AST]", value: ast.AST,
                         lineno: int) -> None:
        if not isinstance(value, ast.Call):
            return
        dotted = _dotted_of(value.func)
        if dotted is None:
            return
        head, _, rest = dotted.partition(".")
        resolved = self.module.aliases.get(head, head) + (f".{rest}" if rest else "")
        if resolved not in _LOCK_FACTORIES:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.lock_defs.append(
                    {"name": target.id, "lineno": lineno, "factory": resolved}
                )
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.lock_defs.append(
                    {"attr": target.attr, "lineno": lineno, "factory": resolved}
                )


class _FunctionCollector:
    """Build one :class:`FunctionInfo` from a function (or module) body."""

    def __init__(self, module: "_ModuleCollector", qualname: str, name: str,
                 lineno: int, params: "list[str]", class_name: "str | None") -> None:
        self.module = module
        self.info = FunctionInfo(
            qualname=qualname, name=name, lineno=lineno,
            params=list(params), class_name=class_name,
        )
        self._next_call_id = 0
        self._bound: set[str] = set(params)
        self._loads: set[str] = set()
        self._globals: set[str] = set()
        self._assigned: set[str] = set()
        self.refs = _Refs(self)

    # -- expression-level -----------------------------------------------

    def visit_call(self, node: ast.Call) -> int:
        """Record a call op (children first); returns the call id."""
        args = [self.refs.of(a) for a in node.args]
        kwargs: dict = {}
        star: list = []
        for kw in node.keywords:
            if kw.arg is None:
                star.extend(self.refs.of(kw.value))
            else:
                kwargs[kw.arg] = self.refs.of(kw.value)
        callee = self._callee_of(node.func)
        call_id = self._next_call_id
        self._next_call_id += 1
        op = {
            "op": "call",
            "id": call_id,
            "callee": callee,
            "lineno": node.lineno,
            "col": node.col_offset,
            "args": args,
            "kwargs": kwargs,
            "star": star,
            "targets": [],
        }
        self.info.ops.append(op)
        self._record_open(op, node)
        return call_id

    def visit_expr(self, node: "ast.AST | None") -> list:
        """Record refs/calls of an arbitrary expression."""
        return self.refs.of(node)

    def _callee_of(self, func: ast.AST) -> dict:
        if isinstance(func, ast.Name):
            resolved = self.module.aliases.get(func.id, func.id)
            return {"kind": "name", "v": resolved}
        if isinstance(func, ast.Attribute):
            # Record the nested-call receiver's calls too (x().y()).
            parts: list[str] = [func.attr]
            cur = func.value
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name):
                head = cur.id
                self._loads.add(head)
                if head in self.module.aliases:
                    dotted = ".".join([self.module.aliases[head]] + list(reversed(parts)))
                    return {"kind": "name", "v": dotted}
                recv = ".".join([head] + list(reversed(parts[1:])))
                return {"kind": "method", "recv": recv, "attr": parts[0]}
            if isinstance(cur, ast.Call):
                self.visit_call(cur)
                return {"kind": "dynamic", "why": "method-on-call-result"}
            self.visit_expr(cur)
            return {"kind": "dynamic", "why": "method-on-expression"}
        if isinstance(func, ast.Call):
            inner = self.visit_call(func)
            callee = self.info.ops[-1]["callee"] if self.info.ops else {}
            why = "getattr" if callee.get("v") == "getattr" else "call-result"
            return {"kind": "dynamic", "why": why, "of": inner}
        if isinstance(func, ast.Lambda):
            self.visit_expr(func.body)
            return {"kind": "dynamic", "why": "lambda-literal"}
        self.visit_expr(func)
        return {"kind": "dynamic", "why": type(func).__name__}

    def _record_open(self, op: dict, node: ast.Call) -> None:
        callee = op["callee"]
        is_builtin_open = callee.get("kind") == "name" and callee.get("v") == "open"
        is_method_open = callee.get("kind") == "method" and callee.get("attr") == "open"
        if not (is_builtin_open or is_method_open):
            return
        mode = None
        mode_pos = 1 if is_builtin_open else 0
        if len(node.args) > mode_pos and isinstance(node.args[mode_pos], ast.Constant):
            value = node.args[mode_pos].value
            mode = value if isinstance(value, str) else None
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value if isinstance(kw.value.value, str) else mode
        hint = ""
        if is_builtin_open and node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                hint = node.args[0].value
        elif is_builtin_open and node.args:
            hint = ast.unparse(node.args[0])
        elif is_method_open:
            hint = callee.get("recv", "")
        self.info.opens.append(
            {"mode": mode, "hint": hint, "lineno": node.lineno, "col": node.col_offset}
        )

    # -- statement-level ------------------------------------------------

    def visit_body(self, body: "list[ast.stmt]") -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            prefix = f"{self.module.name}."
            parent = self.info.qualname
            if parent.startswith(prefix):
                parent = parent[len(prefix):]
            qual = self.module.collect_function(stmt, parent=parent,
                                                class_name=None)
            self.info.local_defs[stmt.name] = qual
            self._bound.add(stmt.name)
            for deco in stmt.decorator_list:
                self.visit_expr(deco)
        elif isinstance(stmt, ast.ClassDef):
            self._bound.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            self._visit_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            sources = self.refs.of(stmt.value)
            targets = _target_names(stmt.target)
            sources.extend({"k": "name", "v": name} for name in targets)
            self._emit_assign(targets, sources)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            value = stmt.value
            refs = self.refs.of(value) if value is not None else []
            if isinstance(stmt, ast.Return):
                self.info.ops.append({"op": "return", "sources": refs})
        elif isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            sources = self.refs.of(stmt.iter)
            self._emit_assign(_target_names(stmt.target), sources)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.visit_expr(stmt.test)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                sources = self.refs.of(item.context_expr)
                if item.optional_vars is not None:
                    self._emit_assign(_target_names(item.optional_vars), sources)
            self.visit_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.visit_body(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self._bound.add(handler.name)
                self.visit_body(handler.body)
            self.visit_body(stmt.orelse)
            self.visit_body(stmt.finalbody)
        elif isinstance(stmt, ast.Global):
            self._globals.update(stmt.names)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                self.visit_expr(child)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                self._bound.add((alias.asname or alias.name).split(".")[0])
        # Pass/Break/Continue/Nonlocal: nothing flow-relevant.

    def _visit_assign(self, targets: "list[ast.AST]", value: ast.AST) -> None:
        sources = self.refs.of(value)
        names: list[str] = []
        for target in targets:
            names.extend(_target_names(target))
        self._emit_assign(names, sources)

    def _emit_assign(self, targets: "list[str]", sources: list) -> None:
        self._bound.update(targets)
        self._assigned.update(targets)
        if len(sources) == 1 and sources[0]["k"] == "call":
            # Attach the targets to the call op itself (common case).
            call_id = sources[0]["v"]
            for op in reversed(self.info.ops):
                if op["op"] == "call" and op["id"] == call_id:
                    op["targets"] = list(dict.fromkeys(op["targets"] + targets))
                    return
        if targets or sources:
            self.info.ops.append({"op": "assign", "targets": targets, "sources": sources})

    def finish(self) -> FunctionInfo:
        self.info.global_writes = sorted(self._globals & self._assigned)
        loads = {
            ref["v"]
            for op in self.info.ops
            for refs in (
                [op.get("sources", [])]
                + list(op.get("args", []))
                + list(op.get("kwargs", {}).values())
                + [op.get("star", [])]
            )
            for ref in refs
            if ref["k"] == "name"
        } | self._loads
        self.info.free_names = sorted(
            loads - self._bound - _BUILTIN_NAMES - set(self.module.aliases)
            - set(self.module.symbols)
        )
        return self.info


class _ModuleCollector:
    """Walk one parsed module and produce its :class:`ModuleIndex`."""

    def __init__(self, ctx: "FileContext", name: str) -> None:
        self.ctx = ctx
        self.name = name
        self.aliases = dict(ctx.aliases)
        self.symbols: dict = {}
        self.index = ModuleIndex(
            name=name,
            path=ctx.display_path,
            sha256=content_hash(ctx.source.encode("utf-8")),
            is_library=ctx.is_library,
            package=name.split(".")[0] if "." in name else None,
        )

    def run(self) -> ModuleIndex:
        tree = self.ctx.tree
        self._collect_imports(tree)
        self._collect_symbols(tree)
        self.index.aliases = self.aliases
        self.index.symbols = self.symbols
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.collect_function(stmt, parent=None, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)
        self._collect_module_body(tree)
        self._collect_dict_literals(tree)
        self.index.suppressions = self.ctx.suppression_records()
        return self.index

    def _collect_imports(self, tree: ast.Module) -> None:
        seen: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    seen.setdefault(alias.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    base = self.name.split(".")
                    # ``from . import x`` in pkg/__init__ vs pkg.mod: drop
                    # the file component, then ``level - 1`` more parents.
                    anchor = base if self._is_package_init() else base[:-1]
                    anchor = anchor[: len(anchor) - (node.level - 1)] if node.level > 1 else anchor
                    module = ".".join(anchor + ([module] if module else []))
                if module:
                    seen.setdefault(module, node.lineno)
        self.index.imported_modules = [
            {"module": module, "lineno": lineno} for module, lineno in sorted(seen.items())
        ]

    def _is_package_init(self) -> bool:
        return Path(self.index.path).name == "__init__.py"

    def _collect_symbols(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.symbols[stmt.name] = {"kind": "function", "lineno": stmt.lineno}
            elif isinstance(stmt, ast.ClassDef):
                self.symbols[stmt.name] = {"kind": "class", "lineno": stmt.lineno}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.symbols.setdefault(
                            target.id, {"kind": "const", "lineno": stmt.lineno}
                        )

    def resolve_local(self, name: str) -> str:
        """Qualify a bare module-level symbol with the module name."""
        if name in self.symbols:
            return f"{self.name}.{name}"
        return self.aliases.get(name, name)

    def collect_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef",
                         parent: "str | None", class_name: "str | None") -> str:
        local = node.name if parent is None else f"{parent}.<locals>.{node.name}"
        if class_name is not None:
            local = f"{class_name}.{node.name}"
        params = [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        if node.args.vararg:
            params.append(node.args.vararg.arg)
        if node.args.kwarg:
            params.append(node.args.kwarg.arg)
        collector = _FunctionCollector(
            self, qualname=f"{self.name}.{local}", name=node.name,
            lineno=node.lineno, params=params, class_name=class_name,
        )
        collector.visit_body(node.body)
        info = collector.finish()
        self._attach_facts(info, node.body, params)
        self.index.functions[local] = info.to_dict()
        return local

    def _attach_facts(self, info: FunctionInfo, body: "list[ast.stmt]",
                      params: "list[str]") -> None:
        facts = _ConcurrencyFacts(self, params)
        facts.run(body)
        info.reads = facts.reads()
        info.mutations = facts.mutations()
        info.attr_accesses = facts.attr_accesses
        info.lock_acquires = facts.lock_acquires
        info.lock_defs = facts.lock_defs
        info.call_locks = facts.call_locks
        info.with_calls = facts.with_calls

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            resolved = self.ctx.resolve(base)
            if resolved is not None:
                if "." not in resolved:
                    resolved = self.resolve_local(resolved)
                bases.append(resolved)
        methods: list[str] = []
        abstract: list[str] = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(item.name)
                if _is_abstract(item):
                    abstract.append(item.name)
                self.collect_function(item, parent=None, class_name=node.name)
        self.index.classes[node.name] = {
            "lineno": node.lineno,
            "bases": bases,
            "methods": methods,
            "abstract_methods": abstract,
            "private": node.name.startswith("_"),
        }

    def _collect_module_body(self, tree: ast.Module) -> None:
        collector = _FunctionCollector(
            self, qualname=f"{self.name}.<module>", name="<module>",
            lineno=1, params=[], class_name=None,
        )
        body = [
            stmt for stmt in tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for stmt in body:
            collector.visit_stmt(stmt)
        info = collector.finish()
        self._attach_facts(info, body, params=[])
        self.index.functions["<module>"] = info.to_dict()

    def _collect_dict_literals(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                targets = [stmt.target]
            else:
                continue
            if not isinstance(stmt.value, ast.Dict):
                continue
            entries: dict = {}
            usable = True
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    usable = False
                    break
                resolved = self.ctx.resolve(value)
                if resolved is None:
                    usable = False
                    break
                if "." not in resolved:
                    resolved = self.resolve_local(resolved)
                entries[key.value] = resolved
            if not usable or not entries:
                continue
            for target in targets:
                self.index.dict_literals[target.id] = {
                    "line": stmt.lineno,
                    "entries": entries,
                }


def _is_abstract(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    for deco in func.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else (
            deco.id if isinstance(deco, ast.Name) else None
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def index_module(ctx: "FileContext", name: "str | None" = None) -> ModuleIndex:
    """Index one parsed file into a :class:`ModuleIndex`."""
    return _ModuleCollector(ctx, name or module_name_for(ctx.path)).run()


# ---------------------------------------------------------------------------
# The project index and its on-disk incremental cache
# ---------------------------------------------------------------------------


class ProjectIndex:
    """All indexed modules of one analysis run, addressable by dotted name."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleIndex] = {}
        self._by_path: dict[str, str] = {}

    def add(self, module: ModuleIndex) -> None:
        name = module.name
        if name in self.modules and self.modules[name].path != module.path:
            # Two files mapping to one dotted name (e.g. scripts named
            # alike): keep both addressable via a path-qualified key.
            name = f"{name}@{module.path}"
        self.modules[name] = module
        self._by_path[module.path] = name

    def by_path(self, path: "str | Path") -> "ModuleIndex | None":
        name = self._by_path.get(Path(path).as_posix())
        return None if name is None else self.modules.get(name)

    def find_symbol(self, dotted: str) -> "tuple[ModuleIndex, str] | None":
        """Resolve ``pkg.mod.symbol[.attr…]`` to ``(module, local symbol)``.

        Tries the longest module-name prefix first, so
        ``repro.learners.registry.make_learner`` finds the ``registry``
        module rather than a hypothetical ``make_learner`` submodule.
        """
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            symbol = parts[cut]
            if symbol in module.symbols or symbol in module.classes:
                return module, symbol
            return None
        return None

    def has_module_prefix(self, dotted: str) -> bool:
        """Is any indexed module a prefix of ``dotted``'s package path?"""
        root = dotted.split(".")[0]
        return any(name == root or name.startswith(root + ".") for name in self.modules)

    def subclasses_of(self, roots: "set[str]") -> "list[tuple[ModuleIndex, str]]":
        """All classes deriving (transitively, cross-module) from ``roots``.

        ``roots`` holds fully-qualified class names *or* bare class names
        (matched against the final component, for fixture trees).
        """
        out: list[tuple[ModuleIndex, str]] = []
        for module in self.modules.values():
            for cls in module.classes:
                qualified = f"{module.name}.{cls}"
                if self._derives(qualified, roots, seen=set()):
                    out.append((module, cls))
        return out

    def _derives(self, qualified: str, roots: "set[str]", seen: "set[str]") -> bool:
        if qualified in seen:
            return False
        seen.add(qualified)
        found = self.find_symbol(qualified)
        if found is None:
            return False
        module, cls_name = found
        info = module.classes.get(cls_name)
        if info is None:
            return False
        for base in info["bases"]:
            if base in roots or base.split(".")[-1] in {r.split(".")[-1] for r in roots if "." not in r}:
                return True
            if self._derives(base, roots, seen):
                return True
        return False


class IndexCache:
    """On-disk incremental cache keyed by file content hash.

    Stores, per file, the :class:`ModuleIndex` and the file-local
    violations so an unchanged file is neither re-parsed nor re-checked.
    The whole cache is invalidated when the schema version or the active
    ruleset fingerprint changes.
    """

    def __init__(self, path: "str | Path", ruleset: str) -> None:
        self.path = Path(path)
        self.ruleset = ruleset
        self.files: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if not self.path.is_file():
            return
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            data.get("version") != CACHE_SCHEMA_VERSION
            or data.get("ruleset") != self.ruleset
        ):
            return
        files = data.get("files")
        if isinstance(files, dict):
            self.files = files

    def lookup(self, path: "str | Path", sha256: str) -> "tuple[ModuleIndex, list] | None":
        entry = self.files.get(Path(path).as_posix())
        if entry is None or entry.get("sha256") != sha256:
            self.misses += 1
            return None
        self.hits += 1
        return ModuleIndex.from_dict(entry["module"]), list(entry["violations"])

    def store(self, module: ModuleIndex, violations: "list[dict]") -> None:
        self.files[module.path] = {
            "sha256": module.sha256,
            "module": module.to_dict(),
            "violations": violations,
        }

    def save(self) -> None:
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "ruleset": self.ruleset,
            "files": self.files,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot write fraclint cache {self.path}: {exc}") from exc

    def prune(self, keep: "Iterable[str | Path]") -> None:
        """Drop cache entries for files no longer in the scanned set."""
        keep_set = {Path(p).as_posix() for p in keep}
        self.files = {p: e for p, e in self.files.items() if p in keep_set}
