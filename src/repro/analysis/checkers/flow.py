"""Whole-program fraclint rules (FRL010–FRL014).

These rules run on the :class:`~repro.analysis.framework.ProjectContext`
— the project index, resolved call graph, and taint engine — rather than
on a single file, because the bugs they catch are interprocedural: an
unseeded generator created in one module can taint a learner ``fit`` in
another, and a callable handed to ``run_tasks`` can reach a module-global
mutation three call-hops away.

FRL010  seed-provenance        unseeded RNG must not reach training paths
FRL011  fork-safety            worker callables stay side-effect free
FRL012  registry-completeness  every concrete learner/error model registers
FRL013  import-layering        the package layer DAG is acyclic and ordered
FRL014  checkpoint-write-safety append I/O goes through torn-tail writers
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency import resolve_callable_ref, submitted_work_fn
from repro.analysis.dataflow import TaintConfig, TaintEngine
from repro.analysis.framework import (
    ProjectChecker,
    ProjectContext,
    Violation,
    register,
)
from repro.analysis.index import FunctionInfo, ModuleIndex, ProjectIndex

__all__ = [
    "SeedProvenanceChecker",
    "ForkSafetyChecker",
    "RegistryCompletenessChecker",
    "ImportLayeringChecker",
    "CheckpointWriteSafetyChecker",
    "LAYERS",
    "render_layer_diagram",
]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


# Work-function discovery is shared with the concurrency model (FRL021+);
# the canonical implementations live in repro.analysis.concurrency.
_resolve_callable_ref = resolve_callable_ref


def _final(name: str) -> str:
    return name.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# FRL010 — seed provenance
# ---------------------------------------------------------------------------


@register
class SeedProvenanceChecker(ProjectChecker):
    """FRL010: unseeded RNG must never taint a training path.

    Invariant:
        Every ``numpy.random.Generator``/``SeedSequence`` (or raw bit
        generator) that reaches a learner constructor, ``fit``/``clone``,
        ``make_learner``, or a ``FaultPlan`` must be constructed from an
        explicit seed — ultimately derived from
        ``repro.utils.rng.spawn_seeds`` or a ``StudySettings`` seed. An
        unseeded ``default_rng()`` anywhere upstream of training makes
        the NS scores unreproducible, even if the construction site is
        modules away from the ``fit`` it contaminates; the taint engine
        follows the value through assignments, call arguments, returns,
        and derived values (``rng.permutation(...)`` and friends).

    Example violation:
        ``rng = np.random.default_rng()`` in ``core/engine.py`` whose
        ``rng.integers(...)`` result becomes a learner seed, or whose
        permutation indexes the folds a ``model.fit(X[train_idx], ...)``
        trains on.

    Fix:
        Thread an explicit seed to the construction site: derive child
        seeds with ``spawn_seeds(settings.seed, n)`` and build
        ``np.random.default_rng(child_seed)``. If a site is genuinely
        seed-independent (never flows into training), suppress with an
        audit note explaining why.
    """

    rule = "FRL010"
    name = "seed-provenance"
    description = (
        "An unseeded np.random.default_rng()/SeedSequence() that flows "
        "(possibly across modules) into a learner constructor, "
        "fit/clone, make_learner, or FaultPlan breaks seeded replay; "
        "derive every training-path generator from spawn_seeds or a "
        "StudySettings seed."
    )
    library_only = True

    #: RNG constructors that create taint when called without a seed.
    rng_ctors = frozenset(
        {
            "numpy.random.default_rng",
            "numpy.random.SeedSequence",
            "numpy.random.Generator",
            "numpy.random.PCG64",
            "numpy.random.MT19937",
            "numpy.random.Philox",
            "numpy.random.SFC64",
        }
    )
    #: Direct-call sinks, matched on the final dotted component.
    sink_names = frozenset({"make_learner", "FaultPlan"})
    #: Method-call sinks (tainted receiver or tainted argument).
    sink_methods = frozenset({"fit", "clone"})
    #: Dotted callables whose result is always considered seed-clean.
    sanitizers: frozenset = frozenset()

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        config = TaintConfig(
            source=self._source, sanitizers=set(self.sanitizers), sink=self._sink
        )
        engine = TaintEngine(project.graph, config)
        reported: set = set()
        for hit in engine.run(only_library=True):
            taint = hit.taint
            origin = (taint.origin_path, taint.origin_line)
            if origin in reported:
                continue
            reported.add(origin)
            path = " -> ".join(taint.hops[:4])
            via = f" via {path}" if path else ""
            yield Violation(
                path=taint.origin_path,
                line=taint.origin_line,
                col=taint.origin_col,
                rule=self.rule,
                message=(
                    f"{taint.origin_desc} reaches {hit.sink_desc} at "
                    f"{hit.sink_path}:{hit.sink_line}{via}; derive the seed "
                    "from spawn_seeds or a StudySettings seed"
                ),
            )

    def _source(self, callee: str, op: dict) -> "str | None":
        if callee not in self.rng_ctors:
            return None
        if not _unseeded_call(op):
            return None
        return f"unseeded {_final(callee)}()"

    def _sink(self, callee, op: dict, module: ModuleIndex) -> "str | None":
        if isinstance(callee, dict):
            attr = callee.get("attr", "")
            if attr in self.sink_methods:
                return f".{attr}()"
            return None
        last = _final(callee)
        if last in self.sink_names:
            return f"{last}()"
        if ".learners." in callee and last[:1].isupper():
            return f"learner constructor {last}"
        return None


def _unseeded_call(op: dict) -> bool:
    """Does this RNG-constructor call pass no (or a None) seed?"""
    if op["args"]:
        first = op["args"][0]
        return len(first) == 1 and first[0]["k"] == "const" and bool(first[0].get("none"))
    for key in ("seed", "entropy"):
        refs = op["kwargs"].get(key)
        if refs is not None:
            return len(refs) == 1 and refs[0]["k"] == "const" and bool(refs[0].get("none"))
    return not op["star"]


# ---------------------------------------------------------------------------
# FRL011 — fork safety
# ---------------------------------------------------------------------------


@register
class ForkSafetyChecker(ProjectChecker):
    """FRL011: callables submitted to worker pools stay side-effect free.

    Invariant:
        A function handed to ``run_tasks`` (or a pool's ``submit``) runs
        in forked worker processes. Nothing it can transitively reach may
        mutate module globals (outside the sanctioned worker reset hooks
        ``on_worker_start``/``_init_shared``/``_init_worker``), open file
        handles, or reconfigure the ambient telemetry bus
        (``configure``/``set_bus``/``shutdown``/sink construction) —
        those side effects either vanish with the worker, corrupt the
        parent's trace file through an inherited descriptor, or make
        results depend on worker scheduling. Reading the ambient bus via
        the ``get_bus()``-guarded pattern is sanctioned: workers see
        ``None`` after the ``on_worker_start`` reset.

    Example violation:
        ``run_tasks(worker, items)`` where ``worker`` calls a helper that
        does ``global _CACHE; _CACHE[key] = value`` or opens a log file.

    Fix:
        Return data from the worker instead of mutating shared state;
        move file writes to the parent after the batch; emit telemetry
        through the guarded ambient bus. If a reached write is provably
        worker-local, suppress at the submission site with an audit note.
    """

    rule = "FRL011"
    name = "fork-safety"
    description = (
        "Functions submitted to run_tasks/process pools must not "
        "transitively write module globals, open file handles, or "
        "mutate the ambient telemetry bus; workers are forks and such "
        "side effects are lost, torn, or scheduling-dependent."
    )
    library_only = True

    sanctioned = frozenset({"on_worker_start", "_init_shared", "_init_worker"})
    forbidden_calls = frozenset(
        {
            "repro.telemetry.runtime.configure",
            "repro.telemetry.runtime.set_bus",
            "repro.telemetry.runtime.shutdown",
        }
    )
    forbidden_prefixes = ("repro.telemetry.sinks.", "repro.telemetry.bus.")

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        graph = project.graph
        seen: set = set()
        for module in project.index.modules.values():
            if not module.is_library:
                continue
            for local in module.functions:
                info = module.function(local)
                if info is None:
                    continue
                for op, resolution in graph.site_resolutions.get(info.qualname, ()):
                    root = self._submitted_fn(graph, module, info, op, resolution)
                    if root is None:
                        continue
                    yield from self._audit(graph, module, op, root, seen)

    def _submitted_fn(self, graph, module: ModuleIndex, info: FunctionInfo,
                      op: dict, resolution) -> "str | None":
        return submitted_work_fn(graph, module, info, op, resolution)

    def _audit(self, graph, module: ModuleIndex, op: dict, root: str,
               seen: set) -> Iterator[Violation]:
        for reached in graph.reachable_from([root]):
            node = graph.node(reached)
            owner = graph.module_of(reached)
            if node is None or owner is None:
                continue
            if node.name in self.sanctioned:
                continue
            for problem in self._problems(graph, reached, node):
                key = (module.path, op["lineno"], reached, problem)
                if key in seen:
                    continue
                seen.add(key)
                yield Violation(
                    path=module.path,
                    line=op["lineno"],
                    col=op["col"] + 1,
                    rule=self.rule,
                    message=(
                        f"worker callable {root} reaches {reached} "
                        f"({owner.path}:{node.lineno}), which {problem}; "
                        "workers must stay side-effect free"
                    ),
                )

    def _problems(self, graph, qualname: str, node: FunctionInfo) -> Iterator[str]:
        for name in node.global_writes:
            yield f"writes module global {name!r}"
        for site in node.opens:
            yield f"opens a file handle (line {site['lineno']})"
        for op, resolution in graph.site_resolutions.get(qualname, ()):
            target = resolution.target
            if resolution.kind != "internal" or target is None:
                continue
            if target in self.forbidden_calls or target.startswith(self.forbidden_prefixes):
                yield f"calls {target} (line {op['lineno']})"


# ---------------------------------------------------------------------------
# FRL012 — registry completeness
# ---------------------------------------------------------------------------


@register
class RegistryCompletenessChecker(ProjectChecker):
    """FRL012: every concrete learner registers by name.

    Invariant:
        Every concrete (non-private, no remaining abstract methods)
        subclass of ``BaseLearner`` must appear as a value in a
        string-keyed registry dict somewhere in the project, and every
        entry of a ``registry`` module's dict must resolve to an indexed
        class or factory — so a config's learner name always constructs
        a class. Error models are not named: the engine picks one by
        target kind. This needs the cross-module symbol table: the class,
        the registry, and the config that names it live in different
        files.

    Example violation:
        Adding ``class HuberRegressor(Regressor)`` to ``learners/`` with
        the full fit/predict contract but forgetting the
        ``REGRESSORS["huber"] = HuberRegressor`` entry — no config can
        name it.

    Fix:
        Register the class in the appropriate registry dict of
        ``repro.learners.registry``.
        For deliberately unregistered internal helpers, mark the class
        private with a leading underscore or suppress at the class
        definition with an audit note.
    """

    rule = "FRL012"
    name = "registry-completeness"
    description = (
        "Concrete BaseLearner subclasses must be registered in a name "
        "registry (and registry entries must resolve) so config learner "
        "names construct a class."
    )
    library_only = True

    root_names = frozenset({"BaseLearner"})

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        index = project.index
        roots = {
            f"{module.name}.{cls}"
            for module in index.modules.values()
            if module.is_library
            for cls in module.classes
            if cls in self.root_names
        }
        registered: set = set()
        for module in index.modules.values():
            for table in module.dict_literals.values():
                registered.update(table["entries"].values())
        if roots:
            for module, cls in index.subclasses_of(roots):
                if not module.is_library or cls.startswith("_"):
                    continue
                if cls in self.root_names:
                    continue
                if _abstract_remaining(index, f"{module.name}.{cls}"):
                    continue
                qualified = f"{module.name}.{cls}"
                if qualified not in registered:
                    yield Violation(
                        path=module.path,
                        line=module.classes[cls]["lineno"],
                        col=1,
                        rule=self.rule,
                        message=(
                            f"concrete class {cls} (a "
                            f"{'/'.join(sorted(self.root_names))} subclass) is "
                            "not registered in any name registry; no "
                            "config can name it"
                        ),
                    )
        yield from self._dangling_entries(index)

    def _dangling_entries(self, index: ProjectIndex) -> Iterator[Violation]:
        for module in index.modules.values():
            if not module.is_library or _final(module.name) != "registry":
                continue
            for table_name, table in module.dict_literals.items():
                for key, value in table["entries"].items():
                    found = index.find_symbol(value)
                    if found is not None:
                        owner, symbol = found
                        if symbol in owner.classes or (
                            owner.symbols.get(symbol, {}).get("kind") == "function"
                        ):
                            continue
                    if not index.has_module_prefix(value):
                        continue  # value from an unindexed (external) package
                    yield Violation(
                        path=module.path,
                        line=table["line"],
                        col=1,
                        rule=self.rule,
                        message=(
                            f"registry {table_name} entry {key!r} -> {value} "
                            "does not resolve to an indexed class or factory"
                        ),
                    )


def _abstract_remaining(index: ProjectIndex, qualified: str) -> "set[str]":
    """Abstract method names not overridden anywhere in the base chain."""
    abstract: set[str] = set()
    concrete: set[str] = set()
    seen: set[str] = set()
    queue = [qualified]
    while queue:
        current = queue.pop(0)
        if current in seen:
            continue
        seen.add(current)
        found = index.find_symbol(current)
        if found is None:
            continue
        owner, cls_name = found
        info = owner.classes.get(cls_name)
        if info is None:
            continue
        marked = set(info.get("abstract_methods", ()))
        abstract |= marked
        concrete |= set(info.get("methods", ())) - marked
        queue.extend(info.get("bases", ()))
    return abstract - concrete


# ---------------------------------------------------------------------------
# FRL013 — import layering
# ---------------------------------------------------------------------------

#: The repro package layer DAG: a module may import its own layer or any
#: lower one. parallel/telemetry sit *below* core because core
#: orchestrates parallel execution and emits telemetry (the engine calls
#: run_tasks and get_bus); analysis/cli sit on top of everything.
LAYERS: dict = {
    "utils": 0,
    "data": 10,
    "learners": 10,
    "errormodels": 20,
    "projection": 20,
    "parallel": 30,
    "telemetry": 30,
    "core": 40,
    "eval": 50,
    "baselines": 50,
    "experiments": 70,
    "persistence": 80,
    "analysis": 90,
    "cli": 90,
    "__main__": 90,
}

#: The package root ``repro/__init__`` aggregates the public API and may
#: import anything.
_ROOT_LAYER = 100


def _layer_of(module_name: str) -> "tuple[str, int] | None":
    """(layer key, level) for a ``repro.*`` dotted name, else None."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "<root>", _ROOT_LAYER
    key = parts[1]
    if key in LAYERS:
        return key, LAYERS[key]
    return key, -1  # unknown subpackage: must be added to the table


def render_layer_diagram() -> str:
    """The FRL013 layer DAG as text (``python -m repro.analysis --layers``)."""
    by_level: dict[int, list] = {}
    for key, level in LAYERS.items():
        by_level.setdefault(level, []).append(key)
    lines = [
        "fraclint layer DAG (FRL013) — a repro.* module may import only",
        "its own layer or lower ones; arrows point at allowed imports:",
        "",
    ]
    previous: "str | None" = None
    for level in sorted(by_level):
        group = " | ".join(sorted(by_level[level]))
        arrow = f"  ^ imports allowed from {previous}" if previous else ""
        lines.append(f"  [{level:>3}] {group}{arrow}")
        previous = f"layer {level} and below"
    lines.append(f"  [{_ROOT_LAYER:>3}] repro/__init__ (public-API aggregator; imports anything)")
    lines.append("")
    lines.append("See docs/invariants.md (FRL013) and DESIGN.md §6.")
    return "\n".join(lines)


@register
class ImportLayeringChecker(ProjectChecker):
    """FRL013: the repro package layer DAG is enforced, not aspirational.

    Invariant:
        ``repro.*`` modules form layers (``--layers`` prints the
        diagram): utils at the bottom, then data/learners,
        errormodels/projection, parallel/telemetry, core, eval/baselines,
        experiments, persistence, and analysis/cli on top. A module
        may import its own layer or lower ones only; an upward import is
        an error, because it creates a cycle in waiting that breaks
        isolated testing and incremental reasoning about determinism.
        Modules in an unknown subpackage are errors too: new packages
        must be placed in the layer table deliberately.

    Example violation:
        ``from repro.experiments.study import Study`` inside
        ``repro/core/engine.py`` — core (layer 40) importing experiments
        (layer 70).

    Fix:
        Invert the dependency: move the shared type down a layer, or
        pass the higher-layer object in as an argument/callback. Update
        the LAYERS table in ``repro/analysis/checkers/flow.py`` (with
        doc updates) when the architecture genuinely changes.
    """

    rule = "FRL013"
    name = "import-layering"
    description = (
        "repro.* modules must respect the layer DAG "
        "(utils -> data/learners -> errormodels/projection -> "
        "parallel/telemetry -> core -> eval/baselines -> "
        "experiments -> persistence -> analysis/cli); upward imports "
        "are errors."
    )
    library_only = True

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        for module in project.index.modules.values():
            if not module.is_library:
                continue
            importer = _layer_of(module.name)
            if importer is None:
                continue
            importer_key, importer_level = importer
            if importer_level == _ROOT_LAYER:
                continue
            if importer_level < 0:
                yield Violation(
                    path=module.path,
                    line=1,
                    col=1,
                    rule=self.rule,
                    message=(
                        f"subpackage {importer_key!r} is not in the FRL013 "
                        "layer table; add it to LAYERS in "
                        "repro/analysis/checkers/flow.py deliberately"
                    ),
                )
                continue
            for imported in module.imported_modules:
                target = imported["module"]
                if target == "repro":
                    continue  # public-API aggregator (version metadata etc.)
                layered = _layer_of(target)
                if layered is None:
                    continue
                target_key, target_level = layered
                if target_level < 0 or target_level <= importer_level:
                    continue
                yield Violation(
                    path=module.path,
                    line=imported["lineno"],
                    col=1,
                    rule=self.rule,
                    message=(
                        f"layer {importer_key!r} ({importer_level}) must not "
                        f"import layer {target_key!r} ({target_level}): "
                        f"{module.name} -> {target}"
                    ),
                )


# ---------------------------------------------------------------------------
# FRL014 — checkpoint write safety
# ---------------------------------------------------------------------------


@register
class CheckpointWriteSafetyChecker(ProjectChecker):
    """FRL014: append I/O goes through the torn-tail-safe writers.

    Invariant:
        Library code never calls raw ``open(..., "a")``. Journal and
        trace files (``.jsonl``, checkpoint journals) survive worker
        crashes only because the sanctioned writers
        (``repro.parallel.checkpoint``, ``repro.telemetry.sinks``) scan
        for a torn tail and truncate it before appending; a raw append
        elsewhere can resurrect a half-written record and corrupt every
        later resume. Appends to any other file from library code are
        equally suspect: results must be reconstructible from seeds, not
        accumulated across runs.

    Example violation:
        ``with open(trace_path, "a") as fh: fh.write(line)`` in an
        engine helper, bypassing ``JsonlTraceSink``'s truncate-on-append
        recovery.

    Fix:
        Route journal appends through
        ``repro.parallel.checkpoint.CheckpointJournal`` and trace
        appends through ``repro.telemetry.sinks.JsonlTraceSink``. For a
        genuinely safe append (single-writer scratch output), suppress
        at the open site with an audit note.
    """

    rule = "FRL014"
    name = "checkpoint-write-safety"
    description = (
        "No raw open(..., 'a') in library code: .jsonl/journal/trace "
        "appends must go through the torn-tail-safe writers in "
        "repro.parallel.checkpoint and repro.telemetry.sinks."
    )
    library_only = True

    allowed_suffixes = (
        "repro/parallel/checkpoint.py",
        "repro/telemetry/sinks.py",
    )
    journal_markers = (".jsonl", "journal", "trace")

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        for module in project.index.modules.values():
            if not module.is_library:
                continue
            if module.path.endswith(self.allowed_suffixes):
                continue
            for local in module.functions:
                info = module.function(local)
                if info is None:
                    continue
                for site in info.opens:
                    mode = site.get("mode")
                    if not isinstance(mode, str) or "a" not in mode:
                        continue
                    hint = site.get("hint") or ""
                    journalish = any(m in hint.lower() for m in self.journal_markers)
                    detail = (
                        f"append-mode open of journal/trace path {hint!r}"
                        if journalish
                        else f"append-mode open (mode={mode!r})"
                    )
                    yield Violation(
                        path=module.path,
                        line=site["lineno"],
                        col=site["col"] + 1,
                        rule=self.rule,
                        message=(
                            f"{detail}; route appends through the "
                            "torn-tail-safe writers (CheckpointJournal / "
                            "JsonlTraceSink)"
                        ),
                    )
