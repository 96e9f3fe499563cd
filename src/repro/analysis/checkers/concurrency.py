"""Concurrency-soundness fraclint rules (FRL021, FRL022, FRL024, FRL025).

These rules interpret the happens-before model built by
:mod:`repro.analysis.concurrency` (see docs/concurrency.md): work
functions handed to ``run_tasks``/``submit`` run concurrently in thread
mode and in copy-on-write children in process mode, so shared mutable
state they touch must be lock-guarded (thread mode) and must not be
relied on to propagate back (process mode). Lock-bearing classes must
guard fields consistently, and ``close()``-bearing resources must be
owned by exactly one releaser.

FRL021  shared-mutable-capture  workers must not touch unlocked shared state
FRL022  lock-discipline         guarded fields stay guarded; no hold-and-block
FRL024  resource-lifecycle      close()-bearing objects are closed exactly once
FRL025  worker-global-write     workers never mutate module globals
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency import canonical_lock, is_sanctioned
from repro.analysis.framework import (
    ProjectChecker,
    ProjectContext,
    Violation,
    register,
)
from repro.analysis.index import FunctionInfo, ModuleIndex

__all__ = [
    "SharedMutableCaptureChecker",
    "LockDisciplineChecker",
    "ResourceLifecycleChecker",
    "WorkerGlobalWriteChecker",
]


def _final(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _read_target(module: ModuleIndex, name: str) -> "str | None":
    """Dotted module-level identity of a loaded name, if it has one."""
    if name in module.aliases:
        return module.aliases[name]
    if name in module.symbols:
        return f"{module.name}.{name}"
    return None


def _call_id_referenced(info: FunctionInfo, call_id) -> bool:
    """Does any later ref consume this call's result value?"""
    for op in info.ops:
        refs: list = []
        if op["op"] == "call":
            for arg in op["args"]:
                refs.extend(arg)
            for value in op["kwargs"].values():
                refs.extend(value)
            refs.extend(op.get("star", ()))
        else:
            refs.extend(op.get("sources", ()))
        for ref in refs:
            if ref.get("k") == "call" and ref.get("v") == call_id:
                return True
    return False


def _iter_library_functions(project: ProjectContext):
    for mod_name in sorted(project.index.modules):
        module = project.index.modules[mod_name]
        if not module.is_library:
            continue
        for local in sorted(module.functions):
            info = module.function(local)
            if info is not None:
                yield module, local, info


def _witness(root) -> str:
    return f"submitted to the executor at {root.path}:{root.lineno} by {root.submitter}"


# ---------------------------------------------------------------------------
# FRL021 — shared mutable capture
# ---------------------------------------------------------------------------


@register
class SharedMutableCaptureChecker(ProjectChecker):
    """FRL021: worker code must not touch unlocked shared mutable state.

    Invariant:
        Every function reachable from a work callable handed to
        ``run_tasks``/``submit`` (the call-graph closure over the
        happens-before model's work roots) must not read a mutable
        module global without holding a lock, and must not mutate state
        captured from an enclosing scope. In thread mode such accesses
        race — results depend on scheduling, which breaks seeded
        bit-reproducibility; in process mode the worker sees a
        copy-on-write snapshot, so the "shared" state it reads may be
        stale the moment the parent moves on. Only the sanctioned
        initializer/accessor layer (``telemetry.runtime``,
        ``parallel.executor``) may touch process-global state, because
        the executor runs initializers *before* any task (initializer
        happens-before every task). ``threading.local()`` globals are
        exempt — they are thread-confined by construction.

    Example violation:
        _CACHE = {}
        def score_feature(task):      # submitted to run_tasks
            if task.key not in _CACHE:    # unlocked read of a global
                _CACHE[task.key] = fit(task)
            return _CACHE[task.key]

    Fix:
        Pass the state into the task as an argument (the executor's
        shared-payload mechanism), or guard every access with one
        module-level lock, or move the mutation into a sanctioned
        worker initializer that runs before any task.
    """

    rule = "FRL021"
    name = "shared-mutable-capture"
    description = "worker-reachable code must not touch unlocked shared mutable state"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        graph = project.graph
        model = project.concurrency
        for qualname in sorted(model.reachable):
            node = graph.node(qualname)
            owner = graph.module_of(qualname)
            if node is None or owner is None or is_sanctioned(owner, node):
                continue
            root = model.reachable[qualname]
            mutated_at = {(m["name"], m["lineno"]) for m in node.mutations}
            for read in node.reads:
                target = _read_target(owner, read["name"])
                if (
                    target is None
                    or target not in model.mutable_globals
                    or target in model.thread_confined
                    or read["locks"]
                    # the store at this line already reports via FRL025
                    or (read["name"], read["lineno"]) in mutated_at
                ):
                    continue
                sites = model.mutable_globals[target]
                yield Violation(
                    path=owner.path,
                    line=read["lineno"],
                    col=1,
                    rule=self.rule,
                    message=(
                        f"worker-reachable {qualname} ({_witness(root)}) reads "
                        f"mutable global {target} without a lock; it is mutated "
                        f"at {sites[0]['path']}:{sites[0]['lineno']}, so thread-"
                        "mode tasks race and process-mode tasks see a stale "
                        "fork-time snapshot"
                    ),
                )
            for mutation in node.mutations:
                if mutation.get("scope") != "free" or mutation["locks"]:
                    continue
                yield Violation(
                    path=owner.path,
                    line=mutation["lineno"],
                    col=1,
                    rule=self.rule,
                    message=(
                        f"worker-reachable {qualname} ({_witness(root)}) mutates "
                        f"captured state {mutation['name']!r} from an enclosing "
                        "scope; concurrent tasks race on the shared object and "
                        "process-mode writes never propagate back to the parent"
                    ),
                )


# ---------------------------------------------------------------------------
# FRL022 — lock discipline
# ---------------------------------------------------------------------------


@register
class LockDisciplineChecker(ProjectChecker):
    """FRL022: locks guard fields consistently and never wrap blocking calls.

    Invariant:
        A field accessed under ``self._lock`` in one method must be
        guarded at every access (RacerD-style consistent-guard
        inference: one guarded access plus one non-``__init__`` write
        makes the field lock-protected shared state, so an unguarded
        access is a race). While a lock is held, the critical section
        must not call blocking operations — sink/executor ``close``/
        ``join``/``result``/``shutdown``, sleeps, file opens,
        ``run_tasks`` — because a callee that re-enters the lock
        deadlocks a non-reentrant ``threading.Lock``. Across the
        project, distinct locks must be acquired in one global order:
        any cycle in the acquired-while-holding graph is a deadlock
        schedule two threads can execute.

    Example violation:
        class Bus:
            def emit(self, e):
                with self._lock:
                    self._seq += 1        # guarded write ...
            def n_emitted(self):
                return self._seq          # ... unguarded read: a race

    Fix:
        Take the same lock around every access of the field; move
        blocking calls out of the critical section (snapshot state
        under the lock, act on the snapshot outside); break ordering
        cycles by acquiring locks in one documented global order.
    """

    rule = "FRL022"
    name = "lock-discipline"
    description = "lock-guarded fields stay guarded; critical sections never block"

    #: method calls that block (or re-enter arbitrary code) — never make
    #: them while holding a lock.
    blocking_attrs = frozenset({"close", "join", "result", "shutdown"})
    blocking_finals = frozenset({"sleep_seconds", "run_tasks"})
    blocking_external = frozenset({"time.sleep", "open"})
    blocking_prefixes = ("subprocess.",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        yield from self._inconsistent_guards(project)
        yield from self._blocking_under_lock(project)
        yield from self._ordering_cycles(project)

    # -- consistent-guard inference ------------------------------------

    def _inconsistent_guards(self, project: ProjectContext) -> Iterator[Violation]:
        model = project.concurrency
        classes: dict = {}
        for module, _local, info in _iter_library_functions(project):
            if info.class_name is None:
                continue
            classes.setdefault((module.name, info.class_name), []).append((module, info))
        for (mod_name, cls_name) in sorted(classes):
            methods = classes[(mod_name, cls_name)]
            lock_fields = model.lock_fields(mod_name, cls_name)
            fields: dict = {}
            for module, info in methods:
                if info.name in ("__init__", "__del__"):
                    continue
                for access in info.attr_accesses:
                    if access["attr"] in lock_fields:
                        continue
                    fields.setdefault(access["attr"], []).append((module, info, access))
            for attr in sorted(fields):
                accesses = fields[attr]
                guarded = [
                    (module, info, access)
                    for module, info, access in accesses
                    if access["locks"] and "<dynamic>" not in access["locks"]
                ]
                has_write = any(a["kind"] == "write" for _, _, a in accesses)
                if not guarded or not has_write:
                    continue
                guards = sorted(
                    {
                        canonical_lock(module, info, lock)
                        for module, info, access in guarded
                        for lock in access["locks"]
                    }
                )
                for module, info, access in accesses:
                    if access["locks"]:
                        continue  # "<dynamic>"-guarded is neither evidence
                    yield Violation(
                        path=module.path,
                        line=access["lineno"],
                        col=1,
                        rule=self.rule,
                        message=(
                            f"field {attr!r} of {mod_name}.{cls_name} is "
                            f"guarded by {', '.join(guards)} elsewhere but "
                            f"{'written' if access['kind'] == 'write' else 'read'} "
                            f"unguarded in {info.name}; inconsistent guarding "
                            "is a data race"
                        ),
                    )

    # -- blocking calls inside critical sections ------------------------

    def _blocking_desc(self, op: dict, resolution) -> "str | None":
        callee = op["callee"]
        if callee.get("kind") == "method" and callee["attr"] in self.blocking_attrs:
            return f".{callee['attr']}() on {callee.get('recv', '?')}"
        target = resolution.target
        if target is None:
            return None
        if resolution.kind == "internal" and _final(target) in self.blocking_finals:
            return f"{_final(target)}()"
        if resolution.kind in ("external", "builtin"):
            if target in self.blocking_external or target.startswith(self.blocking_prefixes):
                return f"{target}()"
        return None

    def _blocking_under_lock(self, project: ProjectContext) -> Iterator[Violation]:
        graph = project.graph
        for module, _local, info in _iter_library_functions(project):
            if not info.call_locks:
                continue
            for op, resolution in graph.site_resolutions.get(info.qualname, ()):
                held = info.call_locks.get(f"{op['lineno']}:{op['col']}")
                if not held:
                    continue
                desc = self._blocking_desc(op, resolution)
                if desc is None:
                    continue
                locks = sorted(canonical_lock(module, info, h) for h in held)
                yield Violation(
                    path=module.path,
                    line=op["lineno"],
                    col=op["col"] + 1,
                    rule=self.rule,
                    message=(
                        f"{info.qualname} calls blocking {desc} while holding "
                        f"{', '.join(locks)}; a callee that re-enters the lock "
                        "deadlocks — snapshot under the lock, call outside it"
                    ),
                )

    # -- lock-ordering cycles -------------------------------------------

    def _ordering_cycles(self, project: ProjectContext) -> Iterator[Violation]:
        for cycle in project.concurrency.lock_cycles:
            ring = " -> ".join(cycle["locks"] + [cycle["locks"][0]])
            yield Violation(
                path=cycle["path"],
                line=cycle["lineno"],
                col=1,
                rule=self.rule,
                message=(
                    f"lock-order cycle {ring}: two threads acquiring these "
                    "locks in opposite orders deadlock; pick one global "
                    "acquisition order"
                ),
            )


# ---------------------------------------------------------------------------
# FRL024 — resource lifecycle
# ---------------------------------------------------------------------------


@register
class ResourceLifecycleChecker(ProjectChecker):
    """FRL024: every close()-bearing object is closed exactly once.

    Invariant:
        A locally-constructed object whose class defines ``close()``
        (EventBus, trace/progress sinks, executors, checkpoint
        journals, raw ``open`` handles) must be released on every path:
        managed by a ``with`` block, explicitly ``close``/``shutdown``/
        ``terminate``-d, or handed off (returned, stored on ``self``,
        passed to another owner — escape ends local responsibility).
        After the local ``close()`` the object is dead: any further
        method call on it is a use-after-close (an EventBus, for
        example, silently drops events once ``_closed`` is set).

    Example violation:
        def run(cfg):
            bus = EventBus(sinks=build_sinks(cfg))
            bus.close()
            bus.emit(RunFinished())   # use after close: silently dropped

    Fix:
        Prefer ``with`` (context-managed lifetime); otherwise close in a
        ``finally`` and never touch the handle afterwards — or hand the
        object to a single owner that closes it.
    """

    rule = "FRL024"
    name = "resource-lifecycle"
    description = "close()-bearing objects are closed on all paths, never used after"

    external_closeables = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"})
    closers = frozenset({"close", "shutdown", "terminate"})

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        graph = project.graph
        closeable_classes: set = set()
        for mod_name in sorted(project.index.modules):
            module = project.index.modules[mod_name]
            if not module.is_library:
                continue
            for cls_name in sorted(module.classes):
                if "close" in module.classes[cls_name].get("methods", ()):
                    closeable_classes.add(f"{module.name}.{cls_name}")
        for module, local, info in _iter_library_functions(project):
            if local == "<module>":
                continue  # module-level singletons live program-long
            yield from self._check_function(
                graph, module, info, closeable_classes
            )

    def _ctor_kind(self, resolution, closeable_classes: set) -> "str | None":
        target = resolution.target
        if target is None:
            return None
        if resolution.kind == "internal" and target in closeable_classes:
            return target
        if resolution.kind == "external" and _final(target) in self.external_closeables:
            return target
        if resolution.kind == "builtin" and target == "open":
            return "open"
        return None

    def _check_function(self, graph, module: ModuleIndex, info: FunctionInfo,
                        closeable_classes: set) -> Iterator[Violation]:
        resolutions = {
            f"{op['lineno']}:{op['col']}": resolution
            for op, resolution in graph.site_resolutions.get(info.qualname, ())
        }
        managed_names = {acq["lock"] for acq in info.lock_acquires}
        # name -> {"op": ctor op, "kind": dotted class, "closed_at": line|None}
        live: dict = {}
        leaks: list = []
        for op in info.ops:
            if op["op"] != "call":
                names = [t for t in op.get("targets", ()) if t in live]
                for name in names:  # rebind over a live handle
                    state = live.pop(name)
                    if state["closed_at"] is None:
                        leaks.append(state)
                for ref in op.get("sources", ()):
                    if ref.get("k") == "name" and ref.get("v") in live:
                        live.pop(ref["v"])  # aliased/returned: ownership moves
                continue
            callee = op["callee"]
            # Consuming a tracked handle: method calls on it, or passing
            # it onward as an argument (ownership escape).
            if callee.get("kind") == "method" and callee.get("recv") in live:
                state = live[callee["recv"]]
                if callee["attr"] in self.closers:
                    state["closed_at"] = op["lineno"]
                elif state["closed_at"] is not None:
                    yield Violation(
                        path=module.path,
                        line=op["lineno"],
                        col=op["col"] + 1,
                        rule=self.rule,
                        message=(
                            f"{info.qualname} calls .{callee['attr']}() on "
                            f"{callee['recv']!r} after closing it at line "
                            f"{state['closed_at']}; a closed {_final(state['kind'])} "
                            "drops or rejects the operation"
                        ),
                    )
            arg_refs: list = []
            for arg in op["args"]:
                arg_refs.extend(arg)
            for value in op["kwargs"].values():
                arg_refs.extend(value)
            arg_refs.extend(op.get("star", ()))
            for ref in arg_refs:
                if ref.get("k") == "name" and ref.get("v") in live:
                    live.pop(ref["v"])  # handed to another owner
            resolution = resolutions.get(f"{op['lineno']}:{op['col']}")
            kind = (
                self._ctor_kind(resolution, closeable_classes)
                if resolution is not None
                else None
            )
            if kind is None:
                continue
            if f"{op['lineno']}:{op['col']}" in info.with_calls:
                continue  # context-managed
            targets = op.get("targets", ())
            if not targets:
                if not _call_id_referenced(info, op["id"]):
                    leaks.append({"op": op, "kind": kind, "closed_at": None})
                continue
            name = targets[0]
            if name == "self" or name in managed_names:
                continue  # stored on the instance / later `with name:`
            if name in live and live[name]["closed_at"] is None:
                leaks.append(live[name])
            live[name] = {"op": op, "kind": kind, "closed_at": None, "name": name}
        for state in live.values():
            if state["closed_at"] is None and state.get("name") not in managed_names:
                leaks.append(state)
        for state in sorted(leaks, key=lambda s: (s["op"]["lineno"], s["op"]["col"])):
            yield Violation(
                path=module.path,
                line=state["op"]["lineno"],
                col=state["op"]["col"] + 1,
                rule=self.rule,
                message=(
                    f"{info.qualname} constructs {_final(state['kind'])} but "
                    "never closes it on this path; use `with`, close in a "
                    "`finally`, or hand it to an owner that does"
                ),
            )


# ---------------------------------------------------------------------------
# FRL025 — worker global write
# ---------------------------------------------------------------------------


@register
class WorkerGlobalWriteChecker(ProjectChecker):
    """FRL025: worker code never mutates module globals.

    Invariant:
        No function reachable from a work callable may mutate a module
        global or an imported module's attribute, locked or not, unless
        it is a sanctioned initializer/accessor
        (``telemetry.runtime``/``parallel.executor`` or the
        ``on_worker_start``/``_init_shared``-style hooks the executor
        runs before any task). In process mode the write lands in the
        worker's copy-on-write snapshot and silently never propagates
        back to the parent — state that "was set" evaporates at the
        harvest barrier. In thread mode the write is shared but racing.
        A lock fixes only the thread half, which is why this rule flags
        locked writes too. ``threading.local()`` globals are exempt.

    Example violation:
        _LAST_RESULT = None
        def score_feature(task):       # submitted to run_tasks
            global _LAST_RESULT
            _LAST_RESULT = fit(task)   # process mode: vanishes at harvest

    Fix:
        Return the value from the work function — ``run_tasks`` harvests
        results deterministically; for worker-wide setup, move the write
        into a sanctioned initializer that the executor runs before any
        task.
    """

    rule = "FRL025"
    name = "worker-global-write"
    description = "no module-global mutation reachable from worker code"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        graph = project.graph
        model = project.concurrency
        for qualname in sorted(model.reachable):
            node = graph.node(qualname)
            owner = graph.module_of(qualname)
            if node is None or owner is None or is_sanctioned(owner, node):
                continue
            root = model.reachable[qualname]
            for mutation in node.mutations:
                target = mutation.get("target")
                if (
                    mutation.get("scope") not in ("global", "alias")
                    or target is None
                    or target in model.thread_confined
                ):
                    continue
                yield Violation(
                    path=owner.path,
                    line=mutation["lineno"],
                    col=1,
                    rule=self.rule,
                    message=(
                        f"worker-reachable {qualname} ({_witness(root)}) mutates "
                        f"module global {target}; in process mode the write "
                        "stays in the worker's copy-on-write snapshot and is "
                        "lost at the harvest barrier — return the value or use "
                        "a sanctioned worker initializer"
                    ),
                )
