"""Happens-before model of ``run_tasks`` for the concurrency rules.

fraclint v4 (FRL021, FRL022, FRL024, FRL025) reasons about what the repo's parallel
executor actually guarantees. The model below is the static counterpart
of ``repro.parallel.executor.run_tasks``:

**Serial mode** runs work functions in submission order in the calling
thread: every task *happens-before* the next, and all module state is
trivially consistent.

**Thread mode** runs work functions concurrently in one process. Two
tasks share every module global and every captured object; only the
submission (fork) and the harvest barrier (join) order anything. A work
function that reads or writes shared mutable state without a lock races
— results can depend on scheduling, which breaks the repo's seeded
bit-reproducibility contract.

**Process mode** forks workers. Each child gets a copy-on-write snapshot
of module state at fork time; writes inside a worker mutate the *copy*
and silently never propagate back to the parent. The only sanctioned
mutation points are the worker initializers — ``_init_shared`` /
``_init_worker`` in ``repro.parallel.executor`` install the read-only
shared payload, and ``repro.telemetry.runtime.on_worker_start`` drops
the inherited telemetry bus — which run *before* any task, so every task
observes the same initialized state (initializer *happens-before* every
task in that worker; task results are only visible to the parent at the
harvest barrier).

The model computed here is shared by all five rules via the lazy
``ProjectContext.concurrency`` property:

- **work roots**: every function submitted to ``run_tasks``/``submit``,
  with its submission site (the same discovery FRL011 uses);
- **worker-reachable set**: the call-graph closure over the roots, each
  function annotated with a witness root;
- **mutable globals**: module-level symbols mutated by function code
  anywhere in the project (import-time module-body initialization is
  not a mutation — it happens-before every fork);
- **lock inventory**: module-level and ``self.<attr>`` locks bound to a
  ``threading``/``multiprocessing`` factory;
- **lock-order graph**: canonicalized acquired-while-holding edges
  (intra-function nesting plus cross-function acquisition through the
  call graph) and its cycles — each cycle is a deadlock schedule.

See docs/concurrency.md for the prose version of these guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.index import FunctionInfo, ModuleIndex

__all__ = [
    "SANCTIONED_FN_NAMES",
    "SANCTIONED_MODULES",
    "WorkRoot",
    "ConcurrencyModel",
    "build_concurrency_model",
    "canonical_lock",
    "is_sanctioned",
    "resolve_callable_ref",
    "submitted_work_fn",
]

#: Function names allowed to touch process-global state: the worker
#: initializers and the ambient-bus lifecycle. They run before any task
#: (initializers) or are the documented global accessors themselves.
SANCTIONED_FN_NAMES = frozenset(
    {
        "on_worker_start", "_init_shared", "_init_worker", "get_shared",
        "get_bus", "set_bus", "emit", "configure", "shutdown",
    }
)

#: Module-name suffixes that *are* the sanctioned global-state layer.
SANCTIONED_MODULES = ("telemetry.runtime", "parallel.executor")


def is_sanctioned(module: ModuleIndex, info: FunctionInfo) -> bool:
    """May this function legitimately touch process-global state?"""
    if info.name in SANCTIONED_FN_NAMES:
        return True
    return any(
        module.name == suffix or module.name.endswith("." + suffix)
        for suffix in SANCTIONED_MODULES
    )


def _final(name: str) -> str:
    return name.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# Work-function discovery (shared with FRL011)
# ---------------------------------------------------------------------------


def resolve_callable_ref(graph, module: ModuleIndex, info: FunctionInfo,
                         refs: list) -> "str | None":
    """Internal qualname for a single-name value reference, if resolvable."""
    if len(refs) != 1 or refs[0].get("k") != "name":
        return None
    name = refs[0]["v"]
    if name in info.local_defs:
        return f"{module.name}.{info.local_defs[name]}"
    dotted = module.aliases.get(name)
    if dotted is None and name in module.symbols:
        dotted = f"{module.name}.{name}"
    if dotted is None:
        return None
    resolution = graph._resolve_dotted(dotted)
    return resolution.target if resolution.kind == "internal" else None


def submitted_work_fn(graph, module: ModuleIndex, info: FunctionInfo,
                      op: dict, resolution) -> "str | None":
    """Qualname of the work function this call site submits, if any.

    Matches ``run_tasks(fn, ...)`` (by resolution or bare final name) and
    ``pool.submit(fn, ...)``; the callable is the first positional
    argument or the ``fn=`` keyword.
    """
    callee = op["callee"]
    is_run_tasks = (
        resolution.kind == "internal"
        and resolution.target is not None
        and _final(resolution.target) == "run_tasks"
    ) or (callee.get("kind") == "name" and _final(callee.get("v", "")) == "run_tasks")
    is_submit = callee.get("kind") == "method" and callee.get("attr") == "submit"
    if not (is_run_tasks or is_submit):
        return None
    refs = op["args"][0] if op["args"] else op["kwargs"].get("fn", [])
    return resolve_callable_ref(graph, module, info, refs)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkRoot:
    """One function handed to the executor, with its submission site."""

    root: str
    path: str
    lineno: int
    col: int
    submitter: str


@dataclass
class ConcurrencyModel:
    """Everything the concurrency rules share, computed once."""

    roots: list
    #: worker-reachable qualname -> witness :class:`WorkRoot`
    reachable: dict
    #: mutated module-level symbol (dotted) -> [{"path","lineno","qualname"}]
    mutable_globals: dict
    #: [{"id", "path", "lineno", "scope", "factory"}]
    locks: list
    #: canonical lock-order edges: [{"src", "dst", "path", "lineno"}]
    lock_edges: list
    #: [{"locks": [canonical...], "path", "lineno"}] — deadlock schedules
    lock_cycles: list
    #: module-level names bound to ``threading.local()`` — mutations of
    #: these are thread-confined by construction, never shared state
    thread_confined: set

    def lock_fields(self, module_name: str, class_name: str) -> "set[str]":
        """Attribute names holding locks on ``module.class`` instances."""
        prefix = f"{module_name}.{class_name}."
        return {lk["id"][len(prefix):] for lk in self.locks if lk["id"].startswith(prefix)}


def canonical_lock(module: ModuleIndex, info: FunctionInfo, lock: str) -> str:
    """Project-wide identity for a held-lock expression string.

    ``self._lock`` canonicalizes through the enclosing class,
    module-level names through the module symbol table / import aliases.
    Locks the analysis cannot name globally (parameters, local
    variables, ``getattr`` results) stay bracketed — they still exempt
    accesses under them, but never enter the lock-order graph.
    """
    if lock == "<dynamic>":
        return lock
    head, _, rest = lock.partition(".")
    if head == "self" and rest:
        field = rest.split(".")[0]
        if info.class_name:
            return f"{module.name}.{info.class_name}.{field}"
        return f"<local:{lock}>"
    if head in info.params:
        return f"<param:{lock}>"
    if head in module.symbols:
        return f"{module.name}.{lock}"
    if head in module.aliases:
        return module.aliases[head] + (f".{rest}" if rest else "")
    return f"<local:{lock}>"


def _iter_functions(index):
    """(module, local, info) over library modules, deterministically."""
    for mod_name in sorted(index.modules):
        module = index.modules[mod_name]
        if not module.is_library:
            continue
        for local in sorted(module.functions):
            info = module.function(local)
            if info is not None:
                yield module, local, info


def find_work_roots(project) -> "list[WorkRoot]":
    graph = project.graph
    roots: list[WorkRoot] = []
    for module, _local, info in _iter_functions(project.index):
        for op, resolution in graph.site_resolutions.get(info.qualname, ()):
            target = submitted_work_fn(graph, module, info, op, resolution)
            if target is not None:
                roots.append(
                    WorkRoot(
                        root=target,
                        path=module.path,
                        lineno=op["lineno"],
                        col=op["col"],
                        submitter=info.qualname,
                    )
                )
    return sorted(roots, key=lambda r: (r.root, r.path, r.lineno, r.col))


def _worker_reachable(graph, roots: "list[WorkRoot]") -> dict:
    witness: dict = {}
    for root in roots:
        for reached in graph.reachable_from([root.root]):
            witness.setdefault(reached, root)
    return witness


def _mutable_globals(index) -> dict:
    out: dict = {}
    for module, local, info in _iter_functions(index):
        if local == "<module>":
            continue  # import-time init happens-before every fork
        for m in info.mutations:
            target = m.get("target")
            if m.get("scope") in ("global", "alias") and target:
                out.setdefault(target, []).append(
                    {"path": module.path, "lineno": m["lineno"], "qualname": info.qualname}
                )
    for sites in out.values():
        sites.sort(key=lambda s: (s["path"], s["lineno"]))
    return out


def _thread_confined(index) -> set:
    """Module-level names bound to ``threading.local()`` at import time."""
    confined: set = set()
    for module, local, info in _iter_functions(index):
        if local != "<module>":
            continue
        for op in info.calls():
            callee = op["callee"]
            if callee.get("kind") != "name":
                continue
            head, _, rest = callee.get("v", "").partition(".")
            resolved = module.aliases.get(head, head) + (f".{rest}" if rest else "")
            if resolved == "threading.local":
                for target in op.get("targets", ()):
                    confined.add(f"{module.name}.{target}")
    return confined


def _lock_inventory(index) -> list:
    locks: dict[str, dict] = {}
    for module, local, info in _iter_functions(index):
        for d in info.lock_defs:
            if "name" in d and local == "<module>":
                lock_id = f"{module.name}.{d['name']}"
                scope = "module"
            elif "attr" in d and info.class_name:
                lock_id = f"{module.name}.{info.class_name}.{d['attr']}"
                scope = f"class {info.class_name}"
            else:
                continue
            locks.setdefault(
                lock_id,
                {
                    "id": lock_id,
                    "path": module.path,
                    "lineno": d["lineno"],
                    "scope": scope,
                    "factory": d.get("factory", ""),
                },
            )
    return [locks[k] for k in sorted(locks)]


def _is_orderable(lock: str) -> bool:
    return not lock.startswith("<")


def _lock_order_edges(project) -> list:
    """Acquired-while-holding edges over canonical locks, with witnesses."""
    graph = project.graph
    index = project.index
    own_acquires: dict[str, set] = {}
    edges: dict[tuple, tuple] = {}

    def add_edge(src: str, dst: str, path: str, lineno: int) -> None:
        if not (_is_orderable(src) and _is_orderable(dst)) or src == dst:
            return
        key = (src, dst)
        if key not in edges or (path, lineno) < edges[key]:
            edges[key] = (path, lineno)

    for module, _local, info in _iter_functions(index):
        acquired: set = set()
        for acq in info.lock_acquires:
            lock = canonical_lock(module, info, acq["lock"])
            if _is_orderable(lock):
                acquired.add(lock)
            for held in acq["held"]:
                add_edge(
                    canonical_lock(module, info, held), lock,
                    module.path, acq["lineno"],
                )
        own_acquires[info.qualname] = acquired

    # Fixed point: locks a function may acquire transitively.
    acq = {fn: set(locks) for fn, locks in own_acquires.items()}
    changed = True
    while changed:
        changed = False
        for caller, callees in graph.edges.items():
            current = acq.setdefault(caller, set())
            for callee in callees:
                extra = acq.get(callee, set()) - current
                if extra:
                    current |= extra
                    changed = True

    # A call made while holding a lock orders that lock before everything
    # the callee may acquire.
    for module, _local, info in _iter_functions(index):
        if not info.call_locks:
            continue
        for op, resolution in graph.site_resolutions.get(info.qualname, ()):
            key = f"{op['lineno']}:{op['col']}"
            held = info.call_locks.get(key)
            if not held or resolution.kind != "internal" or not resolution.target:
                continue
            for h in held:
                src = canonical_lock(module, info, h)
                for dst in sorted(acq.get(resolution.target, ())):
                    add_edge(src, dst, module.path, op["lineno"])

    return [
        {"src": src, "dst": dst, "path": path, "lineno": lineno}
        for (src, dst), (path, lineno) in sorted(edges.items())
    ]


def _lock_cycles(lock_edges: list) -> list:
    """Strongly connected components of the order graph = deadlock cycles."""
    adjacency: dict[str, list] = {}
    for edge in lock_edges:
        adjacency.setdefault(edge["src"], []).append(edge["dst"])
        adjacency.setdefault(edge["dst"], [])
    for dsts in adjacency.values():
        dsts.sort()

    # Iterative Tarjan SCC.
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = [0]

    def strongconnect(start: str) -> None:
        work = [(start, iter(adjacency[start]))]
        index_of[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)

    for node in sorted(adjacency):
        if node not in index_of:
            strongconnect(node)

    cycles: list = []
    edge_map = {(e["src"], e["dst"]): (e["path"], e["lineno"]) for e in lock_edges}
    for component in sccs:
        if len(component) < 2:
            continue
        members = sorted(component)
        witnesses = sorted(
            edge_map[(s, d)]
            for s in members for d in members
            if (s, d) in edge_map
        )
        path, lineno = witnesses[0]
        cycles.append({"locks": members, "path": path, "lineno": lineno})
    return sorted(cycles, key=lambda c: (c["path"], c["lineno"], c["locks"]))


def build_concurrency_model(project) -> ConcurrencyModel:
    """Compute the shared concurrency-rule model over a project context."""
    roots = find_work_roots(project)
    lock_edges = _lock_order_edges(project)
    return ConcurrencyModel(
        roots=roots,
        reachable=_worker_reachable(project.graph, roots),
        mutable_globals=_mutable_globals(project.index),
        locks=_lock_inventory(project.index),
        lock_edges=lock_edges,
        lock_cycles=_lock_cycles(lock_edges),
        thread_confined=_thread_confined(project.index),
    )
