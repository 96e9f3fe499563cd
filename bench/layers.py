"""Outside-in per-layer tracing.

The tracer wraps entry points of the ``repro`` package from outside (no
file of the package changes) and records one span per call: its layer,
its parent span, its start and its end. Spans stay in memory and are
folded into a per-layer table when the run ends. A layer's self time is
its spans' duration minus the part of it that their child spans cover.

A layer name ``a.b.entry`` resolves against module ``repro.a.b`` when the
tracer is installed:

- if the module has a function ``entry`` (defined in it or in one of its
  submodules), every loaded ``repro`` module attribute bound to that
  function is replaced, so consumers that did ``from ... import entry``
  see the wrapper too;
- otherwise ``entry`` is a method: it is wrapped on each class that
  defines it for the public classes of the module and all their
  subclasses, abstract ones excepted (so private implementations of a
  public protocol are covered).

A name that no longer resolves reports ``None`` and a warning, and never
fails the run: the package may rename or delete these functions without
editing the benchmark.

Spans are kept on one stack per process, so the tracer observes serial
code and the parent side of a process pool. Forked workers inherit the
wrappers, but their spans stay in the worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time
import warnings
from array import array

#: Every traced entry point, as ``<layer>.<entry>`` under ``repro``.
LAYERS = (
    "data.load_replicates",
    "core.imputation.fit",
    "core.imputation.transform",
    "core.imputation.transform_keep_missing",
    "core.engine.plan_feature_batches",
    "core.engine.run_feature_batch",
    "core.engine.run_feature_task",
    "core.engine.score_contributions",
    "core.engine.gather_surprisals",
    "parallel.run_tasks",
    "learners.batched.solver",
    "learners.batched.masked_solver",
    "learners.batched.member",
    "learners.batched.solve_centered",
    "learners.batched.fit_column",
    "learners.decision_tree.fit",
    "learners.decision_tree.predict",
    "learners.ridge.fit",
    "learners.ridge.predict",
    "errormodels.kde.batch_entropy",
    "errormodels.kde.entropy",
    "errormodels.gaussian.fit",
    "errormodels.gaussian.batch_fit",
    "errormodels.gaussian.batch_mean_surprisal",
    "errormodels.gaussian.batch_surprisal",
    "errormodels.confusion.fit",
    "errormodels.confusion.batch_surprisal",
    "errormodels.entropy.discrete_entropy",
    "errormodels.entropy.dataset_entropies",
    "projection.jl.fit_transform",
    "projection.jl.transform",
    "core.filtering.entropy_filter",
    "core.ensemble.combine_contributions",
    "persistence.save_detector",
    "persistence.load_detector",
    "eval.auc_score",
)


def _arg(args, kwargs, index, name):
    """Argument ``name`` at position ``index``; ``None`` if the call has none
    (a changed signature loses the derived metric, never the run)."""
    return args[index] if len(args) > index else kwargs.get(name)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _probe_batch(tracer, args, kwargs):
    def finish(result, duration):
        tracer.add("core.engine.run_feature_batch.models", len(result))

    return finish


def _probe_member(tracer, args, kwargs):
    ids = _arg(args, kwargs, 1, "input_ids")
    if ids is not None:
        tracer.add("learners.batched.member.width", len(ids))
    return None


def _probe_run_tasks(tracer, args, kwargs):
    items = _arg(args, kwargs, 1, "items")
    config = kwargs.get("config")
    workers = getattr(config, "effective_workers", 1)
    cpu0 = _children_cpu()

    def finish(result, duration):
        tracer.add("parallel.run_tasks.items", len(result))
        tracer.add("parallel.worker_cpu_s", _children_cpu() - cpu0)
        tracer.add("parallel.capacity_s", duration * workers)

    return finish if items is not None else None


def _probe_save(tracer, args, kwargs):
    path = _arg(args, kwargs, 1, "path")

    def finish(result, duration):
        tracer.add("persistence.artifact_bytes", os.path.getsize(path))

    return finish if path is not None else None


#: Argument/result observers behind the derived metrics, by layer.
PROBES = {
    "core.engine.run_feature_batch": _probe_batch,
    "learners.batched.member": _probe_member,
    "parallel.run_tasks": _probe_run_tasks,
    "persistence.save_detector": _probe_save,
}

#: Derived metric -> (the layer whose calls it observes, unit, better).
DERIVED = {
    "core.engine.run_feature_batch.models": ("core.engine.run_feature_batch", "models/call", "higher"),
    "learners.batched.member.width": ("learners.batched.member", "inputs/call", "higher"),
    "parallel.run_tasks.items": ("parallel.run_tasks", "count", "lower"),
    "parallel.worker_cpu_s": ("parallel.run_tasks", "s", "lower"),
    "parallel.busy_frac": ("parallel.run_tasks", "ratio", "higher"),
    "persistence.artifact_bytes": ("persistence.save_detector", "bytes", "lower"),
}


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Fold ``(name, parent_index, start, end)`` spans into per-name
    ``(calls, self seconds)``.

    A span's self time is its duration minus the union of its children's
    intervals, each clipped to the span; overlapping children are counted
    once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    table: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        entry = table.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, self_s) for name, (calls, self_s) in table.items()}


def _defined_under(obj, module_name: str) -> bool:
    owner = getattr(obj, "__module__", None) or ""
    return owner == module_name or owner.startswith(module_name + ".")


def _is_abstract(cls) -> bool:
    return any(
        getattr(getattr(cls, name, None), "__isabstractmethod__", False) for name in dir(cls)
    )


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Wraps the :data:`LAYERS` entry points and records spans while
    :attr:`active` is true."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = tuple(layers)
        self.active = False
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._names = array("H")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self._totals: dict[str, float] = {}

    # -- recording -------------------------------------------------------
    def add(self, counter: str, value: float) -> None:
        self._totals[counter] = self._totals.get(counter, 0.0) + value

    def _wrap(self, index: int, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            finish = probe(tracer, args, kwargs) if probe is not None else None
            span = len(tracer._names)
            tracer._names.append(index)
            tracer._parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._ends.append(0.0)
            tracer._stack.append(span)
            tracer._starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._ends[span] = time.perf_counter()
                tracer._stack.pop()
            if finish is not None:
                finish(result, tracer._ends[span] - tracer._starts[span])
            return result

        return traced

    # -- install / uninstall ----------------------------------------------
    def install(self) -> "Tracer":
        for index, layer in enumerate(self.layers):
            module_name, _, entry = ("repro." + layer).rpartition(".")
            try:
                patched = self._patch(module_name, entry, index, PROBES.get(layer))
            except ImportError:
                patched = 0
            if not patched:
                self.missing.append(layer)
                warnings.warn(f"trace target repro.{layer} does not resolve; reported as null")
        return self

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module_name: str, entry: str, index: int, probe) -> int:
        module = importlib.import_module(module_name)
        target = getattr(module, entry, None)
        if inspect.isfunction(target) and _defined_under(target, module_name):
            wrapper = self._wrap(index, target, probe)
            patched = 0
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
                        patched += 1
            return patched
        roots = [
            cls
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and not name.startswith("_") and _defined_under(cls, module_name)
        ]
        owners = []
        for cls in roots + [sub for root in roots for sub in _subclasses(root)]:
            if _is_abstract(cls):
                continue
            owner = next((k for k in cls.__mro__ if entry in vars(k)), None)
            if owner is not None and owner.__module__.startswith("repro") and owner not in owners:
                owners.append(owner)
        patched = 0
        for owner in owners:
            raw = vars(owner)[entry]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(index, raw.__func__, probe))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(index, raw, probe)
            else:
                continue
            self._restore.append((owner, entry, raw))
            setattr(owner, entry, wrapped)
            patched += 1
        return patched

    # -- results -----------------------------------------------------------
    def spans(self) -> list[tuple[str, int, float, float]]:
        return [
            (self.layers[name], parent, start, end)
            for name, parent, start, end in zip(
                self._names, self._parents, self._starts, self._ends
            )
        ]

    def table(self) -> dict[str, "float | int | None"]:
        """``<layer>.calls`` / ``<layer>.self_s`` for every layer plus the
        derived metrics; ``None`` where the layer did not resolve."""
        folded = self_times(self.spans())
        out: dict[str, "float | int | None"] = {}
        for layer in self.layers:
            calls, self_s = folded.get(layer, (0, 0.0))
            missing = layer in self.missing
            out[f"{layer}.calls"] = None if missing else calls
            out[f"{layer}.self_s"] = None if missing else self_s
        totals = self._totals
        for metric, (layer, _, _) in DERIVED.items():
            if layer not in self.layers or layer in self.missing:
                out[metric] = None
                continue
            calls = folded.get(layer, (0, 0.0))[0]
            if metric == "parallel.busy_frac":
                capacity = totals.get("parallel.capacity_s", 0.0)
                value = totals.get("parallel.worker_cpu_s", 0.0) / capacity if capacity else 0.0
            elif metric in ("parallel.run_tasks.items", "parallel.worker_cpu_s"):
                value = totals.get(metric, 0.0)
            else:
                # Per-call means: models per batch, member width, artifact size.
                value = totals.get(metric, 0.0) / calls if calls else 0.0
            out[metric] = value
        return out
