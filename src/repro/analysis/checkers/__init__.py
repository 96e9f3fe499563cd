"""Built-in fraclint checkers.

Importing this package registers every rule with the framework registry
(side effect of the ``@register`` decorators). Rule catalogue:

========  =======================  =====================================================
Rule      Name                     Invariant
========  =======================  =====================================================
FRL001    legacy-rng               no global-state numpy/stdlib randomness in library code
FRL002    shared-stream            one Generator must not feed multiple parallel work items
FRL003    unguarded-log            ``log(x)`` only where ``x`` is provably positive or audited
FRL004    learner-contract         BaseLearner subclasses validate inputs, reset, register
FRL005    errormodel-contract      ErrorModels implement guarded, finite ``surprisal``
FRL006    mutable-default          no mutable default arguments
FRL007    wall-clock               wall-clock reads confined to the profiling module
FRL008    bare-assert              no ``assert`` statements in library code
FRL009    direct-output            no ``print``/stream writes outside cli + telemetry sinks
FRL010    seed-provenance          unseeded RNG must not taint a training path (whole-program)
FRL011    fork-safety              worker callables stay side-effect free (whole-program)
FRL012    registry-completeness    concrete learners/error models register by name
FRL013    import-layering          the repro.* layer DAG is enforced
FRL014    checkpoint-write-safety  append I/O goes through torn-tail-safe writers
FRL020    span-attribution         literal span() names must resolve in SPAN_QUALNAMES
FRL021    shared-mutable-capture   workers must not touch unlocked shared mutable state
FRL022    lock-discipline          guarded fields stay guarded; no blocking under a lock
FRL024    resource-lifecycle       close()-bearing objects closed on all paths
FRL025    worker-global-write      no module-global mutation reachable from workers
========  =======================  =====================================================

FRL010–FRL014, FRL020–FRL022, FRL024 and FRL025 are
:class:`~repro.analysis.framework.ProjectChecker` rules: they run on the
whole-program index/call graph under
:func:`~repro.analysis.framework.run_analysis` and are no-ops under the
file-local :func:`~repro.analysis.framework.analyze_file`. FRL021,
FRL022, FRL024 and FRL025 (fraclint v4) share the happens-before model
of :mod:`repro.analysis.concurrency`; see docs/concurrency.md for the
executor's guarantees and the lock inventory.

See docs/invariants.md for rationale and suppression policy, and
``python -m repro.analysis --explain FRL0NN`` for per-rule cards.
"""

from repro.analysis.checkers import (
    concurrency,
    contracts,
    flow,
    hygiene,
    numerics,
    observability,
    rng,
)

__all__ = [
    "rng",
    "numerics",
    "contracts",
    "hygiene",
    "flow",
    "observability",
    "concurrency",
]
