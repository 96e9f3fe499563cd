"""Parallel runtime: executors, fault tolerance, resource accounting."""

from repro.parallel.checkpoint import CheckpointError, CheckpointJournal
from repro.parallel.executor import ExecutionConfig, get_shared, run_tasks
from repro.parallel.faults import (
    FailureReport,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    TaskFailure,
    TaskOutcome,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.parallel.profiling import sleep_seconds
from repro.parallel.resources import (
    ResourceLog,
    ResourceReport,
    TaskCost,
    design_matrix_bytes,
)

__all__ = [
    "ExecutionConfig",
    "run_tasks",
    "get_shared",
    "RetryPolicy",
    "TaskOutcome",
    "TaskFailure",
    "FailureReport",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "TaskTimeoutError",
    "WorkerCrashError",
    "CheckpointJournal",
    "CheckpointError",
    "TaskCost",
    "ResourceLog",
    "ResourceReport",
    "design_matrix_bytes",
    "sleep_seconds",
]
