"""repro.runtime — host-side parallel preprocessing and request serving.

The executors run two things in parallel: the FETI preprocessing (factor
and assemble ``F̃ᵢ`` per shard) and the requests of a :class:`SolveQueue`.
The dual-operator apply is not among them: on every executor it runs over
the stored ``F̃ᵢ`` in the caller's process
(:class:`repro.feti.operators.batch.BatchedDenseApply`).  The runtime is
organized as four pieces:

:mod:`repro.runtime.executor`
    :class:`ExecutionSpec` (the declarative ``backend`` + ``workers``
    description carried by :class:`repro.api.SolverSpec`) and the two
    :class:`Executor` backends — ``serial`` and ``threads`` — plus the
    ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` environment defaults.
:mod:`repro.runtime.shard`
    :class:`ShardPlan`: the partition of a problem's subdomains into
    per-worker shards that respect the cluster topology.
:mod:`repro.runtime.preprocess`
    The one preprocessing path every dual-operator backend and every
    executor runs its FETI preprocessing through: same-pattern subdomains
    of a shard are factored as one stack, the ``F̃ᵢ`` of each interface
    class are assembled as one stack, and shards run as futures on the
    caller's solvers (inline under ``serial``).
:mod:`repro.runtime.queue`
    :class:`SolveQueue`: the concurrent serving path — many ``(workload,
    spec, rhs)`` requests against one :class:`repro.api.Session`, scheduled
    across the executor.
"""

from __future__ import annotations

import importlib
from typing import Any

_LAZY_EXPORTS: dict[str, str] = {
    "BACKENDS": "repro.runtime.executor",
    "ExecutionError": "repro.runtime.executor",
    "ExecutionSpec": "repro.runtime.executor",
    "Executor": "repro.runtime.executor",
    "SerialExecutor": "repro.runtime.executor",
    "ThreadExecutor": "repro.runtime.executor",
    "make_executor": "repro.runtime.executor",
    "default_execution": "repro.runtime.executor",
    "shared_executor": "repro.runtime.executor",
    "Shard": "repro.runtime.shard",
    "ShardPlan": "repro.runtime.shard",
    "run_preprocessing": "repro.runtime.preprocess",
    "QueueSolution": "repro.runtime.queue",
    "SolveQueue": "repro.runtime.queue",
    "SolveTicket": "repro.runtime.queue",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> Any:
    """Resolve lazily exported names on first access."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
