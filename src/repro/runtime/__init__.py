"""repro.runtime — the FETI preprocessing round.

The round factors every ``Kᵢ`` and assembles ``F̃ᵢ`` per span of the pattern
groups: one span, inline, by default; ``SolverSpec(execution="threads:n")``
cuts it into at most ``n`` spans on a private thread pool.  The
dual-operator apply is not split: it runs over the stored ``F̃ᵢ`` in the
caller's thread (:class:`repro.feti.operators.batch.BatchedDenseApply`), and
requests (:meth:`repro.api.Session.solve_request`) run on their callers'
threads.  The runtime is organized as three pieces:

:mod:`repro.runtime.executor`
    :class:`ExecutionSpec`: the parsed and validated ``backend`` +
    ``workers`` of :class:`repro.api.SolverSpec`'s ``execution`` field.
:mod:`repro.runtime.preprocess`
    The one preprocessing path every dual-operator backend runs its FETI
    preprocessing through: the subdomains sharing a symbolic analysis (a
    pattern group) are factored as one stack, the ``F̃ᵢ`` of each
    interface class are assembled as one stack, and the group-ordered
    members run in one span per worker.
:mod:`repro.runtime.queue`
    :class:`SolveQueue`: a synchronous facade over
    :meth:`~repro.api.Session.solve_request`, kept for one benchmark
    harness.
"""

from __future__ import annotations

import importlib
from typing import Any

_LAZY_EXPORTS: dict[str, str] = {
    "BACKENDS": "repro.runtime.executor",
    "ExecutionError": "repro.runtime.executor",
    "ExecutionSpec": "repro.runtime.executor",
    "run_preprocessing": "repro.runtime.preprocess",
    "SolveQueue": "repro.runtime.queue",
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
