"""repro.api — the declarative Workload / SolverSpec / Session layer.

This package is the single public entry point for configuring and running
the reproduction.  It replaces the scattered PR-1/2/3 wiring (the legacy
solver/PCPG option objects + ``AssemblyConfig`` + ``MachineConfig``) with
three objects:

:class:`Workload`
    A frozen, validated, JSON-serializable description of *what* to solve:
    physics, geometry/decomposition, Dirichlet faces and the time-stepping
    schedule.  Named presets (``heat-2d-quick``, ``elasticity-3d-table2``,
    …) live in a registry shared with the bench CLI.
:class:`SolverSpec`
    A frozen, validated description of *how* to solve it: the Table-III
    dual-operator approach, the preconditioner, PCPG tolerances, per-cluster
    resources and the Table-I explicit-assembly parameters (or the literal
    ``"table2"`` to auto-select the paper's recommendation).  Incompatible
    combinations are rejected at construction time with actionable errors.
    The solver has one apply path and one sparse path; the reference loops
    they replaced live in ``tests/oracles/``.
:class:`Session`
    A stateful runner that owns the cross-solve state: the structural
    :class:`~repro.sparse.cache.PatternCache`, the built (read-only)
    problems, and the prepared
    :class:`~repro.feti.solver.FetiSolver` instances, so repeated
    ``session.solve(workload)`` / ``session.run(workload)`` calls amortize
    symbolic analysis, factorizations and persistent GPU structures
    automatically.

The bench registry/runner, the examples, the sweep harness and the serve
layer all construct their runs through this package; the legacy option
shims were removed in PR 6.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Lazily re-exported names (keeps ``import repro.api`` cheap and breaks the
#: repro.feti.solver ↔ repro.api.session import cycle).
_LAZY_EXPORTS: dict[str, str] = {
    "ApiError": "repro.api.workload",
    "SCHEMA_VERSION": "repro.api.workload",
    "check_schema_version": "repro.api.workload",
    "Material": "repro.api.workload",
    "Workload": "repro.api.workload",
    "WorkloadError": "repro.api.workload",
    "build_problem": "repro.api.workload",
    "register_workload_preset": "repro.api.workload",
    "workload_preset": "repro.api.workload",
    "workload_presets": "repro.api.workload",
    "SolverSpec": "repro.api.spec",
    "SpecError": "repro.api.spec",
    "assembly_config": "repro.api.spec",
    "solver_presets": "repro.api.spec",
    "RequestSolution": "repro.api.session",
    "RunResult": "repro.api.session",
    "Session": "repro.api.session",
    "StepValues": "repro.feti.solver",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> Any:
    """Resolve lazily exported names on first access."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
