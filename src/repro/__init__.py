"""repro — reproduction of "Assembly of FETI dual operator using CUDA".

The package implements a complete Total FETI solver together with every
substrate the paper depends on:

* :mod:`repro.fem` — structured finite-element meshes and assembly for heat
  transfer and linear elasticity (2D triangles, 3D tetrahedra, linear and
  quadratic elements).
* :mod:`repro.decomposition` — domain decomposition into subdomains and
  clusters, Total-FETI gluing matrices ``B`` and kernel bases ``R``.
* :mod:`repro.sparse` — a from-scratch sparse Cholesky solver with a
  symbolic/numeric split, triangular solves and a Schur-complement engine
  that skips the zero part of ``B̃ᵢ`` (PARDISO's augmented incomplete
  factorization), one solver for every approach.
* :mod:`repro.gpu` — a simulated CUDA runtime (device memory, streams,
  cuBLAS/cuSPARSE-like kernels, legacy/modern cost models).
* :mod:`repro.feti` — the paper's contribution: the dual-operator zoo
  (implicit/explicit × CPU/GPU plus hybrid), PCPG, projector,
  preconditioners, the multi-step driver and the assembly auto-tuner.
* :mod:`repro.cluster` — cluster topology and the threaded subdomain loop.
* :mod:`repro.analysis` — timing ledger, sweep engine, amortization and
  reporting helpers used by the benchmark harness.
* :mod:`repro.api` — the declarative Workload / SolverSpec / Session layer:
  the single entry point that examples, benches and sweeps configure runs
  through (owns the cross-solve caches).

The most commonly used classes are re-exported lazily at the package level,
so ``import repro`` stays cheap and the substrates can be developed and
tested independently.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro._version import __version__

#: Map of lazily re-exported public names to their defining module.
_LAZY_EXPORTS: dict[str, str] = {
    # The declarative API layer (the recommended entry point since PR 4).
    "Material": "repro.api.workload",
    "Workload": "repro.api.workload",
    "SolverSpec": "repro.api.spec",
    "Session": "repro.api.session",
    "PreconditionerKind": "repro.feti.preconditioner",
    # The parallel runtime (PR 5).
    "ExecutionSpec": "repro.runtime.executor",
    "ShardPlan": "repro.runtime.shard",
    "SolveQueue": "repro.runtime.queue",
    # Engine-level types.
    "AssemblyConfig": "repro.feti.config",
    "CudaLibraryVersion": "repro.feti.config",
    "DualOperatorApproach": "repro.feti.config",
    "FactorOrder": "repro.feti.config",
    "FactorStorage": "repro.feti.config",
    "Path": "repro.feti.config",
    "RhsOrder": "repro.feti.config",
    "ScatterGatherDevice": "repro.feti.config",
    "FetiProblem": "repro.feti.problem",
    "FetiSolver": "repro.feti.solver",
    "MultiStepDriver": "repro.feti.solver",
    "PcpgResult": "repro.feti.pcpg",
    "HeatTransferProblem": "repro.fem.heat",
    "LinearElasticityProblem": "repro.fem.elasticity",
    "structured_mesh": "repro.fem.mesh",
    "decompose_box": "repro.decomposition.partition",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str) -> Any:
    """Resolve lazily exported names on first access."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
