"""The dual-operator zoo (Table III of the paper).

Every approach implements the same three-phase interface
(:class:`~repro.feti.operators.base.DualOperatorBase`):

``prepare()``
    symbolic factorizations, persistent GPU allocations, kernel analysis —
    run once per mesh;
``preprocess()``
    numeric factorization and (for explicit approaches) the assembly of the
    local dual operators ``F̃ᵢ`` — run once per time step;
``apply(λ)``
    the dual-operator application used inside every PCPG iteration.

Numerically all nine approaches compute exactly the same operator; they
differ in where the work happens (CPU / GPU), whether ``F̃ᵢ`` is assembled
explicitly, and therefore in the simulated preprocessing and application
times the benchmarks measure.
"""

from __future__ import annotations

from repro.cluster.topology import Machine, MachineConfig
from repro.feti.config import AssemblyConfig, DualOperatorApproach
from repro.feti.operators.base import DualOperatorBase
from repro.feti.operators.batch import (
    BatchedDenseApply,
    ClusterBatch,
    FlatIndexMap,
    SubdomainBatchEngine,
)
from repro.feti.operators.implicit_cpu import ImplicitCpuDualOperator
from repro.feti.operators.explicit_cpu import ExplicitCpuDualOperator
from repro.feti.operators.implicit_gpu import ImplicitGpuDualOperator
from repro.feti.operators.explicit_gpu import ExplicitGpuDualOperator
from repro.feti.operators.hybrid import HybridDualOperator
from repro.feti.problem import FetiProblem
from repro.sparse.costmodel import CpuLibrary

__all__ = [
    "DualOperatorBase",
    "SubdomainBatchEngine",
    "ClusterBatch",
    "FlatIndexMap",
    "BatchedDenseApply",
    "ImplicitCpuDualOperator",
    "ExplicitCpuDualOperator",
    "ImplicitGpuDualOperator",
    "ExplicitGpuDualOperator",
    "HybridDualOperator",
    "make_dual_operator",
]


def make_dual_operator(
    approach: DualOperatorApproach,
    problem: FetiProblem,
    machine_config: MachineConfig | None = None,
    assembly_config: AssemblyConfig | None = None,
    pattern_cache=None,
    executor=None,
    precision: str = "fp64",
) -> DualOperatorBase:
    """Instantiate one of the nine Table-III dual-operator approaches.

    Parameters
    ----------
    approach:
        Which approach to build.
    problem:
        The torn FETI problem.
    machine_config:
        Per-cluster resources; for GPU approaches its CUDA version is
        overridden by the approach's library generation.
    assembly_config:
        Explicit-assembly parameters (Table I); ignored by implicit and
        CPU-only approaches except for the scatter/gather setting used by
        the GPU application phase.
    pattern_cache:
        Caller-owned :class:`~repro.sparse.cache.PatternCache` for the
        symbolic analysis (a :class:`repro.api.Session` passes its own);
        ``None`` keeps the sparse layer's process-global cache.
    executor:
        Runtime :class:`~repro.runtime.executor.Executor` the preprocessing
        shards run on (a :class:`repro.api.Session` passes the one it
        owns); ``None`` resolves to the ``REPRO_EXECUTOR`` process default
        (serial when unset).
    precision:
        Factor/pack storage policy (:mod:`repro.memory.precision`):
        ``"fp64"`` (the reference), ``"fp32"`` (half-size resident factors
        and packs), or ``"fp32_ir"`` (fp32 storage plus iterative
        refinement back to fp64-level residuals).
    """
    config = machine_config or MachineConfig()
    cuda = approach.cuda_library
    if cuda is not None:
        config = config.with_cuda(cuda.cuda_version)
    machine = Machine.for_decomposition(problem.decomposition, config)
    assembly = assembly_config or AssemblyConfig()
    kwargs = {
        "pattern_cache": pattern_cache,
        "executor": executor,
        "precision": precision,
    }

    if approach is DualOperatorApproach.IMPLICIT_MKL:
        return ImplicitCpuDualOperator(
            problem, machine, library=CpuLibrary.MKL_PARDISO, **kwargs
        )
    if approach is DualOperatorApproach.IMPLICIT_CHOLMOD:
        return ImplicitCpuDualOperator(
            problem, machine, library=CpuLibrary.CHOLMOD, **kwargs
        )
    if approach is DualOperatorApproach.EXPLICIT_MKL:
        return ExplicitCpuDualOperator(
            problem, machine, library=CpuLibrary.MKL_PARDISO, **kwargs
        )
    if approach is DualOperatorApproach.EXPLICIT_CHOLMOD:
        return ExplicitCpuDualOperator(
            problem, machine, library=CpuLibrary.CHOLMOD, **kwargs
        )
    if approach in (
        DualOperatorApproach.IMPLICIT_GPU_LEGACY,
        DualOperatorApproach.IMPLICIT_GPU_MODERN,
    ):
        return ImplicitGpuDualOperator(problem, machine, approach=approach, **kwargs)
    if approach in (
        DualOperatorApproach.EXPLICIT_GPU_LEGACY,
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
    ):
        return ExplicitGpuDualOperator(
            problem, machine, approach=approach, config=assembly, **kwargs
        )
    if approach is DualOperatorApproach.EXPLICIT_HYBRID:
        return HybridDualOperator(problem, machine, config=assembly, **kwargs)
    raise ValueError(f"unknown approach: {approach}")
