"""The dual-operator zoo (Table III of the paper): two numeric paths, five replays.

Every approach is one :class:`~repro.feti.operators.base.DualOperator` with
the same three phases:

``prepare()``
    symbolic factorizations, persistent GPU allocations, kernel analysis —
    run once per mesh;
``preprocess()``
    numeric factorization and (for explicit approaches) the assembly of the
    local dual operators ``F̃ᵢ`` — run once per time step that changed ``K``;
``apply(λ)``
    the dual-operator application used inside every PCPG iteration.

An approach is three values.  Its numbers come from one of two numeric
paths — ``explicit`` (the assembled ``F̃ᵢ``, small ones in one padded pack,
large ones applied by SYMV) or implicit (one banded ``K⁺`` solve per
sparsity pattern) — both run on the same factor bands, one per pattern
group (:class:`~repro.sparse.group.PatternGroup`).  The CPU library it stands for
(MKL PARDISO or CHOLMOD) and one of five cost replays
(:mod:`repro.feti.operators.replay`: CPU explicit, CPU implicit, GPU
explicit, GPU implicit, hybrid) give its simulated seconds and device
bytes; the replays read the subdomain shapes only.  So approaches sharing
a numeric path compute the same operator bit for bit, and a replay prices
any problem from its symbolic analysis alone (:func:`replay_for`).
"""

from __future__ import annotations

from repro.cluster.topology import Machine, MachineConfig
from repro.feti.config import AssemblyConfig, DualOperatorApproach
from repro.feti.operators.base import DualOperator, analyze_problem
from repro.feti.operators.batch import (
    BatchedDenseApply,
    FlatIndexMap,
    SubdomainBatchEngine,
)
from repro.feti.operators.replay import (
    CostReplay,
    CpuExplicitReplay,
    CpuImplicitReplay,
    GpuExplicitReplay,
    GpuImplicitReplay,
    HybridReplay,
    ShapeTable,
)
from repro.feti.problem import FetiProblem
from repro.sparse.costmodel import CpuLibrary

__all__ = [
    "DualOperator",
    "SubdomainBatchEngine",
    "FlatIndexMap",
    "BatchedDenseApply",
    "ShapeTable",
    "CostReplay",
    "make_dual_operator",
    "replay_for",
]

_A = DualOperatorApproach
_MKL, _CHOLMOD = CpuLibrary.MKL_PARDISO, CpuLibrary.CHOLMOD
#: Every Table-III approach as ``(explicit, CPU library, cost replay)``.  The
#: library is what the replay charges the analysis, the factorization and
#: the CPU Schur assembly at.  MKL PARDISO cannot export its factors, so
#: every approach that puts a factor on the GPU is charged as CHOLMOD.
_APPROACHES = {
    _A.IMPLICIT_MKL: (False, _MKL, CpuImplicitReplay),
    _A.IMPLICIT_CHOLMOD: (False, _CHOLMOD, CpuImplicitReplay),
    _A.IMPLICIT_GPU_LEGACY: (False, _CHOLMOD, GpuImplicitReplay),
    _A.IMPLICIT_GPU_MODERN: (False, _CHOLMOD, GpuImplicitReplay),
    _A.EXPLICIT_MKL: (True, _MKL, CpuExplicitReplay),
    _A.EXPLICIT_CHOLMOD: (True, _CHOLMOD, CpuExplicitReplay),
    _A.EXPLICIT_GPU_LEGACY: (True, _CHOLMOD, GpuExplicitReplay),
    _A.EXPLICIT_GPU_MODERN: (True, _CHOLMOD, GpuExplicitReplay),
    _A.EXPLICIT_HYBRID: (True, _MKL, HybridReplay),
}


def _machine(
    approach: DualOperatorApproach, problem: FetiProblem, config: MachineConfig | None
) -> Machine:
    """A fresh machine for ``problem``, at the approach's CUDA generation."""
    config = config or MachineConfig()
    if approach.cuda_library is not None:
        config = config.with_cuda(approach.cuda_library.cuda_version)
    return Machine.for_decomposition(problem.decomposition, config)


def make_dual_operator(
    approach: DualOperatorApproach,
    problem: FetiProblem,
    machine_config: MachineConfig | None = None,
    assembly_config: AssemblyConfig | None = None,
    pattern_cache=None,
    workers: int = 1,
    precision: str = "fp64",
) -> DualOperator:
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
    workers:
        Span count of the preprocessing (:func:`repro.runtime.preprocess.
        run_preprocessing`): ``1`` (serial) unless the spec's
        ``execution`` asks for threads.
    precision:
        Factor/pack storage policy (:mod:`repro.memory.precision`):
        ``"fp64"`` (the reference) or ``"fp32"`` (half-size resident
        factors and packs).
    """
    if approach not in _APPROACHES:
        raise ValueError(f"unknown approach: {approach}")
    explicit, library, replay = _APPROACHES[approach]
    return DualOperator(
        problem,
        _machine(approach, problem, machine_config),
        approach,
        explicit=explicit,
        library=library,
        replay=replay,
        config=assembly_config,
        pattern_cache=pattern_cache,
        workers=workers,
        precision=precision,
    )


def replay_for(
    approach: DualOperatorApproach,
    problem: FetiProblem,
    machine_config: MachineConfig | None = None,
    assembly_config: AssemblyConfig | None = None,
    shapes: ShapeTable | None = None,
) -> CostReplay:
    """The approach's cost replay on a fresh machine, from the symbolic analysis alone.

    No factorization and no Schur assembly: the replay's phases charge what
    :func:`make_dual_operator`'s would.  ``shapes`` reuses a table built
    for the same problem and library (the exhaustive Table-I sweep prices
    every configuration from one).
    """
    _, library, replay = _APPROACHES[approach]
    if shapes is None:
        groups = analyze_problem(problem, scatters=replay.reads_rhs_fill)
        shapes = ShapeTable.from_groups(problem, groups, library, replay.reads_rhs_fill)
    return replay(shapes, _machine(approach, problem, machine_config), assembly_config)
