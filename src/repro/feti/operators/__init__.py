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
any problem from its symbolic analysis alone (:func:`replay_for`).  An
operator is priced once, at ``prepare()``, through that same call: it
keeps the frozen :class:`~repro.feti.operators.replay.PriceList`, never a
machine.
"""

from __future__ import annotations

from functools import partial

import numpy as np

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
    PriceList,
    ShapeTable,
)
from repro.feti.problem import FetiProblem
from repro.memory.precision import resolve_precision
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.group import PatternGroup

__all__ = [
    "DualOperator",
    "SubdomainBatchEngine",
    "FlatIndexMap",
    "BatchedDenseApply",
    "ShapeTable",
    "PriceList",
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
    policy = resolve_precision(precision)
    return DualOperator(
        problem,
        approach,
        explicit=_APPROACHES[approach][0],
        price=partial(
            _price, approach, problem, machine_config, assembly_config, policy.storage_dtype
        ),
        config=assembly_config,
        pattern_cache=pattern_cache,
        workers=workers,
        precision=policy,
    )


def _price(
    approach: DualOperatorApproach,
    problem: FetiProblem,
    machine_config: MachineConfig | None,
    assembly_config: AssemblyConfig | None,
    storage_dtype,
    groups: list[PatternGroup],
) -> PriceList:
    """The price list of ``problem`` under its pattern groups (a
    :meth:`DualOperator.prepare` found them): :func:`replay_for` on the
    :class:`ShapeTable` of the groups."""
    _, library, replay = _APPROACHES[approach]
    shapes = ShapeTable.from_groups(problem, groups, library, replay.reads_rhs_fill)
    return replay_for(
        approach, problem, machine_config, assembly_config, shapes, storage_dtype
    ).price()


def replay_for(
    approach: DualOperatorApproach,
    problem: FetiProblem,
    machine_config: MachineConfig | None = None,
    assembly_config: AssemblyConfig | None = None,
    shapes: ShapeTable | None = None,
    storage_dtype=np.float64,
) -> CostReplay:
    """The approach's cost replay on a fresh machine, from the symbolic analysis alone.

    No factorization and no Schur assembly: the replay's phases charge what
    :func:`make_dual_operator`'s would (``storage_dtype``: the precision
    policy's, which sizes the ``F̃ᵢ`` on the device).  ``shapes`` reuses a
    table built for the same problem and library (the exhaustive Table-I
    sweep prices every configuration from one; an operator's
    ``prepare()``, from its pattern groups).
    """
    _, library, replay = _APPROACHES[approach]
    if shapes is None:
        groups = analyze_problem(problem, scatters=replay.reads_rhs_fill)
        shapes = ShapeTable.from_groups(problem, groups, library, replay.reads_rhs_fill)
    return replay(
        shapes, _machine(approach, problem, machine_config), assembly_config, storage_dtype
    )
