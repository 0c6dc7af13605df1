"""A deterministic call budget for the cold path: one factorization per group.

Every worker count runs one preprocessing path.  A cold serial ``Session.solve``
factors the subdomains sharing one symbolic analysis as one stack, whatever
cluster they belong to — one ``stacked_cholesky`` per pattern group, which
is one LAPACK ``dpbtrf`` on the group's block-diagonal band — and
constructs no single-matrix ``SparseSolver``, let alone factorizes one.
The only other LAPACK kernel is the explicit approaches' ``dtrtri``: the
Schur assembly inverts the diagonal block of every supernode its sweep
visits once per member.  The ``K⁺`` solves are BLAS ``dtbsv`` on the band
(no ``dtrtrs``), and ``dpotrf`` runs only in the explicit approaches'
default Dirichlet preconditioner: once per ``Sᵢ`` of ``SYMV_MIN_ROWS`` rows
or more (the smaller ones take one batched Cholesky per size).

The explicit approaches assemble ``F̃ᵢ`` once per ``(pattern, interface
class)``; the simulated GPU assembly only replays its kernels'
costs (:mod:`repro.gpu` has no numeric kernel to call).
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg.lapack

import repro.runtime.preprocess as preprocess
import repro.sparse.numeric as numeric

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.operators.batch import SYMV_MIN_ROWS
from repro.sparse.solvers import SparseSolver

#: ``(workload, pattern groups)``: every workload has one pattern, and the
#: four clusters of the heat 2D one share its group.
BUDGETS = {
    "heat2d-8x8x8-c4": (Workload("heat", 2, (8, 8), 8, n_clusters=4), 1),
    "heat3d-2x2x1x12": (Workload("heat", 3, (2, 2, 1), 12), 1),
}

#: The LAPACK kernels a factorization or a solve could call.
LAPACK = ("dpbtrf", "dpotrf", "dtrtri", "dtrtrs")


@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_cold_serial_solve_factors_once_per_pattern_group(
    monkeypatch, name, approach
):
    workload, groups = BUDGETS[name]
    calls: Counter[str] = Counter()
    stacked = numeric.stacked_cholesky
    construct, factorize = SparseSolver.__init__, SparseSolver.factorize

    def counted_stacked(*args, **kwargs):
        calls["stacked_cholesky"] += 1
        return stacked(*args, **kwargs)

    def counted_construct(self, *args, **kwargs):
        calls["SparseSolver"] += 1
        construct(self, *args, **kwargs)

    def counted_factorize(self, K):
        calls["SparseSolver.factorize"] += 1
        return factorize(self, K)

    monkeypatch.setattr(preprocess, "stacked_cholesky", counted_stacked)
    monkeypatch.setattr(numeric, "stacked_cholesky", counted_stacked)
    monkeypatch.setattr(SparseSolver, "__init__", counted_construct)
    monkeypatch.setattr(SparseSolver, "factorize", counted_factorize)
    spec = SolverSpec(approach=approach, execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
    assert calls == {"stacked_cholesky": groups}


@pytest.mark.parametrize("execution, tasks", [("serial", 1), ("threads:2", 2), ("threads:3", 3)])
def test_a_cold_round_runs_one_task_per_worker(monkeypatch, execution, tasks):
    """Serial runs one task over every group; ``threads:n`` cuts the four
    clusters' one group into ``n`` spans, not one task per cluster."""
    workload, _ = BUDGETS["heat2d-8x8x8-c4"]
    spans: list[int] = []
    run_span = preprocess._run_span

    def counted(runs, *args):
        spans.append(sum(stop - start for _, start, stop in runs))
        return run_span(runs, *args)

    monkeypatch.setattr(preprocess, "_run_span", counted)
    spec = SolverSpec(approach="expl mkl", execution=execution)
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
    assert len(spans) == tasks and sum(spans) == workload.n_subdomains


def _count_lapack(monkeypatch) -> Counter:
    """Count the :data:`LAPACK` calls of every loaded ``repro`` module."""
    calls: Counter[str] = Counter()

    def counted(name, kernel):
        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return call

    modules = [m for n, m in sys.modules.items() if n.startswith("repro")]
    for module in [scipy.linalg.lapack, *modules]:
        for name in LAPACK:
            kernel = getattr(module, name, None)
            if kernel is not None:
                monkeypatch.setattr(module, name, counted(name, kernel))
    return calls


@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_one_dpbtrf_per_group_and_one_dtrtri_per_swept_block(monkeypatch, name, approach):
    workload, groups = BUDGETS[name]
    calls = _count_lapack(monkeypatch)
    spec = SolverSpec(approach=approach, execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
        operator = session.solver(workload).operator
        expected = {"dpbtrf": groups}
        if operator.explicit:
            # Σ over subdomains of the supernodes from the first active one.
            expected["dtrtri"] = sum(
                scatter.active.shape[0] - int(np.searchsorted(scatter.active, 0, side="right"))
                for group in operator._groups
                for scatter in group.scatters
            )
            large = sum(
                b.size >= SYMV_MIN_ROWS
                for b, _ in session.solver(workload).preconditioner.local_S.values()
            )
            if large:
                expected["dpotrf"] = large
        assert calls == expected
        assert session.solve(workload).converged  # warm: solves on the band
    assert calls == expected


#: ``(workload, approach) -> class assemblies`` of a cold serial solve.  Every
#: explicit approach runs the same pruned sweep, so the GPU approaches'
#: classes are ``expl mkl``'s.
CLASS_BUDGETS = {
    ("heat2d-8x8x8-c4", "expl mkl"): 8,
    ("heat2d-8x8x8-c4", "expl modern"): 8,
    ("heat3d-2x2x1x12", "expl mkl"): 4,
    ("heat3d-2x2x1x12", "expl modern"): 4,
}


@pytest.mark.parametrize(("name", "approach"), sorted(CLASS_BUDGETS))
def test_cold_serial_solve_assembles_once_per_interface_class(monkeypatch, name, approach):
    workload, _ = BUDGETS[name]
    assemblies = []
    assemble = preprocess.stacked_schur_complement

    def counted_assembly(symbolic, bands, scatters, workspace):
        assemblies.append(len(bands))
        return assemble(symbolic, bands, scatters, workspace)

    monkeypatch.setattr(preprocess, "stacked_schur_complement", counted_assembly)
    assembly = "table2" if approach == "expl modern" else None
    spec = SolverSpec(approach=approach, assembly=assembly, execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
        operator = session.solver(workload).operator
        # One class per distinct (pattern, key), every member in one.
        classes = {
            (id(group.symbolic), scatter.key)
            for group in operator._groups
            for scatter in group.scatters
        }
        assert len(assemblies) == len(classes) == CLASS_BUDGETS[(name, approach)]
        assert sum(assemblies) == operator.problem.n_subdomains
        operator.preprocess()  # a warm round: the same classes again
    assert len(assemblies) == 2 * CLASS_BUDGETS[(name, approach)]


#: Cold solves whose set-up must cost the same count of objects: 64 and 256
#: subdomains of one shape on four clusters.
SIZES = {
    "heat2d-8x8x8-c4": Workload("heat", 2, (8, 8), 8, n_clusters=4),
    "heat2d-16x16x8-c4": Workload("heat", 2, (16, 16), 8, n_clusters=4),
}

#: SciPy sparse constructions of such a set-up: the preconditioner, the
#: projector, the ordering and the gluing build a fixed set, and nothing is
#: built per subdomain, cluster, pattern group or interface class.  Measured
#: 46 under the lumped preconditioner, 49 since ``expl mkl`` defaults to the
#: Dirichlet one (the rows of ``B_Dᵀ`` on the constrained DOFs, their
#: transpose and the block diagonal of the ``Sᵢ`` in place of
#: ``blockdiag(Kᵢ)``), 34 since the Dirichlet build reads ``B_D`` off the
#: gluing chains (no global ``B``, ``B D⁻¹ Bᵀ``, block inverse or ``B_D``
#: products; :data:`DIRICHLET_BUILD_SPARSE_MATRICES` of them are the
#: build's), 32 since the symbolic analysis maps the factorization's values
#: from their CSR positions (:func:`~repro.sparse.numeric.stacked_values`
#: builds no CSR → CSC map per pattern group and preprocessing).
SET_UP_SPARSE_MATRICES = 32

#: SciPy sparse constructions of one Dirichlet build on heat 2D: ``B_Dᵀ``,
#: its rows on the slots and their transpose (four), the block diagonal of
#: the ``Sᵢ`` and the two products that sum it into ``M`` (five).
DIRICHLET_BUILD_SPARSE_MATRICES = 9


def _count_setup_objects(monkeypatch, workload: Workload) -> tuple[Counter, int]:
    """A cold serial ``expl mkl`` solve's sparse constructions, pattern hashes
    and Schur-scatter passes, and its count of stored patterns."""
    import scipy.sparse._compressed as compressed

    import repro.feti.operators.base as base
    import repro.sparse.cache as cache
    import repro.sparse.schur as schur

    calls: Counter[str] = Counter()

    def counted(label, function):
        def call(*args, **kwargs):
            calls[label] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(
        compressed._cs_matrix, "__init__", counted("sparse matrix", compressed._cs_matrix.__init__)
    )
    monkeypatch.setattr(cache, "structural_key", counted("pattern hash", cache.structural_key))
    scatters = counted("scatter pass", schur.schur_scatters)
    monkeypatch.setattr(schur, "schur_scatters", scatters)
    monkeypatch.setattr(base, "schur_scatters", scatters)
    build_problem.cache_clear()  # cold: the problem too
    spec = SolverSpec(approach="expl mkl", execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
        operator = session.solver(workload).operator
        patterns = len(operator._groups)
    return calls, patterns


def test_cold_set_up_builds_per_group_not_per_subdomain(monkeypatch):
    """Nothing before the first PCPG iteration is built once per subdomain.

    The stiffness stays in its shape group's stacks, the gluing in one entry
    list, every Schur scatter of a pattern comes from one pass and every
    pattern is hashed once: 64 and 256 subdomains cost the same number of
    SciPy sparse constructions, at most :data:`SET_UP_SPARSE_MATRICES`.
    """
    counts = {}
    for name, workload in SIZES.items():
        calls, patterns = _count_setup_objects(monkeypatch, workload)
        assert calls["pattern hash"] == patterns == 1, name
        assert calls["scatter pass"] == patterns, name
        assert 0 < calls["sparse matrix"] <= SET_UP_SPARSE_MATRICES, (name, dict(calls))
        counts[name] = dict(calls)
    assert counts["heat2d-8x8x8-c4"] == counts["heat2d-16x16x8-c4"]


def _count_dirichlet_build(monkeypatch, workload: Workload) -> tuple[Counter, int]:
    """One Dirichlet build's SciPy sparse constructions, graph searches and
    Python-level LAPACK calls, on a preprocessed serial ``expl mkl`` solver,
    and the workload's subdomain count."""
    import scipy.sparse._compressed as compressed
    import scipy.sparse.csgraph as csgraph

    import repro.feti.preconditioner as module

    calls: Counter[str] = Counter()

    def counted(label, function):
        def call(*args, **kwargs):
            calls[label] += 1
            return function(*args, **kwargs)

        return call

    spec = SolverSpec(approach="expl mkl", execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        solver = session.solver(workload)
        solver.preprocess()
        with monkeypatch.context() as patch:
            patch.setattr(
                compressed._cs_matrix,
                "__init__",
                counted("sparse matrix", compressed._cs_matrix.__init__),
            )
            patch.setattr(
                csgraph, "connected_components", counted("graph search", csgraph.connected_components)
            )
            for name in ("dpotrf", "dpotri"):
                patch.setattr(module, name, counted(name, getattr(module, name)))
            _ = solver.preconditioner
    return calls, workload.n_subdomains


def test_dirichlet_build_runs_per_structure_not_per_subdomain(monkeypatch):
    """The Dirichlet build on 64 and on 256 subdomains: ``B_D`` comes from
    the gluing chains (no graph search of ``B D⁻¹ Bᵀ``), the SciPy sparse
    constructions are a fixed set, and the only LAPACK calls made from
    Python are one ``dpotri`` per subdomain (every block is below
    ``SYMV_MIN_ROWS``, so no ``dpotrf``): the floor, since a batched
    triangular inverse ran 3x slower."""
    sparse = {}
    for name, workload in SIZES.items():
        calls, n_subdomains = _count_dirichlet_build(monkeypatch, workload)
        assert calls["graph search"] == 0, name
        assert calls["dpotri"] == n_subdomains and calls["dpotrf"] == 0, (name, dict(calls))
        sparse[name] = calls["sparse matrix"]
    assert sparse["heat2d-8x8x8-c4"] == sparse["heat2d-16x16x8-c4"]
    assert 0 < sparse["heat2d-8x8x8-c4"] <= DIRICHLET_BUILD_SPARSE_MATRICES


#: 16 and 64 subdomains of one shape on one cluster: both have the same six
#: shape groups (a corner, edge or interior subdomain, on the Dirichlet face
#: or not), so a replay that prices groups evaluates the cost model equally
#: often on both.
PRICING_SIZES = {
    "heat2d-4x4x8-c1": Workload("heat", 2, (4, 4), 8),
    "heat2d-8x8x8-c1": Workload("heat", 2, (8, 8), 8),
}


def _count_cold_pricing(monkeypatch, workload: Workload) -> tuple[Counter, dict]:
    """Cost-model method calls and pattern-cache lookups of a cold
    ``expl modern`` ``prepare()`` + ``preprocess()``, and the cache stats."""
    from repro.gpu.costmodel import GpuCostModel
    from repro.sparse.cache import PatternCache
    from repro.sparse.costmodel import CpuCostModel

    calls: Counter[str] = Counter()

    def counted(label, function):
        def call(*args, **kwargs):
            calls[label] += 1
            return function(*args, **kwargs)

        return call

    for model in (GpuCostModel, CpuCostModel):
        for name, member in list(vars(model).items()):
            if callable(member) and not name.startswith("__"):
                monkeypatch.setattr(model, name, counted("cost model", member))
    monkeypatch.setattr(
        PatternCache, "symbolic_for", counted("symbolic_for", PatternCache.symbolic_for)
    )
    build_problem.cache_clear()
    spec = SolverSpec(approach="expl modern", assembly="table2", execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        solver = session.solver(workload)
        solver.prepare()
        solver.preprocess()
        stats = session.cache_stats()
    return calls, stats


def test_cold_pricing_is_per_shape_group_not_per_subdomain(monkeypatch):
    """The replays evaluate each cost once per shape group, and the analysis
    looks each stored pattern up once while counting a hit per other member.

    16 and 64 subdomains make the same number of cost-model calls and one
    ``symbolic_for`` call each; ``cache_stats()`` still reads one analysis
    and a hit for every other subdomain.
    """
    counts = {}
    for name, workload in PRICING_SIZES.items():
        calls, stats = _count_cold_pricing(monkeypatch, workload)
        assert calls["symbolic_for"] == 1, name
        assert stats["symbolic_analyses"] == 1, name
        assert stats["pattern_hits"] == workload.n_subdomains - 1, name
        assert calls["cost model"] > 0, name
        counts[name] = calls["cost model"]
    assert counts["heat2d-4x4x8-c1"] == counts["heat2d-8x8x8-c1"]
