"""A deterministic call budget for the cold path: one factorization per group.

Every executor runs one preprocessing path.  A cold serial ``Session.solve``
factors the subdomains sharing one symbolic analysis as one stack, whatever
cluster they belong to — one ``stacked_cholesky`` per pattern group, which
is one LAPACK ``dpbtrf`` on the group's block-diagonal band — and never
goes through the
per-subdomain ``SparseSolver.factorize``.  The only other LAPACK kernel
is the explicit approaches' ``dtrtri``: the Schur assembly inverts the
diagonal block of every supernode its sweep visits once per member.  The
``K⁺`` solves are BLAS ``dtbsv`` on the band (no ``dtrtrs``), and no
``dpotrf`` runs at all.

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
    stacked, factorize = numeric.stacked_cholesky, SparseSolver.factorize

    def counted_stacked(*args, **kwargs):
        calls["stacked_cholesky"] += 1
        return stacked(*args, **kwargs)

    def counted_factorize(self, K):
        calls["SparseSolver.factorize"] += 1
        return factorize(self, K)

    monkeypatch.setattr(preprocess, "stacked_cholesky", counted_stacked)
    monkeypatch.setattr(numeric, "stacked_cholesky", counted_stacked)
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

    def counted(groups, *args):
        spans.append(sum(map(len, groups)))
        return run_span(groups, *args)

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
                for scatter in operator._schur_scatters.values()
            )
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
    schur_complements = preprocess.schur_complements

    def counted_assembly(solvers, scatters, workspace):
        assemblies.append(len(solvers))
        return schur_complements(solvers, scatters, workspace)

    monkeypatch.setattr(preprocess, "schur_complements", counted_assembly)
    assembly = "table2" if approach == "expl modern" else None
    spec = SolverSpec(approach=approach, assembly=assembly, execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
        operator = session.solver(workload).operator
        # One class per distinct (pattern, key), every member in one.
        classes = {
            (id(operator._cpu_solvers[sub.index].symbolic), operator._schur_scatters[sub.index].key)
            for sub in operator.problem.subdomains
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
#: projector, the ordering and the gluing build a fixed set, the stacked
#: factorization two per pattern group (:func:`~repro.sparse.numeric.
#: stacked_values`), and nothing is built per subdomain, cluster or
#: interface class.  Measured 46.
SET_UP_SPARSE_MATRICES = 46


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
        patterns = len({id(s.symbolic) for s in operator._cpu_solvers.values()})
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
