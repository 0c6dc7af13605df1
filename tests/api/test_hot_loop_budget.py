"""A deterministic budget for the PCPG hot loop of a warm ``Session.solve``.

Wall-clock numbers live in ``benchmarks/perf``; these are the call counts
behind them.  The discrete-event GPU simulator (streams, stream lookup,
thread clocks) runs during the first apply after a preprocessing — where the
timeline plan is made — and never again in that round; a long-lived
session's timing ledger does not grow with the number of solves; a
projector apply is two sparse products and one Cholesky solve, never an
executor dispatch; and outside ``preprocess()`` nothing is solved or
multiplied one subdomain at a time: ``K⁺`` is one stacked sweep per sparsity
pattern.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import repro.sparse.solvers as sparse_solvers

from repro.analysis.timing import ThreadClocks
from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.cluster.topology import ClusterResources
from repro.feti.operators.base import DualOperatorBase
from repro.feti.projector import Projector, build_projector
from repro.gpu.stream import Stream
from repro.runtime.executor import ThreadExecutor
from repro.sparse.solvers import SparseSolverBase

#: 4×4 subdomains, 2 clusters: eight subdomains share each cluster's streams.
W = Workload("heat", 2, (4, 4), 4, n_clusters=2)
SPEC = SolverSpec(approach="expl modern", assembly="table2")

_SIMULATOR = (
    (Stream, ("submit", "wait_for", "synchronize", "reset")),
    (ClusterResources, ("stream_for",)),
    (ThreadClocks, ("advance", "advance_many")),
)


def _session() -> Session:
    # "unlimited": a REPRO_MEMORY_BUDGET in the environment must not demote
    # the entry between solves — these tests are about *warm* solves.
    return Session(SPEC, memory_budget="unlimited")


def test_simulator_runs_in_the_first_apply_of_a_round_only(monkeypatch):
    calls: Counter[str] = Counter()
    applies: list[tuple[bool, int]] = []  # (first of its round?, simulator calls)
    fresh_round = [False]

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, names in _SIMULATOR:
        for name in names:
            count(cls, name)

    preprocess, apply_impl = DualOperatorBase.preprocess, DualOperatorBase._apply_impl

    def tracking_preprocess(self):
        fresh_round[0] = True
        return preprocess(self)

    def tracking_apply_impl(self, lam):
        before = sum(calls.values())
        result = apply_impl(self, lam)
        applies.append((fresh_round[0], sum(calls.values()) - before))
        fresh_round[0] = False
        return result

    monkeypatch.setattr(DualOperatorBase, "preprocess", tracking_preprocess)
    monkeypatch.setattr(DualOperatorBase, "_apply_impl", tracking_apply_impl)

    session = _session()
    cold = session.solve(W)
    assert cold.converged
    n_cold = len(applies)
    assert n_cold == cold.iterations + 1
    # The cold solve preprocessed: its first apply planned the timeline ...
    first, *rest = applies
    assert first[0] and first[1] > 0
    assert calls["Stream.submit"] > 0 and calls["ClusterResources.stream_for"] > 0
    # ... and applies 2…n never touched the simulator.
    assert rest and all(not fresh and n == 0 for fresh, n in rest)

    # A warm solve reuses the preprocessing, hence the plan: zero simulator
    # calls in any of its applies.
    calls.clear()
    warm = session.solve(W)
    assert warm.converged and warm.iterations == cold.iterations
    assert applies[n_cold:] == [(False, 0)] * (warm.iterations + 1)
    assert warm.dual_apply_seconds == cold.dual_apply_seconds


def test_warm_solves_do_not_grow_the_timing_ledger():
    """Regression: every apply used to append a PhaseTiming that nothing dropped."""
    session = _session()
    first = session.solve(W)
    ledger = session.solver(W).operator.ledger
    retained = len(ledger.phases)
    assert retained == ledger.count("preparation") + ledger.count("preprocessing")
    applies = ledger.count("apply")
    total = ledger.total("apply")
    iterations = 0
    for _ in range(20):
        solution = session.solve(W)
        iterations += solution.iterations + 1  # + the initial residual's apply
        assert solution.dual_apply_seconds == first.dual_apply_seconds
    assert len(ledger.phases) == retained
    assert ledger.count("apply") == applies + iterations
    assert ledger.total("apply") > total
    assert ledger.last("apply").breakdown is session.solver(W).operator._apply_plans[1][1]


#: 8×8 subdomains, 4 clusters, ``n_λ = 1024``: the projector's sparse products
#: are as large as any workload of record makes them.
W_LARGE = Workload("heat", 2, (8, 8), 8, n_clusters=4)

_PROJECTOR_ENTRY_POINTS = ("apply", "apply_block", "initial_lambda", "alpha")


def test_projector_never_dispatches_to_the_executor(monkeypatch):
    """The projector is serial on every backend: no submit under threads:2."""
    inside = [0]
    calls: Counter[str] = Counter()
    submits = [0]

    def entered(name):
        original = getattr(Projector, name)

        def tracked(self, *args, **kwargs):
            calls[name] += 1
            inside[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(Projector, name, tracked)

    for name in _PROJECTOR_ENTRY_POINTS:
        entered(name)
    submit = ThreadExecutor.submit

    def counted_submit(self, fn, /, *args, **kwargs):
        submits[0] += bool(inside[0])
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadExecutor, "submit", counted_submit)

    spec = SolverSpec(approach="expl modern", assembly="table2", execution="threads:2")
    with Session(spec, memory_budget="unlimited") as session:
        session.solve(W_LARGE)
        calls.clear()
        warm = session.solve(W_LARGE)
    assert warm.converged
    assert calls["initial_lambda"] == 1 and calls["alpha"] == 1
    assert calls["apply"] >= 2 * warm.iterations
    assert submits[0] == 0


def test_serial_projector_apply_is_two_products_and_one_solve(monkeypatch):
    projector = build_projector(build_problem(W_LARGE))
    counts: Counter[str] = Counter()
    cho_solve, matmul = scipy.linalg.cho_solve, sp.csr_matrix.__matmul__

    def counted_solve(*args, **kwargs):
        counts["cho_solve"] += 1
        return cho_solve(*args, **kwargs)

    def counted_matmul(self, other):
        counts["csr @ x"] += 1
        return matmul(self, other)

    monkeypatch.setattr(scipy.linalg, "cho_solve", counted_solve)
    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted_matmul)
    projector.apply(np.ones(projector.n_lambda))
    assert counts == {"csr @ x": 2, "cho_solve": 1}


@pytest.mark.parametrize(
    "approach, assembly", [("expl mkl", None), ("expl modern", "table2"), ("impl mkl", None)]
)
def test_warm_solve_runs_one_stacked_sweep_per_pattern_and_no_subdomain_loop(
    monkeypatch, approach, assembly
):
    spec = SolverSpec(approach=approach, assembly=assembly, execution="serial")
    counts: Counter[str] = Counter()
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(W).converged
        operator = session.solver(W).operator
        per_subdomain = {
            id(matrix)
            for sub in operator.problem.subdomains
            for matrix in (sub.K, sub.K_reg, sub.B, sub.Bt)
        }
        n_pattern_groups = len({id(s.symbolic) for s in operator._cpu_solvers.values()})
        assert n_pattern_groups == 1  # 16 subdomains, one K_reg pattern

        def counted(owner, name, label, when=lambda *args: True):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[label] += bool(when(*args))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(SparseSolverBase, "solve", "facade solve")
        counted(SparseSolverBase, "solve_many", "facade solve")
        for cls in (sp.csr_matrix, sp.csc_matrix):
            counted(
                cls, "__matmul__", "subdomain product",
                when=lambda self, other: id(self) in per_subdomain,
            )
        counted(sparse_solvers, "solve_stacked", "stacked sweep")

        applies = operator.ledger.count("apply")
        warm = session.solve(W)
        applies = operator.ledger.count("apply") - applies
    assert warm.converged and applies == warm.iterations + 1
    assert counts["facade solve"] == 0 and counts["subdomain product"] == 0
    # Dual right-hand side + primal recovery; the implicit apply adds its own.
    sweeps = 2 + (applies if approach.startswith("impl") else 0)
    assert counts["stacked sweep"] == sweeps * n_pattern_groups
