"""A deterministic budget for the PCPG hot loop of a warm ``Session.solve``.

Wall-clock numbers live in ``benchmarks/perf``; these are the call counts
behind them.  The discrete-event GPU simulator (streams, stream lookup,
thread clocks) runs in ``prepare()`` only — where the operator is priced —
and never in a preprocessing or an apply; a long-lived
session's timing ledger does not grow with the number of solves; a solve
whose condition estimate nobody reads never computes it; a projector apply
(a block apply too, whatever its width) is two sparse products around one
GEMV per column with ``(GᵀG)⁻¹``, never a LAPACK call or a
preprocessing round; a warm solve re-measures no resident bytes, while a solve that
re-factors re-measures once; every sparse product of a warm solve runs a
bound CSR kernel (:class:`~repro.sparse.spmv.CsrProduct`); and outside
``preprocess()`` nothing is solved or multiplied one subdomain at a time:
a ``K⁺`` application is two banded BLAS calls (``dtbsv`` with ``L`` and
with ``Lᵀ``) per sparsity pattern, over all of its subdomains at once.
"""

from __future__ import annotations

import sys
from collections import Counter
from importlib import import_module

import numpy as np
import pytest
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

import repro.runtime.preprocess as preprocess
import repro.sparse.triangular as triangular

from repro.analysis.timing import ThreadClocks
from repro.api import Session, SolverSpec, StepValues, Workload
from repro.api.workload import build_problem
from repro.cluster.topology import ClusterResources
from repro.feti.operators.base import DualOperator
from repro.feti.projector import Projector, build_projector
from repro.gpu.stream import Stream
from repro.memory.ledger import measure_solver
from repro.sparse.group import PatternGroup
from repro.sparse.solvers import SparseSolver
from repro.sparse.spmv import CsrProduct

#: 4×4 subdomains, 2 clusters: eight subdomains share each cluster's streams.
W = Workload("heat", 2, (4, 4), 4, n_clusters=2)
SPEC = SolverSpec(approach="expl modern", assembly="table2")

_SIMULATOR = (
    (Stream, ("submit", "wait_for", "reset")),
    (ClusterResources, ("stream_for",)),
    (ThreadClocks, ("advance", "advance_many")),
)


def _session() -> Session:
    # "unlimited": a REPRO_MEMORY_BUDGET in the environment must not release
    # the entry between solves — these tests are about *warm* solves.
    return Session(SPEC, memory_budget="unlimited")


def test_simulator_runs_in_prepare_only(monkeypatch):
    calls: Counter[str] = Counter()
    phases: list[tuple[str, int]] = []  # (operator phase, its own simulator calls)

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, names in _SIMULATOR:
        for name in names:
            count(cls, name)

    def track(name):
        original = getattr(DualOperator, name)

        def tracked(self, *args, **kwargs):
            before, nested = sum(calls.values()), len(phases)
            result = original(self, *args, **kwargs)
            inner = sum(n for _, n in phases[nested:])
            phases.append((name, sum(calls.values()) - before - inner))
            return result

        monkeypatch.setattr(DualOperator, name, tracked)

    for name in ("prepare", "preprocess", "apply"):
        track(name)

    session = _session()
    cold = session.solve(W)
    assert cold.converged
    # The cold solve priced the operator once, in its preparation ...
    assert [name for name, n in phases if n] == ["prepare"]
    assert calls["Stream.submit"] > 0 and calls["ClusterResources.stream_for"] > 0
    # ... and its preprocessing and every apply never touched the simulator.
    assert sorted(name for name, _ in phases) == sorted(
        ["prepare", "preprocess"] + ["apply"] * (cold.iterations + 1)
    )

    # A warm solve, and a solve that re-factors a released entry, make zero
    # simulator calls.
    calls.clear()
    warm = session.solve(W)
    session.solver(W).operator.release()
    again = session.solve(W)
    assert warm.converged and warm.iterations == cold.iterations
    assert again.iterations == cold.iterations
    assert not calls
    assert warm.dual_apply_seconds == again.dual_apply_seconds == cold.dual_apply_seconds


def test_warm_solves_do_not_grow_the_timing_ledger():
    """Regression: every apply used to append a PhaseTiming that nothing dropped."""
    session = _session()
    first = session.solve(W)
    ledger = session.solver(W).operator.ledger
    applies = ledger.count("apply")
    total = ledger.total("apply")
    iterations = 0
    for _ in range(20):
        solution = session.solve(W)
        iterations += solution.iterations + 1  # + the initial residual's apply
        assert solution.dual_apply_seconds == first.dual_apply_seconds
    assert ledger.count("apply") == applies + iterations
    assert ledger.total("apply") > total
    assert ledger.last("apply").breakdown is session.solver(W).operator.prices.applied[1]


#: κ estimates of two warm solves as computed before the estimate became
#: lazy (at the end of every solve), as ``repr`` strings of the floats.
#: Re-pinned when the factorization moved to LAPACK's banded Cholesky, whose
#: factors differ from the supernodal ones in the last bits (κ moved by
#: 6.8e-10 and 1.5e-16 relative), and again when the coarse solve became a
#: GEMV with ``(GᵀG)⁻¹`` (8.5e-10 and 5.5e-16; the same bits serial and on
#: ``threads:2``), and again when ``expl modern`` took the pruned Schur sweep
#: of every explicit approach (1.7e-10; the second, ``impl mkl``, did not move).
#: Re-pinned when the explicit approaches' default became ``dirichlet`` (the
#: first, 2.285164035323403 under ``lumped``) and the Dirichlet ``Sᵢ`` came
#: from the dual operator's ``X`` instead of a sparse LU of each ``Kᵢ``
#: (the second moved 6.0e-15 relative from 1.4412233612285203).
#: Re-pinned when ``B_D`` came from the gluing chains in closed form (exact
#: dyadic values where the LU inverse left ``0.24999999999999994`` for ¼)
#: and the small ``Sᵢ`` took the kernel term as rank-one updates: the first
#: moved −4.0e-10 relative from 1.6169764883382751, the second −1.5e-16 from
#: 1.4412233612285117; no iteration count moved.
#: Re-pinned when ``dirichlet`` left the implicit approaches: the second
#: solves under ``expl mkl``, its ``X`` gathered from ``F̃ᵢ`` instead of
#: assembled by a selection Schur sweep (1.4412233612285115 →
#: 1.4412233612285112, −2.1e-16 relative; 7 iterations both).
#: Re-pinned when each subdomain shape came to be built once, on its
#: template mesh and summed in SciPy's COO → CSR order (the second is heat
#: 3D, whose element entries are inexact, ``w = 1/6``, so its ``K`` moved in
#: the last bits):
#: 1.4412233612285112 → 1.441223361228526, +1.0e-14 relative, read under
#: two BLAS threads; the first, on binary-fraction heat 2D, did not move.
_KAPPA = [
    (W, SPEC, "1.6169764876990844"),
    (
        Workload("heat", 3, (2, 2, 1), 2, dirichlet_faces=("zmin",)),
        SolverSpec(approach="expl mkl", preconditioner="dirichlet"),
        "1.441223361228526",
    ),
]


@pytest.mark.parametrize("workload, spec, kappa", _KAPPA)
def test_condition_estimate_runs_lapack_on_first_read_only(monkeypatch, workload, spec, kappa):
    pcpg_module = import_module("repro.feti.pcpg")
    estimate = pcpg_module.eigvalsh_tridiagonal
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return estimate(*args, **kwargs)

    monkeypatch.setattr(pcpg_module, "eigvalsh_tridiagonal", counted)
    with Session(spec, memory_budget="unlimited") as session:
        session.solve(workload)
        warm = session.solve(workload)
    assert warm.converged and calls == [0]
    report = warm.convergence
    assert repr(report.condition_estimate) == kappa
    assert calls == [1]
    # Read once, kept: the report, its dict, its text and the result agree.
    assert warm.pcpg.condition_estimate is report.condition_estimate
    assert report.to_dict()["condition_estimate"] == float(kappa)
    assert "condition estimate κ(PMPF)" in report.describe()
    assert calls == [1]


#: 8×8 subdomains, 4 clusters, ``n_λ = 1024``: the projector's sparse products
#: are as large as any workload of record makes them.
W_LARGE = Workload("heat", 2, (8, 8), 8, n_clusters=4)

_PROJECTOR_ENTRY_POINTS = ("apply", "apply_block", "initial_lambda", "alpha")


def test_projector_never_dispatches_to_the_executor(monkeypatch):
    """The projector is serial on every backend: no span task under threads:2."""
    inside = [0]
    calls: Counter[str] = Counter()
    tasks = [0]

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
    run_span = preprocess._run_span

    def counted_run_span(*args):
        tasks[0] += bool(inside[0])
        return run_span(*args)

    monkeypatch.setattr(preprocess, "_run_span", counted_run_span)

    spec = SolverSpec(approach="expl modern", assembly="table2", execution="threads:2")
    with Session(spec, memory_budget="unlimited") as session:
        session.solve(W_LARGE)
        calls.clear()
        warm = session.solve(W_LARGE)
    assert warm.converged
    assert calls["initial_lambda"] == 1 and calls["alpha"] == 1
    assert calls["apply"] >= 2 * warm.iterations
    assert tasks[0] == 0


class _CountedMatrix(np.ndarray):
    """An ``ndarray`` view that counts the products it is the left operand of."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


def test_serial_projector_apply_is_two_products_around_one_gemv_per_column(monkeypatch):
    """The coarse solve is one GEMV with ``(GᵀG)⁻¹``: no LAPACK call at all."""
    projector = build_projector(build_problem(W_LARGE))
    counts: Counter[str] = Counter()
    product = CsrProduct.__call__

    def counted_product(self, x):
        counts["csr @ x"] += 1
        return product(self, x)

    monkeypatch.setattr(CsrProduct, "__call__", counted_product)
    _count_dpotrs(monkeypatch, counts)
    monkeypatch.setattr(_CountedMatrix, "products", 0)
    projector.H = projector.H.view(_CountedMatrix)
    projector.apply(np.ones(projector.n_lambda))
    projector.apply_block(np.ones((projector.n_lambda, 3)))
    assert counts == {"csr @ x": 4}
    assert _CountedMatrix.products == 1 + 3  # one GEMV per column


def _count_dpotrs(monkeypatch, counts: Counter) -> None:
    """Count LAPACK ``dpotrs`` calls (no module of the package binds its own)."""
    dpotrs = lapack.dpotrs

    def counted(*args, **kwargs):
        counts["dpotrs"] += 1
        return dpotrs(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpotrs", counted)
    assert not any(
        hasattr(module, "dpotrs")
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
    )


def _count_measurements(monkeypatch) -> Counter:
    """Count ``storage_nbytes`` calls of operators and of their pattern groups."""
    counts: Counter[str] = Counter()
    for owner in (DualOperator, PatternGroup):
        original = owner.storage_nbytes

        def counted(self, _original=original, _label=owner.__name__):
            counts[_label] += 1
            return _original(self)

        monkeypatch.setattr(owner, "storage_nbytes", counted)
    return counts


def _resident_bytes_are_fresh(session: Session) -> bool:
    """The tier's ledger equals a fresh measurement of every live entry."""
    live = list(session._solvers.values())  # noqa: SLF001
    return session.cache_stats()["resident_bytes"] == sum(measure_solver(s).total for s in live)


def test_warm_solve_measures_no_bytes_and_runs_no_dpotrs(monkeypatch):
    """A warm solve neither re-measures its entry nor calls LAPACK's ``dpotrs``."""
    with Session(SPEC, memory_budget="unlimited") as session:
        session.solve(W_LARGE)
        counts = _count_measurements(monkeypatch)
        _count_dpotrs(monkeypatch, counts)
        for _ in range(3):
            assert session.solve(W_LARGE).converged
        assert counts == {}
        assert _resident_bytes_are_fresh(session)


def _harden(step: int, problem) -> StepValues:
    return StepValues(
        K=[(1.0 + step) * group.K.values for group in problem.groups],
        K_reg=[(1.0 + step) * group.K_reg.values for group in problem.groups],
    )


#: A CPU approach for the re-factoring solves below.
SPEC_CPU = SolverSpec(approach="expl mkl")


def test_solve_after_a_stiffness_schedule_remeasures_once(monkeypatch):
    workload = Workload("heat", 2, (4, 4), 4, n_clusters=2, steps=2)
    with Session(SPEC_CPU, memory_budget="unlimited") as session:
        session.solve(workload)
        session.run_steps(workload, update=_harden)  # leaves the entry stale
        counts = _count_measurements(monkeypatch)
        assert session.solve(workload).converged  # re-factors
        n_groups = len(session.solver(workload).operator._groups)
        assert counts == {"DualOperator": 1, "PatternGroup": n_groups}
        assert session.solve(workload).converged  # warm again
        assert counts == {"DualOperator": 1, "PatternGroup": n_groups}
        assert _resident_bytes_are_fresh(session)


def test_solve_of_a_released_entry_remeasures_once(monkeypatch):
    cold, hot = Workload("heat", 2, (2, 2), 3), Workload("heat", 2, (3, 1), 3)
    with Session(SPEC_CPU, memory_budget="unlimited") as session:
        session.solve(cold)
        session.solve(hot)
        # A ceiling the two entries together overflow releases the colder one.
        session.tier.budget_bytes = session.cache_stats()["resident_bytes"] - 1
        assert session.solve(hot).converged
        assert session.tier.state((cold, SPEC_CPU)) == "released"
        session.tier.budget_bytes = None
        counts = _count_measurements(monkeypatch)
        assert session.solve(cold).converged  # re-factors
        n_groups = len(session.solver(cold).operator._groups)
        assert counts == {"DualOperator": 1, "PatternGroup": n_groups}
        assert session.tier.state((cold, SPEC_CPU)) == "full"
        assert _resident_bytes_are_fresh(session)


@pytest.mark.parametrize(
    "approach, assembly", [("expl mkl", None), ("expl modern", "table2"), ("impl mkl", None)]
)
def test_warm_solve_runs_two_banded_calls_per_pattern_and_no_subdomain_loop(
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
        n_pattern_groups = len(operator._groups)
        assert n_pattern_groups == 1  # 16 subdomains, one K_reg pattern

        def counted(owner, name, label, when=lambda *args: True):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[label] += bool(when(*args))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(SparseSolver, "solve", "solver solve")
        # Every sparse product runs through ``@`` or a bound CSR kernel.
        for cls in (sp.csr_matrix, sp.csc_matrix):
            counted(
                cls, "__matmul__", "subdomain product",
                when=lambda self, other: id(self) in per_subdomain,
            )
        counted(
            CsrProduct, "__call__", "subdomain product",
            when=lambda self, x: id(self.matrix) in per_subdomain,
        )
        counted(CsrProduct, "__call__", "bound product")
        counted(triangular, "dtbsv", "banded call")

        applies = operator.ledger.count("apply")
        warm = session.solve(W)
        applies = operator.ledger.count("apply") - applies
    assert warm.converged and applies == warm.iterations + 1
    assert counts["solver solve"] == 0 and counts["subdomain product"] == 0
    # Every product is a bound kernel: per PCPG step two projections of two
    # products each and one preconditioner product (+ B̃ᵀ and B̃ around the
    # implicit apply's K⁺); per solve B̃ (dual rhs), G (λ₀), Gᵀ (α), B̃ᵀ (u).
    per_apply = 5 + (2 if approach.startswith("impl") else 0)
    assert counts["bound product"] == per_apply * applies + 4
    # Dual right-hand side + primal recovery; the implicit apply adds its own.
    kplus = 2 + (applies if approach.startswith("impl") else 0)
    assert counts["banded call"] == 2 * kplus * n_pattern_groups


#: The heat 3D workload of record: four 2 197-DOF subdomains, one pattern,
#: one cluster — one pattern group.
W_COLD = Workload("heat", 3, (2, 2, 1), 12)


@pytest.mark.parametrize(("approach", "partitions"), [("impl mkl", 0), ("expl mkl", 1)])
def test_cold_solve_is_one_dpbtrf_per_group_and_no_supernodes(monkeypatch, approach, partitions):
    """The implicit cold path never tiles ``L``; the explicit one once per pattern.

    Neither constructs a single-matrix ``SparseSolver``: the groups own the factors.
    """
    numeric = import_module("repro.sparse.numeric")
    symbolic = import_module("repro.sparse.symbolic")
    calls: Counter[str] = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(numeric, "dpbtrf")
    counted(symbolic, "_build_partition")
    counted(SparseSolver, "__init__")
    spec = SolverSpec(approach=approach, execution="serial")  # one task over every pattern group
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(W_COLD).converged
        operator = session.solver(W_COLD).operator
        groups = operator._groups
        assert len(groups) == 1
        assert (calls["dpbtrf"], calls["_build_partition"]) == (len(groups), partitions)
        assert calls["__init__"] == 0  # no single-matrix solver on the solve path
        assert session.solve(W_COLD).converged  # warm: nothing factored or tiled
    assert (calls["dpbtrf"], calls["_build_partition"]) == (len(groups), partitions)
