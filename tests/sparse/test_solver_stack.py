"""The stacked ``K⁺`` solve against the per-subdomain oracle.

``SolverStack`` (sparse layer: one block-diagonal band per pattern group,
two BLAS calls per solve) and the operator methods built on it
(``dual_rhs``, ``primal_solution``, ``apply_accurate``, the implicit CPU
apply) must reproduce ``tests/oracles/kplus.py`` — one
``SparseSolver.solve`` and one ``scipy.sparse`` product per subdomain —
on the *current* numeric factors, under every precision policy, keep every
member independent of the others, and hold ``L`` once: as the band the
factorization produced.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.sparse as sp

import repro.runtime.preprocess as preprocess
from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.decomposition import decompose_box
from repro.fem.heat import HeatTransferProblem
from repro.feti.config import DualOperatorApproach
from repro.feti.operators import make_dual_operator
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolver, MultiStepDriver
from repro.memory.precision import PRECISION_NAMES, factor_nbytes
from repro.sparse import triangular
from repro.sparse.cache import PatternCache
from repro.sparse.numeric import CholeskyFactor
from repro.sparse.solvers import SolverStack, SparseSolver
from repro.sparse.symbolic import SymbolicFactor

from tests.conftest import fem_stiffness
from tests.oracles.kplus import (
    looped_apply_accurate,
    looped_dual_rhs,
    looped_primal_solution,
)

#: Workloads of the stacked-kernel table in the README.  Every one of them
#: has one ``K_reg`` pattern, so all its subdomains form one stack.
WORKLOADS = {
    "heat2d-8x8x8": Workload("heat", 2, (8, 8), 8, n_clusters=4),
    "heat2d-4x4x8": Workload("heat", 2, (4, 4), 8, n_clusters=2),
    "heat2d-4x4x32": Workload("heat", 2, (4, 4), 32),
    "elasticity2d-4x4x8": Workload("elasticity", 2, (4, 4), 8),
    "elasticity3d-2x2x2x4": Workload("elasticity", 3, (2, 2, 2), 4),
    "heat3d-2x2x1x12": Workload("heat", 3, (2, 2, 1), 12),
}

#: Largest relative difference to the oracle.  Without refinement the two
#: paths run the same banded solve, the stack over more members (measured
#: ≤ 1e-15).  Refined solves end at their own fp64 floor ``eps · cond(K)``:
#: the residual ``b − K x`` is a cancellation, so a last-bit difference in
#: ``x`` comes back as ``eps · cond(K)`` in the correction (measured ≤ 2e-12).
TOLERANCE = {"fp64": 1e-13, "fp32": 1e-13, "fp32_ir": 1e-11}
#: Per-workload exceptions to :data:`TOLERANCE`.  Heat 3D ``(2,2,1)x12`` has
#: ``cond(K_reg)`` = 1.2e7, so its refined floor ``eps · cond`` sits above
#: the common bound (measured 1.6e-11).
WIDER_TOLERANCE = {("heat3d-2x2x1x12", "fp32_ir"): 1e-10}


def _preprocessed(problem, precision="fp64", approach=DualOperatorApproach.IMPLICIT_MKL):
    operator = make_dual_operator(
        approach, problem, pattern_cache=PatternCache(), precision=precision
    )
    operator.preprocess()
    return operator


def _stacked_and_looped(operator, seed=5):
    """``(name, stacked result, oracle result)`` of every ``K⁺`` consumer."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(operator.problem.n_lambda)
    alpha = rng.standard_normal(operator.problem.total_kernel_dim)
    yield "dual_rhs", operator.dual_rhs(), looped_dual_rhs(operator)
    yield (
        "primal_solution",
        np.concatenate(operator.primal_solution(lam, alpha)),
        np.concatenate(looped_primal_solution(operator, lam, alpha)),
    )
    reference = looped_apply_accurate(operator, lam)
    yield "apply_accurate", operator.apply_accurate(lam), reference
    yield "apply", operator.apply(lam), reference


def _assert_matches_oracle(operator, exact=False, tolerance=None):
    tolerance = tolerance or TOLERANCE[operator.precision.name]
    for name, got, ref in _stacked_and_looped(operator):
        if exact:
            assert np.array_equal(got, ref), name
        else:
            assert np.abs(got - ref).max() <= tolerance * np.abs(ref).max(), name


def _pattern_groups(operator) -> list[int]:
    sizes: dict[int, int] = {}
    for solver in operator._cpu_solvers.values():
        sizes[id(solver.symbolic)] = sizes.get(id(solver.symbolic), 0) + 1
    return sorted(sizes.values())


# --------------------------------------------------------------------- #
# Agreement with the oracle                                              #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("precision", PRECISION_NAMES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_stacked_consumers_match_the_per_subdomain_oracle(name, precision):
    operator = _preprocessed(build_problem(WORKLOADS[name]), precision)
    assert _pattern_groups(operator) == [operator.problem.n_subdomains]
    _assert_matches_oracle(operator, tolerance=WIDER_TOLERANCE.get((name, precision)))


def _distinct_patterns_problem() -> FetiProblem:
    """Four heat 3D subdomains whose ``K_reg`` patterns all differ.

    Subdomain ``i`` stores one explicit zero coupling ``(0, n − 1 − i)``: the
    values (and so the answers) are untouched, but the pattern cache sees a
    different shape per subdomain.
    """
    problem = FetiProblem.from_physics(
        HeatTransferProblem(), decompose_box(3, (2, 2, 1), 3, order=1)
    )
    for i, sub in enumerate(problem.subdomains):
        K = sub.K_reg.tocoo()
        j = K.shape[0] - 1 - i
        rows = np.concatenate([K.row, [0, j]])
        cols = np.concatenate([K.col, [j, 0]])
        vals = np.concatenate([K.data, [0.0, 0.0]])
        sub.K_reg = sp.coo_matrix((vals, (rows, cols)), shape=K.shape).tocsr()
        sub.K_reg.sum_duplicates()
    return problem


@pytest.mark.parametrize("precision", PRECISION_NAMES)
def test_stacks_of_one_are_bit_identical_to_the_oracle(precision):
    """A stack of one runs the single-factor kernels: the oracle's own bits."""
    operator = _preprocessed(_distinct_patterns_problem(), precision)
    assert _pattern_groups(operator) == [1, 1, 1, 1]
    _assert_matches_oracle(operator, exact=True)


def test_one_group_spans_subdomains_with_different_gluing():
    """Corner / edge / interior subdomains share ``K_reg``'s pattern only."""
    operator = _preprocessed(build_problem(WORKLOADS["heat2d-4x4x8"]))
    assert _pattern_groups(operator) == [16]
    assert len({sub.n_lambda for sub in operator.problem.subdomains}) >= 3
    _assert_matches_oracle(operator)


@pytest.mark.parametrize(
    "approach", [DualOperatorApproach.EXPLICIT_MKL, DualOperatorApproach.EXPLICIT_GPU_MODERN]
)
def test_explicit_backends_share_the_stacked_solve(approach):
    operator = _preprocessed(build_problem(WORKLOADS["heat2d-4x4x8"]), approach=approach)
    for name, got, ref in _stacked_and_looped(operator):
        tolerance = 1e-10 if name == "apply" else 1e-13  # apply: the assembled F̃
        assert np.abs(got - ref).max() <= tolerance * np.abs(ref).max(), name


# --------------------------------------------------------------------- #
# The stack itself                                                       #
# --------------------------------------------------------------------- #
def _factorized(n_solvers, scale=lambda i: 1.0 + 0.25 * i, **kwargs):
    K = fem_stiffness(HeatTransferProblem(), 2, 6)
    cache = PatternCache()
    solvers = [SparseSolver(pattern_cache=cache, **kwargs) for _ in range(n_solvers)]
    for i, solver in enumerate(solvers):
        solver.factorize(K * scale(i))
    return solvers, K.shape[0]


def test_stack_of_one_is_bit_identical_to_the_solver():
    (solver,), n = _factorized(1)
    b = np.random.default_rng(0).standard_normal((1, n))
    x = SolverStack([solver]).solve(b)
    assert np.array_equal(x[0], solver.solve(b[0]))


@pytest.mark.parametrize("precision", PRECISION_NAMES)
def test_stack_of_two_matches_the_solver(precision):
    solvers, n = _factorized(2, precision=precision)
    b = np.random.default_rng(1).standard_normal((2, n))
    reference = np.stack([s.solve(row) for s, row in zip(solvers, b)])
    x = SolverStack(solvers).solve(b)
    assert np.abs(x - reference).max() <= TOLERANCE[precision] * np.abs(reference).max()


#: ``(workload, precision)`` of the member-against-stack-of-one checks.
MEMBER_CASES = {
    "heat2d-8x8x8": (WORKLOADS["heat2d-8x8x8"], "fp64"),
    "heat3d-2x2x1x12": (WORKLOADS["heat3d-2x2x1x12"], "fp64"),
    "elasticity3d-3x3x3x4": (Workload("elasticity", 3, (3, 3, 3), 4), "fp64"),
    "heat3d-2x2x1x12-fp32": (WORKLOADS["heat3d-2x2x1x12"], "fp32"),
}


@pytest.mark.parametrize("name", MEMBER_CASES)
def test_a_member_of_the_stack_is_its_stack_of_one(name):
    """The block-diagonal band couples no two members.

    Every member solves as its own stack of one does (≤ 1e-15 relative:
    BLAS may block the two bands differently), and a changed right-hand
    side of one member leaves every other member's solution bitwise equal.
    """
    workload, precision = MEMBER_CASES[name]
    operator = _preprocessed(build_problem(workload), precision)
    operator.dual_rhs()  # builds the stacks
    ((dofs, stack),) = operator._kplus_stacks
    assert stack.band.dtype == operator.precision.storage_dtype
    k, n = dofs.shape
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((k, n))
    x = stack.solve(rhs)
    for i, sub in enumerate(operator.problem.subdomains):
        alone = operator._cpu_solvers[sub.index].solve(rhs[i])
        assert np.abs(x[i] - alone).max() <= 1e-15 * np.abs(alone).max(), i
    changed = rhs.copy()
    changed[k // 2] = rng.standard_normal(n)
    y = stack.solve(changed)
    others = np.arange(k) != k // 2
    assert np.array_equal(y[others], x[others])
    assert not np.array_equal(y[k // 2], x[k // 2])


def test_zero_right_hand_sides_stay_zero_under_refinement():
    solvers, n = _factorized(3, precision="fp32_ir")
    b = np.zeros((3, n))
    b[1] = 1.0
    x = SolverStack(solvers).solve(b)
    assert not x[0].any() and not x[2].any()
    assert np.allclose(x[1], solvers[1].solve(b[1]), rtol=1e-13, atol=0.0)


# --------------------------------------------------------------------- #
# L is never resident twice: the stacks adopt the factorization's bands  #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("precision", PRECISION_NAMES)
def test_stacking_repoints_the_factors_at_the_band(precision):
    solvers, n = _factorized(4, precision=precision)
    stack = SolverStack(solvers)
    dtype = np.dtype(np.float32 if precision != "fp64" else np.float64)
    assert stack.band.dtype == dtype
    for row, solver in zip(stack.band, solvers):
        factor = solver._factor
        assert np.shares_memory(row, factor.band)
    retained = sum(s.storage_nbytes() - factor_nbytes(s._factor) for s in solvers)
    assert sum(s.storage_nbytes() for s in solvers) == stack.band.nbytes + retained
    # Re-stacking the same factors (or a run of them) copies nothing.
    for again in (SolverStack(solvers), SolverStack(solvers[1:3])):
        assert np.shares_memory(again.band, stack.band)
    # A non-consecutive selection has to copy — and stays correct.
    picked = [solvers[2], solvers[0]]
    b = np.random.default_rng(2).standard_normal((2, n))
    reference = np.stack([s.solve(row) for s, row in zip(picked, b)])
    x = SolverStack(picked).solve(b)
    assert np.abs(x - reference).max() <= TOLERANCE[precision] * np.abs(reference).max()


def test_a_group_stack_takes_over_the_bands_of_stacks_of_one():
    """Members solved alone first hold their own bands; the group copies them.

    The copy re-points every member at its row and drops the members'
    stacks of one, so the old bands are not kept alive beside the new one.
    """
    solvers, n = _factorized(3)
    b = np.random.default_rng(4).standard_normal((3, n))
    alone = [solvers[0].solve(b[0]), solvers[2].solve(b[2])]
    old = solvers[0]._factor.band
    stack = SolverStack(solvers)
    assert not np.shares_memory(stack.band, old)
    assert all(s._stack is None for s in solvers)
    assert np.shares_memory(solvers[0]._stack_of_one().band, stack.band)
    x = stack.solve(b)
    assert np.abs(x[0] - alone[0]).max() <= 1e-15 * np.abs(alone[0]).max()
    assert np.abs(x[2] - alone[1]).max() <= 1e-15 * np.abs(alone[1]).max()


def test_bands_viewing_a_foreign_buffer_are_adopted_zero_copy():
    """Factors whose bands view a buffer no array owns are stacked zero-copy."""
    solvers, n = _factorized(3)
    SolverStack(solvers)
    rows = np.stack([s._factor.band for s in solvers])
    band = np.frombuffer(bytearray(rows.tobytes()), dtype=float).reshape(rows.shape)
    assert not band.flags.owndata
    for solver, row in zip(solvers, band):
        solver.adopt_factor(CholeskyFactor(solver.symbolic, row))
    stack = SolverStack(solvers)
    assert np.shares_memory(stack.band, band)
    b = np.random.default_rng(3).standard_normal((3, n))
    reference = np.stack([s.solve(row) for s, row in zip(solvers, b)])
    assert np.abs(stack.solve(b) - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("execution", ["serial", "threads:2"])
def test_after_the_first_solve_the_factor_bytes_are_the_bands(execution):
    """On every executor the factors are bands from the factorization on."""
    w = WORKLOADS["heat2d-4x4x8"]
    spec = SolverSpec(approach="impl mkl", execution=execution)
    with Session(spec, memory_budget="unlimited") as session:
        solution = session.solve(w)
        operator = session.solver(w).operator
        ((_, stack),) = operator._kplus_stacks
        assert operator.storage_nbytes()["factor"] == stack.band.nbytes
        operator.preprocess()  # before any solve of the round
        assert operator._kplus_stacks is None or not operator._kplus_stacks
        assert operator.storage_nbytes()["factor"] == stack.band.nbytes
        _assert_matches_oracle(operator)
        assert operator.storage_nbytes()["factor"] == stack.band.nbytes
    u_ref, _ = build_problem(w).saddle_point_solution()
    assert np.allclose(np.concatenate(solution.primal), u_ref, atol=1e-7)


def test_schur_assembly_reads_the_band_before_and_after_a_solve():
    (solver,), n = _factorized(1)
    B = sp.csr_matrix(([1.0, -1.0], ([0, 1], [0, n - 1])), shape=(2, n))
    before = solver.schur_complement(B)
    solver.solve(np.ones(n))
    assert np.array_equal(solver.schur_complement(B), before)
    solver.factorize(fem_stiffness(HeatTransferProblem(), 2, 6))
    assert np.array_equal(solver.schur_complement(B), before)


# --------------------------------------------------------------------- #
# Staleness: a stack never outlives the factors it was built from        #
# --------------------------------------------------------------------- #
def _fresh_problem() -> FetiProblem:
    """A private problem (the update callback below rescales its matrices)."""
    decomposition = decompose_box(2, (4, 4), 8, order=1, n_clusters=2)
    return FetiProblem.from_physics(HeatTransferProblem(), decomposition)


def _fresh_heat3d_problem() -> FetiProblem:
    """Four 125-DOF heat 3D subdomains."""
    decomposition = decompose_box(3, (2, 2, 1), 4, order=1)
    return FetiProblem.from_physics(HeatTransferProblem(), decomposition)


FRESH_PROBLEMS = {"heat2d-4x4x8": _fresh_problem, "heat3d-2x2x1x4": _fresh_heat3d_problem}
#: ``K`` and ``K_reg`` are multiplied by ``STEP_SCALES[s]`` before step ``s``.
STEP_SCALES = (4.0, 0.5, 3.0)


@pytest.mark.parametrize("name", FRESH_PROBLEMS)
@pytest.mark.parametrize("approach", ["impl mkl", "expl mkl"])
def test_stack_follows_a_rescaled_stiffness_across_steps(approach, name):
    problem = FRESH_PROBLEMS[name]()
    solver = FetiSolver(problem, SolverSpec(approach=approach))
    operator = solver.operator
    dual_rhs, stacks = [], []

    def check_step():
        """The step just solved, against the matrices it was solved with."""
        u_ref, _ = problem.saddle_point_solution()
        u = np.concatenate(driver.last_solution.primal)
        assert np.abs(u - u_ref).max() <= 1e-6 * np.abs(u_ref).max()
        _assert_matches_oracle(operator)
        dual_rhs.append(operator.dual_rhs())
        ((_, stack),) = operator._kplus_stacks
        assert all(stack is not old for old in stacks)
        assert all(not np.shares_memory(stack.band, old.band) for old in stacks)
        stacks.append(stack)
        # The band is this step's factors, nothing older.
        for row, sub in zip(stack.band, problem.subdomains):
            assert np.shares_memory(row, operator._cpu_solvers[sub.index]._factor.band)

    def update(step, problem):
        if step:
            check_step()
        for sub in problem.subdomains:
            sub.K = sub.K * STEP_SCALES[step]
            sub.K_reg = sub.K_reg * STEP_SCALES[step]

    driver = MultiStepDriver(solver, update)
    driver.run(len(STEP_SCALES))
    check_step()
    assert [r.preprocessed for r in driver.records] == [True] * len(STEP_SCALES)
    c = problem.c
    # K → s K  means  B K⁺ f → B K⁺ f / s: every step's own factors.
    for step in range(1, len(STEP_SCALES)):
        expected = (dual_rhs[step - 1] + c) / STEP_SCALES[step]
        assert np.allclose(dual_rhs[step] + c, expected, rtol=1e-12)


def test_band_is_built_once_per_pattern_group_per_preprocessing(monkeypatch):
    """One stacked factorization makes the band; nothing derives it again."""
    builds, derived = 0, 0
    factor, band_index = preprocess.stacked_cholesky, SymbolicFactor.band_index

    def counted(*args):
        nonlocal builds
        builds += 1
        return factor(*args)

    def counted_index(self):
        nonlocal derived
        derived += 1
        return band_index(self)

    monkeypatch.setattr(preprocess, "stacked_cholesky", counted)
    monkeypatch.setattr(SymbolicFactor, "band_index", counted_index)
    w = WORKLOADS["heat2d-4x4x8"]
    spec = SolverSpec(approach="impl mkl", execution="serial")  # one shard per cluster
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(w).converged
        operator = session.solver(w).operator
        groups = len({
            (sub.cluster, id(operator._cpu_solvers[sub.index].symbolic))
            for sub in operator.problem.subdomains
        })  # fmt: skip
        assert builds == groups == 2  # one pattern in each of two clusters
        for _ in range(3):
            assert session.solve(w).converged  # warm: no preprocessing
        assert builds == groups
        steps = 2
        session.run_steps(w, steps)  # load-only: the first step preprocesses
        assert builds == groups * 2
    assert derived == 0


def test_no_stack_without_a_factorization():
    operator = make_dual_operator(
        DualOperatorApproach.IMPLICIT_MKL, _fresh_problem(), pattern_cache=PatternCache()
    )
    operator.prepare()
    with pytest.raises(RuntimeError, match="run preprocess"):
        operator.dual_rhs()


def test_stack_survives_budget_pressure(monkeypatch):
    """``REPRO_MEMORY_BUDGET=1M``: entries are released between the solves."""
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1M")
    spec = SolverSpec(approach="impl mkl")
    workloads = [WORKLOADS["heat2d-4x4x8"], WORKLOADS["elasticity2d-4x4x8"]]
    with Session(spec) as session:
        for w in workloads * 2:
            solution = session.solve(w)
            assert solution.converged
            u_ref, _ = session.problem(w).saddle_point_solution()
            assert np.allclose(np.concatenate(solution.primal), u_ref, atol=1e-7)
            _assert_matches_oracle(session.solver(w).operator)
        assert session.cache_stats()["releases"] >= 1


# --------------------------------------------------------------------- #
# Budget: two BLAS calls per stack, whatever its size                    #
# --------------------------------------------------------------------- #
def _counted_sweep(stack: SolverStack, rhs: np.ndarray, monkeypatch) -> tuple[int, int]:
    """``(BLAS calls, interpreted line events in the kernel)`` of one sweep."""
    calls = 0
    dtbsv = triangular.dtbsv

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return dtbsv(*args, **kwargs)

    filename = triangular.__file__
    events = 0

    def local_trace(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return local_trace

    def global_trace(frame, event, arg):
        return local_trace if frame.f_code.co_filename == filename else None

    with monkeypatch.context() as patch:
        patch.setattr(triangular, "dtbsv", counted)
        previous = sys.gettrace()
        sys.settrace(global_trace)
        try:
            stack._sweep(rhs)
        finally:
            sys.settrace(previous)
    return calls, events


def test_a_sweep_is_two_blas_calls_whatever_the_stack(monkeypatch):
    counts = {}
    for k in (1, 16, 64):
        solvers, n = _factorized(k, scale=lambda i: 1.0 + 0.01 * i)
        counts[k] = _counted_sweep(SolverStack(solvers), np.ones((k, n)), monkeypatch)
    assert counts[1] == counts[16] == counts[64]
    calls, events = counts[64]
    assert calls == 2
    # 11 interpreted lines (measured): no loop over members or supernodes.
    assert 0 < events <= 11
