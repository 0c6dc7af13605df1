"""The stacked ``K⁺`` solve against the per-subdomain oracle.

``PatternGroup.solve`` (sparse layer: one block-diagonal band per pattern
group, two BLAS calls per solve) and the operator methods built on it
(``dual_rhs``, ``primal_solution``, ``apply_accurate``, the implicit CPU
apply) must reproduce ``tests/oracles/kplus.py`` — two
``spsolve_triangular`` sweeps on each member's CSC factor and one
``scipy.sparse`` product per subdomain — on the *current* numeric factors,
under every precision policy, keep every member independent of the others,
and hold ``L`` once: as the band the factorization produced.
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
from repro.memory.precision import PRECISION_NAMES, PRECISIONS, demote_array
from repro.runtime.executor import shared_executor
from repro.sparse import triangular
from repro.sparse.cache import PatternCache
from repro.sparse.group import PatternGroup
from repro.sparse.numeric import (
    numeric_cholesky,
    rows_as_stack,
    stacked_cholesky,
    stacked_values,
)
from repro.sparse.solvers import SparseSolver
from repro.sparse.symbolic import SymbolicFactor
from repro.sparse.triangular import solve_banded

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

#: Largest relative difference to the oracle under every precision policy:
#: the band and the oracle's sparse triangular sweeps sum in other orders.
TOLERANCE = 1e-13


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


def _assert_matches_oracle(operator, exact=False):
    for name, got, ref in _stacked_and_looped(operator):
        if exact:
            assert np.array_equal(got, ref), name
        else:
            assert np.abs(got - ref).max() <= TOLERANCE * np.abs(ref).max(), name


def _pattern_groups(operator) -> list[int]:
    return sorted(len(group) for group in operator._groups)


# --------------------------------------------------------------------- #
# Agreement with the oracle                                              #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("precision", PRECISION_NAMES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_stacked_consumers_match_the_per_subdomain_oracle(name, precision):
    operator = _preprocessed(build_problem(WORKLOADS[name]), precision)
    assert _pattern_groups(operator) == [operator.problem.n_subdomains]
    _assert_matches_oracle(operator)


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
def test_groups_of_one_are_bit_identical_to_the_single_matrix_solver(precision):
    """A group of one runs the single-matrix facade's kernels: its own bits."""
    operator = _preprocessed(_distinct_patterns_problem(), precision)
    assert _pattern_groups(operator) == [1, 1, 1, 1]
    _assert_matches_oracle(operator)
    rhs = np.random.default_rng(8).standard_normal(sum(s.ndofs for s in operator.problem.subdomains))
    x = operator._kplus(rhs)
    for group in operator._groups:
        (index,), (dofs,) = group.members, group.dofs
        alone = SparseSolver(pattern_cache=False, precision=precision)
        alone.factorize(operator.problem.subdomains[index].K_reg)
        assert np.array_equal(group.band[0], alone._factor.band)
        assert np.array_equal(x[dofs], alone.solve(rhs[dofs]))


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
# The group itself                                                       #
# --------------------------------------------------------------------- #
def _group(k, scale=lambda i: 1.0 + 0.25 * i, precision="fp64"):
    """A factorized group of ``k`` scaled copies of one matrix, and their
    single-matrix solvers."""
    K = fem_stiffness(HeatTransferProblem(), 2, 6)
    cache = PatternCache()
    matrices = [(K * scale(i)).tocsr() for i in range(k)]
    solvers = [SparseSolver(pattern_cache=cache, precision=precision) for _ in range(k)]
    for solver, A in zip(solvers, matrices):
        solver.factorize(A)
    symbolic = solvers[0].symbolic
    n = symbolic.n
    group = PatternGroup(symbolic, range(k), np.arange(k * n).reshape(k, n))
    dtype = PRECISIONS[precision].storage_dtype
    group.band = demote_array(stacked_cholesky(stacked_values(matrices, symbolic), symbolic), dtype)
    return group, solvers


def _solve(group, rhs):
    """The group's solve of ``(k, n)`` right-hand sides."""
    out = np.empty(rhs.size)
    group.solve(rhs.reshape(-1), out)
    return out.reshape(rhs.shape)


def test_group_of_one_is_bit_identical_to_the_solver():
    group, (solver,) = _group(1)
    b = np.random.default_rng(0).standard_normal((1, group.symbolic.n))
    assert np.array_equal(_solve(group, b)[0], solver.solve(b[0]))


@pytest.mark.parametrize("precision", PRECISION_NAMES)
def test_group_of_two_matches_the_solver(precision):
    group, solvers = _group(2, precision=precision)
    assert group.band.dtype == PRECISIONS[precision].storage_dtype
    b = np.random.default_rng(1).standard_normal((2, group.symbolic.n))
    reference = np.stack([s.solve(row) for s, row in zip(solvers, b)])
    x = _solve(group, b)
    assert np.abs(x - reference).max() <= TOLERANCE * np.abs(reference).max()


@pytest.mark.parametrize("precision", PRECISION_NAMES)
def test_zero_right_hand_sides_stay_zero(precision):
    """A zero member right-hand side solves to exact zeros beside nonzero ones."""
    group, solvers = _group(3, precision=precision)
    n = group.symbolic.n
    assert not _solve(group, np.zeros((3, n))).any()
    b = np.zeros((3, n))
    b[1] = np.random.default_rng(6).standard_normal(n)
    x = _solve(group, b)
    assert not x[0].any() and not x[2].any()
    reference = solvers[1].solve(b[1])
    assert np.abs(x[1] - reference).max() <= TOLERANCE * np.abs(reference).max()


def test_a_released_group_holds_no_band_and_refuses_to_solve():
    group, _ = _group(2)
    assert group.storage_nbytes() == group.band.nbytes > 0
    group.release()
    assert group.band is None and group.storage_nbytes() == 0
    with pytest.raises(RuntimeError, match="preprocessing"):
        _solve(group, np.ones((2, group.symbolic.n)))


#: ``(workload, precision)`` of the member-against-stack-of-one checks.
MEMBER_CASES = {
    "heat2d-8x8x8": (WORKLOADS["heat2d-8x8x8"], "fp64"),
    "heat3d-2x2x1x12": (WORKLOADS["heat3d-2x2x1x12"], "fp64"),
    "elasticity3d-3x3x3x4": (Workload("elasticity", 3, (3, 3, 3), 4), "fp64"),
    "heat3d-2x2x1x12-fp32": (WORKLOADS["heat3d-2x2x1x12"], "fp32"),
}


@pytest.mark.parametrize("name", MEMBER_CASES)
def test_a_member_of_the_group_is_its_stack_of_one(name):
    """The block-diagonal band couples no two members.

    Every member solves as its row of the band does alone (≤ 1e-15
    relative: BLAS may block the two bands differently), and a changed
    right-hand side of one member leaves every other member's solution
    bitwise equal.
    """
    workload, precision = MEMBER_CASES[name]
    operator = _preprocessed(build_problem(workload), precision)
    (group,) = operator._groups
    assert group.band.dtype == operator.precision.storage_dtype
    k, n = group.dofs.shape
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((k, n))
    x = _solve(group, rhs)
    perm = group.symbolic.perm
    for i in range(k):
        alone = solve_banded(perm, group.band[i : i + 1], rhs[i : i + 1])[0]
        assert np.abs(x[i] - alone).max() <= 1e-15 * np.abs(alone).max(), i
    changed = rhs.copy()
    changed[k // 2] = rng.standard_normal(n)
    y = _solve(group, changed)
    others = np.arange(k) != k // 2
    assert np.array_equal(y[others], x[others])
    assert not np.array_equal(y[k // 2], x[k // 2])


# --------------------------------------------------------------------- #
# L is never resident twice: the group holds the factorization's band    #
# --------------------------------------------------------------------- #
def test_rows_viewing_one_buffer_are_read_zero_copy():
    """Consecutive rows of one buffer, even one no array owns, are one stack.

    Any other selection is not (``None``): its caller has to copy.
    """
    group, _ = _group(3)
    band = np.frombuffer(bytearray(group.band.tobytes()), dtype=float).reshape(group.band.shape)
    assert not band.flags.owndata
    for rows in (list(band), list(band[1:3]), [band[2]]):
        stack = rows_as_stack(rows)
        assert np.shares_memory(stack, band) and np.array_equal(stack, np.stack(rows))
    assert rows_as_stack([band[2], band[0]]) is None
    assert rows_as_stack([band[0], group.band[1]]) is None


@pytest.mark.parametrize("execution", ["serial", "threads:2"])
def test_after_the_first_solve_the_factor_bytes_are_the_bands(execution):
    """On every executor the factors are bands from the factorization on."""
    w = WORKLOADS["heat2d-4x4x8"]
    spec = SolverSpec(approach="impl mkl", execution=execution)
    with Session(spec, memory_budget="unlimited") as session:
        solution = session.solve(w)
        operator = session.solver(w).operator
        (group,) = operator._groups
        nbytes = group.band.nbytes
        assert operator.storage_nbytes()["factor"] == nbytes
        operator.preprocess()  # before any solve of the round
        assert operator.storage_nbytes()["factor"] == group.band.nbytes == nbytes
        _assert_matches_oracle(operator)
        assert operator.storage_nbytes()["factor"] == group.band.nbytes == nbytes
    u_ref, _ = build_problem(w).saddle_point_solution()
    assert np.allclose(np.concatenate(solution.primal), u_ref, atol=1e-7)


def test_schur_assembly_reads_the_band_before_and_after_a_solve():
    _, (solver,) = _group(1)
    n = solver.symbolic.n
    B = sp.csr_matrix(([1.0, -1.0], ([0, 1], [0, n - 1])), shape=(2, n))
    before = solver.schur_complement(B)
    solver.solve(np.ones(n))
    assert np.array_equal(solver.schur_complement(B), before)
    solver.factorize(fem_stiffness(HeatTransferProblem(), 2, 6))
    assert np.array_equal(solver.schur_complement(B), before)


# --------------------------------------------------------------------- #
# Staleness: a solve never reads the factors of an earlier round         #
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
    dual_rhs, bands = [], []

    def check_step():
        """The step just solved, against the matrices it was solved with."""
        u_ref, _ = problem.saddle_point_solution()
        u = np.concatenate(driver.last_solution.primal)
        assert np.abs(u - u_ref).max() <= 1e-6 * np.abs(u_ref).max()
        _assert_matches_oracle(operator)
        dual_rhs.append(operator.dual_rhs())
        (group,) = operator._groups
        assert all(not np.shares_memory(group.band, old) for old in bands)
        bands.append(group.band)
        # The band is this step's factors, nothing older.
        for row, sub in zip(group.band, problem.subdomains):
            assert np.array_equal(row, numeric_cholesky(sub.K_reg, group.symbolic).band)

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
    spec = SolverSpec(approach="impl mkl", execution="serial")  # one task over every group
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(w).converged
        operator = session.solver(w).operator
        groups = len(operator._groups)
        assert builds == groups == 1  # one pattern across both clusters
        for _ in range(3):
            assert session.solve(w).converged  # warm: no preprocessing
        assert builds == groups
        steps = 2
        session.run_steps(w, steps)  # load-only: the first step preprocesses
        assert builds == groups * 2
    assert derived == 0


@pytest.mark.parametrize("name", ["heat2d-8x8x8", "heat2d-4x4x8"])
def test_a_serial_round_stacks_a_group_across_clusters_zero_copy(monkeypatch, name):
    """A serial round's group keeps the one band its factorization returned.

    The round factors every cluster's members of a pattern group in one
    stack, and the ``K⁺`` solves read that band as it is.
    """
    returned = []
    factor = preprocess.stacked_cholesky

    def recorded(*args, **kwargs):
        returned.append(factor(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(preprocess, "stacked_cholesky", recorded)
    operator = make_dual_operator(
        DualOperatorApproach.IMPLICIT_MKL,
        build_problem(WORKLOADS[name]),
        pattern_cache=PatternCache(),
        executor=shared_executor("serial"),
    )
    operator.preprocess()
    assert len({sub.cluster for sub in operator.problem.subdomains}) > 1
    (group,) = operator._groups
    (band,) = returned
    assert group.band is band and len(group) == operator.problem.n_subdomains
    operator.dual_rhs()
    assert group.band is band


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
# Budget: two BLAS calls per group, whatever its size                    #
# --------------------------------------------------------------------- #
def _counted_sweep(group: PatternGroup, rhs: np.ndarray, monkeypatch) -> tuple[int, int]:
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
            _solve(group, rhs)
        finally:
            sys.settrace(previous)
    return calls, events


def test_a_sweep_is_two_blas_calls_whatever_the_stack(monkeypatch):
    counts = {}
    for k in (1, 16, 64):
        group, _ = _group(k, scale=lambda i: 1.0 + 0.01 * i)
        counts[k] = _counted_sweep(group, np.ones((k, group.symbolic.n)), monkeypatch)
    assert counts[1] == counts[16] == counts[64]
    calls, events = counts[64]
    assert calls == 2
    # 11 interpreted lines (measured): no loop over members or supernodes.
    assert 0 < events <= 11
