"""The stacked ``K⁺`` solve against the per-subdomain oracle.

``solve_stacked`` / ``SolverStack`` (sparse layer) and the operator methods
built on them (``dual_rhs``, ``primal_solution``, ``apply_accurate``, the
implicit CPU apply) must reproduce ``tests/oracles/kplus.py`` — one
``SparseSolverBase.solve`` and one ``scipy.sparse`` product per subdomain — on
the *current* numeric factors, under every precision policy, and spend
interpreted steps per supernode, not per subdomain.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.decomposition import decompose_box
from repro.fem.heat import HeatTransferProblem
from repro.feti.config import DualOperatorApproach
from repro.feti.operators import make_dual_operator
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolver, MultiStepDriver
from repro.memory.precision import PRECISION_NAMES
from repro.runtime.kernels import factor_from_panels
from repro.sparse import triangular
from repro.sparse.cache import PatternCache
from repro.sparse.solvers import CholmodLikeSolver, PardisoLikeSolver, SolverStack
from repro.sparse.triangular import solve_stacked, stacked_diagonal_inverses

from tests.conftest import fem_stiffness
from tests.oracles.kplus import (
    looped_apply_accurate,
    looped_dual_rhs,
    looped_primal_solution,
)

#: The workloads of ISSUE 23's kernel table; the last has four ``K_reg``
#: patterns, so every group there is a stack of one.
WORKLOADS = {
    "heat2d-8x8x8": Workload("heat", 2, (8, 8), 8, n_clusters=4),
    "heat2d-4x4x8": Workload("heat", 2, (4, 4), 8, n_clusters=2),
    "heat2d-4x4x32": Workload("heat", 2, (4, 4), 32),
    "elasticity2d-4x4x8": Workload("elasticity", 2, (4, 4), 8),
    "elasticity3d-2x2x2x4": Workload("elasticity", 3, (2, 2, 2), 4),
    "heat3d-2x2x1x12": Workload("heat", 3, (2, 2, 1), 12),
}
GROUPS_OF_ONE = "heat3d-2x2x1x12"

#: Largest relative difference to the oracle.  Without refinement the two
#: paths do the same arithmetic up to the diagonal-block step (measured 2e-16
#: … 2e-15).  Refined solves end at their own fp64 floor ``eps · cond(K)``:
#: the residual ``b − K x`` is a cancellation, so a last-bit difference in
#: ``x`` comes back as ``eps · cond(K)`` in the correction (measured ≤ 2e-12).
TOLERANCE = {"fp64": 1e-13, "fp32": 1e-13, "fp32_ir": 1e-11}


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
    tolerance = TOLERANCE[operator.precision.name]
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
    groups = _pattern_groups(operator)
    if name == GROUPS_OF_ONE:
        # A stack of one runs the single-factor kernels: same bits.
        assert groups == [1, 1, 1, 1]
        _assert_matches_oracle(operator, exact=True)
    else:
        assert groups == [operator.problem.n_subdomains]
        _assert_matches_oracle(operator)


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
# The kernel itself: k = 0, 1, 2                                         #
# --------------------------------------------------------------------- #
def _factorized(n_solvers, scale=lambda i: 1.0 + 0.25 * i, cls=PardisoLikeSolver, **kwargs):
    K = fem_stiffness(HeatTransferProblem(), 2, 6)
    cache = PatternCache()
    solvers = [cls(pattern_cache=cache, **kwargs) for _ in range(n_solvers)]
    for i, solver in enumerate(solvers):
        solver.factorize(K * scale(i))
    return solvers, K.shape[0]


def test_stack_of_one_is_bit_identical_to_the_facade():
    (solver,), n = _factorized(1)
    b = np.random.default_rng(0).standard_normal((1, n))
    x = SolverStack([solver]).solve(b)
    assert np.array_equal(x[0], solver.solve(b[0]))


@pytest.mark.parametrize("precision", PRECISION_NAMES)
def test_stack_of_two_matches_the_facade(precision):
    solvers, n = _factorized(2, cls=CholmodLikeSolver, precision=precision)
    b = np.random.default_rng(1).standard_normal((2, n))
    reference = np.stack([s.solve(row) for s, row in zip(solvers, b)])
    x = SolverStack(solvers).solve(b)
    assert np.abs(x - reference).max() <= TOLERANCE[precision] * np.abs(reference).max()
    # The kernel alone, without the cached inverses, agrees too.
    stack = SolverStack(solvers)
    raw = solve_stacked(stack.symbolic, stack.panels, b)
    assert np.array_equal(raw, solve_stacked(stack.symbolic, stack.panels, b, stack.inverses))


def test_empty_stack_solves_to_an_empty_result():
    (solver,), n = _factorized(1)
    symbolic = solver.symbolic
    panels = np.zeros((0, symbolic.supernodes.panel_entries))
    assert solve_stacked(symbolic, panels, np.zeros((0, n))).shape == (0, n)
    assert stacked_diagonal_inverses(symbolic, panels)[0].shape[0] == 0


def test_zero_right_hand_sides_stay_zero_under_refinement():
    solvers, n = _factorized(3, precision="fp32_ir")
    b = np.zeros((3, n))
    b[1] = 1.0
    x = SolverStack(solvers).solve(b)
    assert not x[0].any() and not x[2].any()
    assert np.allclose(x[1], solvers[1].solve(b[1]), rtol=1e-13, atol=0.0)


# --------------------------------------------------------------------- #
# The panels are never resident twice                                    #
# --------------------------------------------------------------------- #
def test_stacking_repoints_the_factors_at_the_stack():
    solvers, _ = _factorized(4)
    before = sum(s.storage_nbytes() for s in solvers)
    stack = SolverStack(solvers)
    for row, solver in zip(stack.panels, solvers):
        assert np.shares_memory(row, solver._factor.panel_values())
    assert sum(s.storage_nbytes() for s in solvers) == before
    # Re-stacking the same factors (or a run of them) copies nothing.
    assert np.shares_memory(SolverStack(solvers).panels, stack.panels)
    assert np.shares_memory(SolverStack(solvers[1:3]).panels, stack.panels[1:3])
    # A non-consecutive selection has to copy — and stays correct.
    picked = [solvers[2], solvers[0]]
    b = np.random.default_rng(2).standard_normal((2, stack.symbolic.n))
    reference = np.stack([s.solve(row) for s, row in zip(picked, b)])
    x = SolverStack(picked).solve(b)
    assert np.abs(x - reference).max() <= 1e-13 * np.abs(reference).max()


def test_panels_viewing_a_foreign_buffer_are_adopted_zero_copy():
    """The process backend's factors: rows of a view of a shared-memory buffer."""
    solvers, n = _factorized(3)
    panels = np.stack([s._factor.panel_values() for s in solvers])
    arena = np.frombuffer(bytearray(panels.tobytes()), dtype=float).reshape(panels.shape)
    assert not arena.flags.owndata
    for solver, row in zip(solvers, arena):
        solver.adopt_factor(factor_from_panels(solver.symbolic, row))
    stack = SolverStack(solvers)
    assert np.shares_memory(stack.panels, arena)
    b = np.random.default_rng(3).standard_normal((3, n))
    reference = np.stack([s.solve(row) for s, row in zip(solvers, b)])
    assert np.abs(stack.solve(b) - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("execution", ["threads:2", "processes:2"])
def test_sharded_preprocessing_hands_over_its_panel_stacks(execution):
    """A shard's batched panels are adopted as views, whatever backs them."""
    w = WORKLOADS["heat2d-4x4x8"]
    spec = SolverSpec(approach="impl mkl", execution=execution)
    with Session(spec, memory_budget="unlimited") as session:
        solution = session.solve(w)
        operator = session.solver(w).operator
        factor_bytes = operator.storage_nbytes()["factor"]
        _assert_matches_oracle(operator)
        assert operator.storage_nbytes()["factor"] == factor_bytes
    u_ref, _ = build_problem(w).saddle_point_solution()
    assert np.allclose(np.concatenate(solution.primal), u_ref, atol=1e-7)


# --------------------------------------------------------------------- #
# Staleness: a stack never outlives the factors it was built from        #
# --------------------------------------------------------------------- #
def _fresh_problem() -> FetiProblem:
    """A private problem (the update callback below rescales its matrices)."""
    decomposition = decompose_box(2, (4, 4), 8, order=1, n_clusters=2)
    return FetiProblem.from_physics(HeatTransferProblem(), decomposition)


@pytest.mark.parametrize("approach", ["impl mkl", "expl mkl"])
def test_stack_follows_a_rescaled_stiffness_across_steps(approach):
    solver = FetiSolver(_fresh_problem(), SolverSpec(approach=approach))
    operator = solver.operator
    scale = 4.0

    def update(step, problem):
        if step == 1:
            for sub in problem.subdomains:
                sub.K = sub.K * scale
                sub.K_reg = sub.K_reg * scale

    driver = MultiStepDriver(solver, update)
    driver.run(1)
    d_before = operator.dual_rhs()
    driver = MultiStepDriver(solver, update)
    driver.run(2)
    c = operator.problem.c
    # K → 4 K  means  B K⁺ f → B K⁺ f / 4: the second step's factors.
    assert np.allclose(operator.dual_rhs() + c, (d_before + c) / scale, rtol=1e-12)
    _assert_matches_oracle(operator)


def test_no_stack_without_a_factorization():
    operator = make_dual_operator(
        DualOperatorApproach.IMPLICIT_MKL, _fresh_problem(), pattern_cache=PatternCache()
    )
    operator.prepare()
    with pytest.raises(RuntimeError, match="run preprocess"):
        operator.dual_rhs()


def test_stack_is_dropped_by_demote_storage():
    operator = _preprocessed(_fresh_problem())
    d64 = operator.dual_rhs()
    operator.demote_storage()
    d32 = operator.dual_rhs()
    assert operator._cpu_solvers[0]._factor.panel_values().dtype == np.float32
    assert 1e-9 < np.abs(d32 - d64).max() / np.abs(d64).max() < 1e-5
    _assert_matches_oracle(operator)


def test_stack_survives_budget_pressure(monkeypatch):
    """``REPRO_MEMORY_BUDGET=1M``: entries are demoted between the solves."""
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
        assert session.cache_stats()["demotions"] + session.cache_stats()["evictions"] >= 1


# --------------------------------------------------------------------- #
# Budget: interpreted steps per supernode, none per stacked factor       #
# --------------------------------------------------------------------- #
def _line_events_in_solve_stacked(stack: SolverStack, rhs: np.ndarray) -> int:
    filename = triangular.__file__
    count = 0

    def local_trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local_trace

    def global_trace(frame, event, arg):
        return local_trace if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        solve_stacked(stack.symbolic, stack.panels, rhs, stack.inverses)
    finally:
        sys.settrace(previous)
    return count


def test_interpreted_steps_scale_with_supernodes_not_with_the_stack():
    events = {}
    for k in (16, 64):
        solvers, n = _factorized(k, scale=lambda i: 1.0 + 0.01 * i)
        stack = SolverStack(solvers)
        events[k] = _line_events_in_solve_stacked(stack, np.ones((k, n)))
        n_supernodes = stack.symbolic.supernodes.n_supernodes
    assert events[16] == events[64] > 0
    assert events[64] <= 20 * n_supernodes + 20
