"""Tests of the dual preconditioners."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session, SolverSpec, SpecError, Workload
from repro.api.workload import build_problem
from repro.decomposition import decompose_box
from repro.fem.assembly import CsrStack
from repro.feti.config import DualOperatorApproach
from repro.feti.operators.batch import SYMV_MIN_ROWS
from repro.feti.preconditioner import (
    DirichletPreconditioner,
    IdentityPreconditioner,
    LumpedPreconditioner,
    _paired_squares,
)
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolver, MultiStepDriver, PreconditionerKind, StepValues
from repro.serve.protocol import ProtocolError, parse_solve_request
from tests.oracles.preconditioner import (
    dense_B,
    dirichlet_apply,
    dirichlet_blocks,
    lumped_apply,
    scaled_gluing,
)


def lumped(problem: FetiProblem) -> LumpedPreconditioner:
    return LumpedPreconditioner(problem)


def dirichlet(problem: FetiProblem, approach: str = "expl mkl") -> DirichletPreconditioner:
    """The Dirichlet preconditioner of a solver of ``problem`` (the solver
    preprocesses its dual operator, whose ``X`` the ``Sᵢ`` are built from)."""
    solver = FetiSolver(problem, SolverSpec(approach=approach, preconditioner="dirichlet"))
    return solver.preconditioner


BUILDERS = [lumped, dirichlet]
BUILDER_IDS = ["LumpedPreconditioner", "DirichletPreconditioner"]
KINDS = [(lumped, lumped_apply), (dirichlet, dirichlet_apply)]
KIND_IDS = [f"{name}-{oracle.__name__}" for name, (_, oracle) in zip(BUILDER_IDS, KINDS)]
#: Realistic sizes (the benchmark's problems), not only the 2x2 fixture.
ORACLE_WORKLOADS = [
    Workload("heat", 2, (8, 8), 8, n_clusters=4),
    Workload("heat", 3, (2, 2, 1), 12),
    Workload("elasticity", 2, (4, 4), 4),
]


def test_identity_returns_input(heat_problem_2d):
    pre = IdentityPreconditioner(heat_problem_2d)
    x = np.arange(heat_problem_2d.n_lambda, dtype=float)
    assert pre.apply(x) is x


@pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
def test_preconditioner_is_symmetric_positive_semidefinite(heat_problem_2d, build):
    pre = build(heat_problem_2d)
    n = heat_problem_2d.n_lambda
    rng = np.random.default_rng(0)
    # build the dense operator by applying to basis vectors
    M = np.column_stack([pre.apply(np.eye(n)[:, j]) for j in range(n)])
    assert np.allclose(M, M.T, atol=1e-9)
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -1e-9
    x = rng.standard_normal(n)
    assert x @ pre.apply(x) >= -1e-9


@pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
def test_preconditioner_linear(heat_problem_2d, build):
    pre = build(heat_problem_2d)
    rng = np.random.default_rng(1)
    n = heat_problem_2d.n_lambda
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(pre.apply(2.0 * x + y), 2.0 * pre.apply(x) + pre.apply(y))


@pytest.mark.parametrize(
    "kind",
    [PreconditionerKind.NONE, PreconditionerKind.LUMPED, PreconditionerKind.DIRICHLET],
)
def test_all_preconditioners_converge_to_same_solution(heat_problem_2d, kind):
    reference = None
    options = SolverSpec(
        approach="expl mkl", preconditioner=kind, tolerance=1e-10, max_iterations=300
    )
    solver = FetiSolver(heat_problem_2d, options)
    solution = solver.solve()
    assert solution.converged
    u = np.concatenate(solution.primal)
    u_ref, _ = heat_problem_2d.saddle_point_solution()
    assert np.allclose(u, u_ref, atol=1e-7)


def test_preconditioning_reduces_iterations(elasticity_problem_2d):
    """Strictly: lumped beats none, dirichlet is no worse than lumped."""
    def run(kind):
        opts = SolverSpec(
            approach="expl mkl", preconditioner=kind, tolerance=1e-8, max_iterations=400
        )
        return FetiSolver(elasticity_problem_2d, opts).solve().iterations

    none, lumped, dirichlet = (run(kind) for kind in PreconditionerKind)
    assert lumped < none
    assert dirichlet <= lumped


@pytest.mark.parametrize("workload", ORACLE_WORKLOADS, ids=Workload.describe)
@pytest.mark.parametrize("build, oracle", KINDS, ids=KIND_IDS)
def test_assembled_matches_per_subdomain_oracle(workload, build, oracle):
    """Lumped to 1e-13; Dirichlet to 1e-10, since its ``Sᵢ`` is the inverse
    of an ``X`` that went through the factorization (measured 5.9e-12 on
    heat 3D, 1.6e-14 on heat 2D)."""
    problem = build_problem(workload)
    pre = build(problem)
    x = np.random.default_rng(2).standard_normal(problem.n_lambda)
    expected = oracle(problem, x)
    assert pre.matrix.shape == (problem.n_lambda, problem.n_lambda)
    tolerance = 1e-13 if build is lumped else 1e-10
    assert np.linalg.norm(pre.apply(x) - expected) <= tolerance * np.linalg.norm(expected)


#: Heat and elasticity, 2D and 3D, P1 and P2; every one has cross-point
#: subdomains (more rows of ``B̃ᵢ`` than constrained DOFs ``|bᵢ|``), and
#: heat 3D ``(3,3,3)x4`` has ``Sᵢ`` on both sides of ``SYMV_MIN_ROWS``.
ZOO = [
    Workload("heat", 2, (4, 4), 8, n_clusters=2),
    Workload("heat", 2, (2, 2), 4, order=2),
    Workload("heat", 3, (3, 3, 3), 4),
    Workload("heat", 3, (2, 2, 1), 3, order=2),
    Workload("elasticity", 2, (3, 3), 4, order=2),
    Workload("elasticity", 3, (2, 2, 2), 3),
]


@pytest.mark.parametrize(
    "approach", [a.value for a in DualOperatorApproach if a.is_explicit]
)
@pytest.mark.parametrize("workload", ZOO, ids=Workload.describe)
def test_dirichlet_blocks_match_the_splu_oracle(workload, approach):
    """``Sᵢ`` from the dual operator's ``X``, a gather of ``F̃ᵢ``, is the
    ``splu`` Schur complement of ``Kᵢ`` whichever explicit approach
    assembled ``F̃ᵢ``."""
    problem = build_problem(workload)
    expected = dirichlet_blocks(problem)
    got = dirichlet(problem, approach).local_S
    assert got.keys() == expected.keys()
    for i, (boundary, S) in expected.items():
        assert np.array_equal(got[i][0], boundary)
        assert np.linalg.norm(got[i][1] - S) <= 1e-10 * np.linalg.norm(S), i
    cross_points = [sub.n_lambda > expected[sub.index][0].size for sub in problem.subdomains]
    assert any(cross_points)


def test_a_large_block_with_no_partner_matches_the_oracle():
    """Heat 3D ``(2,1,1)x8``: one ``Sᵢ`` of ``SYMV_MIN_ROWS`` rows or more,
    the only one of its side, in a square of its own."""
    problem = build_problem(Workload("heat", 3, (2, 1, 1), 8))
    pre = dirichlet(problem)
    assert [lower for _, _, lower in pre._large_rows] == [True]
    for i, (boundary, S) in dirichlet_blocks(problem).items():
        assert np.array_equal(pre.local_S[i][0], boundary)
        assert np.linalg.norm(pre.local_S[i][1] - S) <= 1e-10 * np.linalg.norm(S), i
    x = np.random.default_rng(5).standard_normal(problem.n_lambda)
    expected = dirichlet_apply(problem, x)
    assert np.linalg.norm(pre.apply(x) - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("workload", ZOO, ids=Workload.describe)
def test_dirichlet_takes_no_more_iterations_than_lumped(workload):
    with Session(SolverSpec(approach="expl mkl")) as session:
        dirichlet_solution = session.solve(workload)
        lumped_solution = session.solve(workload, SolverSpec(approach="expl mkl", preconditioner="lumped"))
    assert dirichlet_solution.converged and lumped_solution.converged
    assert dirichlet_solution.iterations <= lumped_solution.iterations


def test_fp32_dirichlet_blocks_come_from_the_fp32_operator():
    """Under ``fp32`` the ``X`` are gathered from the fp32-stored ``F̃ᵢ`` (both
    sides of ``SYMV_MIN_ROWS``) and the solve takes fp64's iterations."""
    workload = Workload("heat", 3, (3, 3, 3), 4)
    solutions = {}
    for precision in ("fp64", "fp32"):
        with Session(SolverSpec(approach="expl mkl", precision=precision)) as session:
            solutions[precision] = session.solve(workload)
            pre = session.solver(workload).preconditioner
            assert pre.operator.precision.storage_dtype == np.dtype(precision.replace("fp", "float"))
            assert pre._squares and pre._stacks
    assert solutions["fp32"].converged
    assert solutions["fp32"].iterations == solutions["fp64"].iterations


def test_dirichlet_refresh_factorizes_no_subdomain(monkeypatch):
    """A refresh is a gather and a dense inverse per block: one batched
    Cholesky per group of equal ``|bᵢ|`` below ``SYMV_MIN_ROWS``, one
    ``dpotrf`` per larger block, no sparse factorization and no ``Kᵢ``."""
    import scipy.sparse.linalg as spla

    import repro.feti.preconditioner as module

    problem = build_problem(Workload("heat", 3, (3, 3, 3), 4))
    pre = dirichlet(problem)
    sizes = [b.size for b, _ in pre.local_S.values()]
    calls: list[tuple] = []

    def counted(name, function):
        def call(X, *args, **kwargs):
            calls.append((name, X.shape))
            return function(X, *args, **kwargs)

        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("a sparse factorization in the Dirichlet refresh")

    def forbidden_K(*args, **kwargs):
        raise AssertionError("a Kᵢ built in the Dirichlet refresh")

    for name in ("splu", "spilu", "factorized"):
        monkeypatch.setattr(spla, name, forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(module, "dpotrf", counted("dpotrf", module.dpotrf))
    monkeypatch.setattr(CsrStack, "member", forbidden_K)
    pre.refresh()
    stacks = [shape for name, shape in calls if name == "cholesky" and len(shape) == 3]
    assert sorted(shape[-1] for shape in stacks) == sorted({m for m in sizes if m < SYMV_MIN_ROWS})
    assert sum(shape[0] for shape in stacks) == sum(m < SYMV_MIN_ROWS for m in sizes)
    large = sorted(shape[0] for name, shape in calls if name == "dpotrf")
    assert large == sorted(m for m in sizes if m >= SYMV_MIN_ROWS)
    # The rest are the kernel terms' ``R_bᵀ T`` (1 x 1 for heat) of the
    # large blocks.
    assert all(shape == (1, 1) for name, shape in calls if name == "cholesky" and len(shape) != 3)


def test_solver_releases_the_blocks_before_it_preprocesses():
    """The old ``Sᵢ`` never coexist with the Schur assembly's workspace."""
    problem = build_problem(Workload("heat", 3, (2, 2, 1), 6))
    solver = FetiSolver(problem, SolverSpec(approach="expl mkl"))
    pre = solver.preconditioner
    assert pre.local_S
    held = []
    preprocess = solver.operator.preprocess

    def watched(*args):
        held.append(len(pre.local_S))
        return preprocess(*args)

    solver.operator.preprocess = watched
    solver.preprocess()
    assert held == [0] and len(pre.local_S) == problem.n_subdomains


@pytest.mark.parametrize(
    "workload",
    [*ORACLE_WORKLOADS, Workload("elasticity", 3, (2, 2, 2), 4)],
    ids=Workload.describe,
)
def test_scaled_gluing_algebra(workload):
    """``B_D Bᵀ = I``, Dirichlet rows untouched, ``M`` symmetric and ``≥ 0``."""
    problem = build_problem(workload)
    n = problem.n_lambda
    B = dense_B(problem)
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    for build in BUILDERS:
        pre = build(problem)
        xMy, yMx = x @ pre.apply(y), y @ pre.apply(x)
        assert abs(xMy - yMx) <= 1e-12 * abs(x) @ abs(pre.apply(abs(y)))
        assert x @ pre.apply(x) >= 0.0
    pre = LumpedPreconditioner(problem)
    M = pre.matrix
    assert abs(M - M.T).max() <= 1e-12 * abs(M).max()
    B_D = pre._B_D  # the scaling is the same for both kinds
    assert np.abs(B_D @ B.T - np.eye(n)).max() <= 1e-14
    dirichlet_rows = slice(problem.gluing.n_gluing, n)
    assert np.array_equal(B_D[dirichlet_rows].toarray(), B[dirichlet_rows])


#: Heat and elasticity, 2D and 3D, every one with cross-points (chains of
#: 4 copies in 2D, of 8 in 3D) and shared Dirichlet DOFs.
CHAIN_WORKLOADS = [
    Workload("heat", 2, (8, 8), 8, n_clusters=4),
    Workload("heat", 3, (2, 2, 2), 4),
    Workload("elasticity", 2, (3, 3), 4),
    Workload("elasticity", 3, (2, 2, 2), 3),
]


@pytest.mark.parametrize("workload", CHAIN_WORKLOADS, ids=Workload.describe)
def test_closed_form_scaling_is_exact(workload):
    """``B_D`` from the chain tables: ``B_D Bᵀ = I`` bitwise, its dyadic
    values and pattern those of the global formula ``(B D⁻¹ Bᵀ)⁻¹ B D⁻¹``
    (whose LU inverse rounds ¼ to ``0.24999999999999994``) to 1e-15, and
    ``B_Dᵀ`` the transpose of ``B_D``."""
    problem = build_problem(workload)
    pre = LumpedPreconditioner(problem)
    B = problem.gluing.global_B([sub.ndofs for sub in problem.subdomains])
    identity = (pre._B_D @ B.T).toarray()
    assert np.array_equal(identity, np.eye(problem.n_lambda))
    expected = scaled_gluing(problem)
    assert np.array_equal(pre._B_D.indptr, expected.indptr)
    assert abs(pre._B_D - expected).max() <= 1e-15
    assert (pre._B_D != pre._B_Dt.T).nnz == 0
    copies = np.bincount(np.diff(expected.indptr)).nonzero()[0]
    assert copies.max() == (4 if workload.dim == 2 else 8)
    quarters = np.abs(pre._B_D.data[np.isclose(np.abs(pre._B_D.data), 0.25)])
    assert np.all(quarters == 0.25)


@pytest.mark.parametrize(
    "workload, method",
    [
        (Workload("heat", 2, (8, 8), 8, n_clusters=4), "principal_blocks"),
        (Workload("heat", 3, (2, 2, 1), 6), "dense_block"),
    ],
    ids=["small blocks", "large blocks"],
)
def test_a_non_spd_block_names_its_subdomain(monkeypatch, workload, method):
    """A gathered ``X`` that is not SPD fails the refresh with a
    ``LinAlgError`` naming its subdomain and ``|bᵢ|``, from the batched
    Cholesky of the small blocks and from ``dpotrf`` of a large one."""
    problem = build_problem(workload)
    pre = dirichlet(problem)
    engine = pre.operator.batch_engine
    members, slots = pre._groups[-1]
    assert (slots.shape[1] >= SYMV_MIN_ROWS) == (method == "dense_block")
    bad = int(members[-1])
    original = getattr(engine, method)
    if method == "principal_blocks":

        def negated(subdomains, rows):
            X = original(subdomains, rows)
            X[subdomains == bad] *= -1.0
            return X

    else:

        def negated(subdomain):
            block = original(subdomain)
            return -block if subdomain == bad else block

    monkeypatch.setattr(engine, method, negated)
    with pytest.raises(np.linalg.LinAlgError, match=rf"subdomain {bad} \(\|bᵢ\| = {slots.shape[1]}\)"):
        pre.refresh()


@pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
def test_apply_block_bitwise_equals_per_column_apply(build):
    """Heat 3D ``(3,3,3)x4``: ``Sᵢ`` in the CSR and applied by ``dsymv`` both."""
    problem = build_problem(Workload("heat", 3, (3, 3, 3), 4))
    pre = build(problem)
    if build is not lumped:
        sizes = {b.size for b, _ in pre.local_S.values()}
        assert min(sizes) < SYMV_MIN_ROWS <= max(sizes)
    W = np.random.default_rng(3).standard_normal((problem.n_lambda, 5))
    block = pre.apply_block(W)
    for j in range(W.shape[1]):
        assert np.array_equal(block[:, j], pre.apply(np.ascontiguousarray(W[:, j])))


def test_paired_squares_share_an_array_in_disjoint_triangles():
    """Two blocks of one side share an ``m × (m + 1)`` array, the first in
    its lower triangle and the second in its upper one; a block with no
    partner has its own ``m × m``."""
    squares = _paired_squares([(4, 0, True), (4, 4, False), (3, 8, True), (2, 11, True)])
    assert [S.shape for S in squares] == [(4, 4), (4, 4), (3, 3), (2, 2)]
    assert all(S.flags.f_contiguous for S in squares)
    first, second, lone, last = squares
    assert np.shares_memory(first, second)
    assert not any(np.shares_memory(a, b) for a, b in [(second, lone), (lone, last)])
    first[np.tri(4, dtype=bool)] = 1.0
    second[np.tri(4, dtype=bool).T] = 2.0
    assert np.all(np.tril(first) == np.tri(4))
    assert np.all(np.triu(second) == 2.0 * np.tri(4).T)


def _triple_stiffness(step, problem):
    return StepValues(
        K=[3.0 * group.K.values for group in problem.groups],
        K_reg=[3.0 * group.K_reg.values for group in problem.groups],
    )


@pytest.mark.parametrize("kind", ["lumped", "dirichlet"])
def test_preconditioner_follows_stiffness_values(heat, kind):
    """``preprocess()`` refreshes the built preconditioner in place."""
    dec = decompose_box(2, 2, 4, order=1, n_clusters=2)
    problem = FetiProblem.from_physics(heat, dec, dirichlet_faces=("xmin",))
    solver = FetiSolver(problem, SolverSpec(approach="expl mkl", preconditioner=kind))
    pre = solver.preconditioner
    x = np.random.default_rng(4).standard_normal(problem.n_lambda)
    pristine = pre.apply(x)
    records = MultiStepDriver(solver, update=_triple_stiffness).run(2)
    assert all(record.converged for record in records)
    assert solver.preconditioner is pre
    assert np.allclose(pre.apply(x), 3.0 * pristine, rtol=1e-12, atol=0.0)


def test_session_restores_preconditioner_after_custom_update():
    """A schedule's stiffness change must not outlive it in ``M``."""
    workload = Workload("heat", 2, (2, 2), 3)
    with Session(SolverSpec(approach="expl mkl", preconditioner="dirichlet")) as session:
        pre = session.solver(workload).preconditioner
        x = np.random.default_rng(5).standard_normal(pre.problem.n_lambda)
        pristine = pre.apply(x)
        session.run_steps(workload, n_steps=1, update=_triple_stiffness)
        assert session.solve(workload).converged
        assert session.solver(workload).preconditioner is pre
        assert np.array_equal(pre.apply(x), pristine)


_HEAT_2D_8X8 = Workload("heat", 2, (8, 8), 8, n_clusters=4)
_HEAT_2D_4X4 = Workload("heat", 2, (4, 4), 8, n_clusters=2)
_HEAT_3D = Workload("heat", 3, (2, 2, 1), 12)
_MODERN = {"approach": "expl modern", "assembly": "table2"}
#: The benchmark's four configurations at the pristine loads with the
#: non-redundant scaling ``B_D``: under their default preconditioner
#: (``dirichlet`` for the explicit approaches, ``lumped`` for the implicit
#: one) and under ``lumped``.
PINNED_ITERATIONS = [
    (_HEAT_2D_8X8, _MODERN, 13),
    (_HEAT_2D_4X4, {"approach": "expl mkl"}, 13),
    (_HEAT_3D, {"approach": "expl mkl"}, 13),
    (_HEAT_3D, {"approach": "impl mkl"}, 25),
    (_HEAT_2D_8X8, {**_MODERN, "preconditioner": "lumped"}, 21),
    (_HEAT_2D_4X4, {"approach": "expl mkl", "preconditioner": "lumped"}, 20),
    (_HEAT_3D, {"approach": "expl mkl", "preconditioner": "lumped"}, 25),
]


@pytest.fixture(scope="module")
def pinned_session():
    # One session: the two heat 3D specs share its symbolic analyses.
    with Session() as session:
        yield session


@pytest.mark.parametrize(
    "workload, spec, iterations",
    PINNED_ITERATIONS,
    ids=[
        f"{w.describe()}-{s['approach']}" + ("-lumped" if "preconditioner" in s else "")
        for w, s, _ in PINNED_ITERATIONS
    ],
)
def test_benchmark_iteration_counts_are_pinned(pinned_session, workload, spec, iterations):
    solution = pinned_session.solve(workload, SolverSpec(**spec))
    assert solution.converged
    assert solution.iterations == iterations


@pytest.mark.parametrize("approach", list(DualOperatorApproach), ids=lambda a: a.value)
def test_default_preconditioner_resolves_by_approach_family(approach):
    """``dirichlet`` where ``F̃ᵢ`` is assembled, ``lumped`` elsewhere; the
    resolved kind round-trips through ``to_dict`` and the serve protocol."""
    spec = SolverSpec(approach=approach)
    expected = "dirichlet" if approach.is_explicit else "lumped"
    assert spec.preconditioner is PreconditionerKind(expected)
    assert spec.to_dict()["preconditioner"] == expected
    assert SolverSpec.from_dict(spec.to_dict()) == spec
    payload = {k: v for k, v in spec.to_dict().items() if k != "preconditioner"}
    assert SolverSpec.from_dict(payload) == spec
    body = json.dumps({"workload": "heat-2d-quick", "spec": spec.to_dict()})
    assert parse_solve_request(body).spec == spec
    assert SolverSpec(approach=approach, preconditioner="lumped").preconditioner is (
        PreconditionerKind.LUMPED
    )


@pytest.mark.parametrize(
    "approach", [a for a in DualOperatorApproach if not a.is_explicit], ids=lambda a: a.value
)
def test_dirichlet_on_an_implicit_approach_is_a_spec_error(heat_problem_2d, approach):
    """An implicit operator holds no ``F̃ᵢ`` to gather the ``Sᵢ`` from: the
    spec is refused at construction, from a dict and as a served request (a
    400), naming an explicit approach, and so is the operator itself."""
    named = r"needs an explicit approach \('expl mkl'"
    with pytest.raises(SpecError, match=named):
        SolverSpec(approach=approach, preconditioner="dirichlet")
    spec = {"approach": approach.value, "preconditioner": "dirichlet"}
    with pytest.raises(SpecError, match=named):
        SolverSpec.from_dict(spec)
    with pytest.raises(ProtocolError, match=named) as raised:
        parse_solve_request(json.dumps({"workload": "heat-2d-quick", "spec": spec}))
    assert raised.value.status == 400
    solver = FetiSolver(heat_problem_2d, SolverSpec(approach=approach))
    solver.preprocess()
    with pytest.raises(SpecError, match=rf"{approach.value!r} is implicit"):
        DirichletPreconditioner(heat_problem_2d, solver.operator)
