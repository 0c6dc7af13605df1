"""Tests of the FETI problem assembly (subdomain data, G, e, saddle point)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.workload import Workload, build_problem
from repro.decomposition import decompose_box
from repro.feti.problem import FetiProblem

from tests.oracles.coarse import looped_assemble_G, looped_compute_e
from tests.oracles.problem import accumulate_dual, local_dual, primal_solution


def test_subdomain_data_shapes(heat_problem_2d):
    problem = heat_problem_2d
    assert problem.n_subdomains == 4
    assert problem.dofs_per_node == 1
    for sub in problem.subdomains:
        assert sub.K.shape == (sub.ndofs, sub.ndofs)
        assert sub.K_reg.shape == sub.K.shape
        assert sub.B.shape == (sub.n_lambda, sub.ndofs)
        assert sub.f.shape == (sub.ndofs,)
        assert sub.kernel.shape == (sub.ndofs, 1)
        assert sub.dof_multiplicity.shape == (sub.ndofs,)
        assert sub.lambda_ids.max() < problem.n_lambda


def test_elasticity_kernel_dims(elasticity_problem_2d):
    problem = elasticity_problem_2d
    assert problem.dofs_per_node == 2
    assert problem.kernel_dims == [3, 3]
    assert problem.total_kernel_dim == 6
    assert np.array_equal(problem.kernel_offsets, [0, 3, 6])


def test_G_and_e_shapes_and_values(heat_problem_2d):
    problem = heat_problem_2d
    G = problem.assemble_G()
    assert G.shape == (problem.n_lambda, problem.total_kernel_dim)
    # G = B R column blocks: check one subdomain explicitly
    sub = problem.subdomains[0]
    offsets = problem.kernel_offsets
    block = G[:, offsets[0] : offsets[1]].toarray()
    expected = np.zeros_like(block)
    expected[sub.lambda_ids, :] = sub.B @ sub.kernel
    assert np.allclose(block, expected)

    e = problem.compute_e()
    assert e.shape == (problem.total_kernel_dim,)
    assert e[0] == pytest.approx(float((sub.kernel.T @ sub.f)[0]))


@pytest.mark.parametrize(
    "workload",
    [
        Workload("heat", 2, (8, 8), 8, n_clusters=4),
        Workload("elasticity", 3, (2, 2, 1), 2, n_clusters=2),
    ],
    ids=["heat-2d-c4", "elasticity-3d-c2"],
)
def test_compute_e_matches_the_per_subdomain_oracle(workload):
    problem = build_problem(workload)
    e = problem.compute_e()
    reference = looped_compute_e(problem)
    assert e.shape == reference.shape
    assert np.max(np.abs(e - reference)) <= 1e-14 * np.max(np.abs(reference))
    # The batched product runs the loop's per-subdomain BLAS calls: bitwise,
    # which keeps λ bitwise too.
    assert np.array_equal(e, reference)
    # The kernel basis is built once and shared with the primal recovery.
    assert problem.kernel_stack is problem.kernel_stack and problem.R is problem.R


def _same_csr(got, want) -> None:
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "workload",
    [
        Workload("heat", 2, (8, 8), 8, n_clusters=4),
        Workload("elasticity", 3, (2, 2, 1), 2, n_clusters=2),
    ],
    ids=["heat-2d-c4", "elasticity-3d-c2"],
)
def test_global_matrices_are_bitwise_the_per_subdomain_assembly(workload):
    """One pass over the stacks and the gluing entries builds, bit for bit,
    what the per-subdomain matrices assemble to — ``-0.0`` included."""
    import scipy.sparse as sp

    from repro.feti.operators.batch import SubdomainBatchEngine

    problem = build_problem(workload)
    _same_csr(problem.assemble_G(), looped_assemble_G(problem))
    _same_csr(
        problem.R, sp.block_diag([sub.kernel for sub in problem.subdomains], format="csr")
    )
    for name in ("K", "K_reg"):
        want = sp.block_diag([getattr(sub, name) for sub in problem.subdomains], format="csr")
        _same_csr(problem.block_diagonal(name), want)
    engine = SubdomainBatchEngine(problem)
    _same_csr(engine.B, sp.block_diag([sub.B for sub in problem.subdomains], format="csr"))


def test_G_has_full_column_rank(heat_problem_2d, heat_problem_3d):
    for problem in (heat_problem_2d, heat_problem_3d):
        G = problem.assemble_G().toarray()
        assert np.linalg.matrix_rank(G) == problem.total_kernel_dim


def test_local_dual_scatter_gather(heat_problem_2d):
    problem = heat_problem_2d
    rng = np.random.default_rng(0)
    lam = rng.standard_normal(problem.n_lambda)
    sub = problem.subdomains[1]
    local = local_dual(sub, lam)
    assert np.allclose(local, lam[sub.lambda_ids])
    out = np.zeros(problem.n_lambda)
    accumulate_dual(sub, out, local)
    assert np.allclose(out[sub.lambda_ids], local)


def test_saddle_point_solution_satisfies_constraints(heat_problem_2d):
    problem = heat_problem_2d
    u, lam = problem.saddle_point_solution()
    B = problem.gluing.global_B([s.ndofs for s in problem.subdomains])
    assert np.allclose(B @ u, problem.c, atol=1e-9)
    assert lam.shape == (problem.n_lambda,)


def test_primal_solution_from_lambda_alpha(heat_problem_2d):
    """primal_solution() reproduces the saddle-point primal solution."""
    problem = heat_problem_2d
    u_ref, lam = problem.saddle_point_solution()
    # recover alpha from the residual of the first block equation
    offsets = problem.kernel_offsets
    alpha = np.zeros(problem.total_kernel_dim)
    start = 0
    for sub in problem.subdomains:
        u_i = u_ref[start : start + sub.ndofs]
        rhs = sub.f - sub.B.T @ lam[sub.lambda_ids]
        import scipy.sparse.linalg as spla

        u_part = spla.spsolve(sub.K_reg.tocsc(), rhs)
        # alpha solves R alpha = u_i - K+ rhs (R has orthonormal columns)
        alpha[offsets[sub.index] : offsets[sub.index + 1]] = sub.kernel.T @ (u_i - u_part)
        start += sub.ndofs
    rebuilt = np.concatenate(primal_solution(problem, lam, alpha))
    assert np.allclose(rebuilt, u_ref, atol=1e-8)


def test_from_physics_with_multiple_dirichlet_faces(heat):
    dec = decompose_box(2, 2, 2, order=1)
    problem = FetiProblem.from_physics(heat, dec, dirichlet_faces=("xmin", "xmax"))
    assert problem.gluing.n_dirichlet > 0
    u, _ = problem.saddle_point_solution()
    assert np.isfinite(u).all()


def test_transposed_gluing_is_built_once_and_bitwise_equal(heat_problem_2d, rng):
    """``Bt`` is the one cached CSC view ``B.T`` returns: no rebuild per product."""
    for sub in heat_problem_2d.subdomains:
        assert sub.Bt is sub.Bt
        assert sub.Bt.format == sub.B.T.format and sub.Bt.shape == (sub.ndofs, sub.n_lambda)
        x = rng.standard_normal(sub.n_lambda)
        np.testing.assert_array_equal(sub.Bt @ x, sub.B.T @ x)
