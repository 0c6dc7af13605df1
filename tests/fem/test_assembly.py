"""Tests of the FEM assembly kernels (heat and elasticity)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.decomposition import decompose_box
from repro.fem import assembly
from repro.fem.assembly import (
    PRUNE_TOLERANCE,
    assemble_elasticity_load,
    assemble_elasticity_stiffness,
    assemble_scalar_load,
    assemble_scalar_stiffness,
    element_geometry,
)
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh


CASES = [(2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize(("dim", "order"), CASES)
def test_scalar_stiffness_symmetric_and_singular(dim, order):
    mesh = structured_mesh(dim, 2, order=order)
    K = assemble_scalar_stiffness(mesh)
    assert abs(K - K.T).max() < 1e-12
    # constant field is in the kernel (pure Neumann)
    assert np.abs(K @ np.ones(mesh.nnodes)).max() < 1e-12


@pytest.mark.parametrize(("dim", "order"), CASES)
def test_scalar_patch_test(dim, order):
    """A linear temperature field has zero residual at interior nodes."""
    mesh = structured_mesh(dim, 3, order=order)
    K = assemble_scalar_stiffness(mesh)
    u = mesh.coords @ np.arange(1, dim + 1, dtype=float)
    residual = K @ u
    interior = np.setdiff1d(np.arange(mesh.nnodes), mesh.boundary_nodes())
    assert np.abs(residual[interior]).max() < 1e-12


@pytest.mark.parametrize(("dim", "order"), CASES)
def test_scalar_load_sums_to_source_times_volume(dim, order):
    mesh = structured_mesh(dim, 2, order=order)
    f = assemble_scalar_load(mesh, source=3.0)
    assert f.sum() == pytest.approx(3.0 * mesh.total_volume())


def test_scalar_load_accepts_nodal_source():
    mesh = structured_mesh(2, 2, order=1)
    f_const = assemble_scalar_load(mesh, source=2.0)
    f_nodal = assemble_scalar_load(mesh, source=np.full(mesh.nnodes, 2.0))
    assert np.allclose(f_const, f_nodal)
    with pytest.raises(ValueError):
        assemble_scalar_load(mesh, source=np.ones(3))


def test_conductivity_scales_stiffness():
    mesh = structured_mesh(2, 2, order=1)
    K1 = assemble_scalar_stiffness(mesh, conductivity=1.0)
    K5 = assemble_scalar_stiffness(mesh, conductivity=5.0)
    assert abs(K5 - 5.0 * K1).max() < 1e-12


def test_2d_heat_dirichlet_solution_matches_analytic():
    """1D conduction through the unit square: u = x (q = 0, u(0)=0, u(1)=1)."""
    mesh = structured_mesh(2, 8, order=1)
    K = assemble_scalar_stiffness(mesh)
    left = mesh.boundary_nodes("xmin")
    right = mesh.boundary_nodes("xmax")
    fixed = np.concatenate([left, right])
    values = np.concatenate([np.zeros(left.size), np.ones(right.size)])
    free = np.setdiff1d(np.arange(mesh.nnodes), fixed)
    rhs = -K[np.ix_(free, fixed)] @ values
    u = np.zeros(mesh.nnodes)
    u[fixed] = values
    u[free] = spla.spsolve(K[np.ix_(free, free)].tocsc(), rhs)
    assert np.allclose(u, mesh.coords[:, 0], atol=1e-10)


@pytest.mark.parametrize(("dim", "order"), CASES)
def test_elasticity_stiffness_symmetric_psd(dim, order):
    mesh = structured_mesh(dim, 2, order=order)
    K = assemble_elasticity_stiffness(mesh)
    assert abs(K - K.T).max() < 1e-11
    eigs = np.linalg.eigvalsh(K.toarray())
    assert eigs.min() > -1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_elasticity_rigid_body_modes_in_kernel(dim):
    mesh = structured_mesh(dim, 2, order=2)
    physics = LinearElasticityProblem()
    K = physics.assemble_stiffness(mesh)
    R = physics.kernel_basis(mesh)
    expected_modes = 3 if dim == 2 else 6
    assert R.shape == (mesh.nnodes * dim, expected_modes)
    assert np.abs(K @ R).max() < 1e-11
    # the kernel dimension is exactly the number of rigid body modes
    eigs = np.linalg.eigvalsh(K.toarray())
    assert np.sum(eigs < 1e-10 * eigs.max()) == expected_modes


@pytest.mark.parametrize("dim", [2, 3])
def test_elasticity_kernel_is_orthonormal(dim):
    mesh = structured_mesh(dim, 2, order=1)
    R = LinearElasticityProblem().kernel_basis(mesh)
    assert np.allclose(R.T @ R, np.eye(R.shape[1]), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_elasticity_load_resultant(dim):
    mesh = structured_mesh(dim, 2, order=1)
    force = (0.5, -2.0, 1.0)[:dim]
    f = assemble_elasticity_load(mesh, body_force=force)
    for d in range(dim):
        assert f[d::dim].sum() == pytest.approx(force[d] * mesh.total_volume())
    with pytest.raises(ValueError):
        assemble_elasticity_load(mesh, body_force=(1.0,) * (dim + 1))


# --------------------------------------------------------------------- #
# Cancellation noise is not stored                                       #
# --------------------------------------------------------------------- #
ZOO = [
    (physics, dim, order)
    for physics in ("heat", "elasticity")
    for dim in (2, 3)
    for order in (1, 2)
]


@pytest.mark.parametrize(("physics", "dim", "order"), ZOO)
def test_assembly_stores_exactly_the_entries_above_the_noise_threshold(
    physics, dim, order, monkeypatch
):
    """Pruned: every ``|aᵢⱼ| ≤ 1e-12 sqrt(|aᵢᵢ aⱼⱼ|)``; kept bit for bit: the rest.

    The subdomain has ``h = 1/6``, so its coordinates are not binary
    fractions and the couplings that cancel in theory come out as rounding
    noise rather than exact zeros.
    """
    mesh = decompose_box(dim, 2, 3, order=order).subdomains[-1].mesh
    assemble = assemble_scalar_stiffness if physics == "heat" else assemble_elasticity_stiffness
    K = assemble(mesh)
    monkeypatch.setattr(assembly, "PRUNE_TOLERANCE", -1.0)  # keep every nonzero sum
    raw = assemble(mesh).tocoo()
    scale = np.sqrt(np.abs(raw.diagonal()))
    relative = np.abs(raw.data) / (scale[raw.row] * scale[raw.col])
    noise = relative <= PRUNE_TOLERANCE
    kept = sp.csr_matrix(
        (raw.data[~noise], (raw.row[~noise], raw.col[~noise])), shape=raw.shape
    )
    assert np.array_equal(K.indptr, kept.indptr)
    assert np.array_equal(K.indices, kept.indices)
    assert np.array_equal(K.data, kept.data)
    # Orders of magnitude between the two populations, not a fine line.
    assert relative[noise].max(initial=0.0) < 1e-15 < 1e-3 < relative[~noise].min()
    if (physics, dim, order) == ("heat", 3, 1):
        assert noise.any()  # the Kuhn-split cancellations this guards against


def test_element_geometry_determinants():
    mesh = structured_mesh(2, 2, order=1)
    inv_jac, det = element_geometry(mesh.coords, mesh.cells)
    assert det.shape == (mesh.ncells,)
    # each triangle of a 2x2 grid has area 1/8 -> |det J| = 2 * area, exactly
    assert np.all(det == 0.25)
    assert inv_jac.shape == (mesh.ncells, 2, 2)


@pytest.mark.parametrize(("dim", "order"), CASES)
def test_closed_form_geometry_matches_lapack(dim, order):
    """Adjugate inverse and determinant of every subdomain mesh against ``np.linalg``."""
    dec = decompose_box(dim, 2, 3, order=order)
    for mesh in [s.mesh for s in dec.subdomains]:
        inv_jac, det = element_geometry(mesh.coords, mesh.cells)
        verts = mesh.coords[mesh.cells[:, : dim + 1]]
        jac = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)
        assert np.allclose(det, np.abs(np.linalg.det(jac)), rtol=1e-14, atol=0.0)
        inv = np.linalg.inv(jac)
        assert np.abs(inv_jac - inv).max() <= 1e-14 * np.abs(inv).max()


def test_heat_problem_facade():
    mesh = structured_mesh(2, 2, order=1)
    heat = HeatTransferProblem(conductivity=2.0, source=3.0)
    assert heat.ndofs(mesh) == mesh.nnodes
    assert heat.name == "heat"
    K = heat.assemble_stiffness(mesh)
    assert np.abs(K @ heat.kernel_basis(mesh)).max() < 1e-12


def test_elasticity_problem_facade():
    mesh = structured_mesh(3, 2, order=1)
    physics = LinearElasticityProblem(body_force=(0.0, 0.0, -9.81))
    assert physics.ndofs(mesh) == 3 * mesh.nnodes
    assert physics.dofs_per_node_for(mesh) == 3
    assert physics.name == "elasticity"
    with pytest.raises(AttributeError):
        _ = physics.dofs_per_node
    with pytest.raises(ValueError):
        LinearElasticityProblem(poisson=0.5)
