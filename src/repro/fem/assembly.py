"""Vectorized finite-element assembly kernels.

All element matrices of a mesh are computed at once with ``einsum`` (no
Python-level loop over elements) and scattered into a COO triplet list that
SciPy converts to CSR, without the sums that are cancellation noise (see
:data:`PRUNE_TOLERANCE`).  This follows the NumPy vectorization idiom: compute
per-element Jacobians, physical shape-function gradients, and element
matrices as stacked 3-D arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.mesh import Mesh
from repro.fem.quadrature import simplex_quadrature

__all__ = [
    "element_geometry",
    "assemble_scalar_stiffness",
    "assemble_scalar_load",
    "assemble_elasticity_stiffness",
    "assemble_elasticity_load",
]


def element_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Affine geometry of every cell.

    Returns
    -------
    inv_jac:
        Inverse Jacobians, shape ``(ncells, dim, dim)`` (reference → physical).
    det_jac:
        Absolute Jacobian determinants, shape ``(ncells,)``.
    """
    dim = mesh.dim
    verts = mesh.coords[mesh.cells[:, : dim + 1]]  # (ncells, dim+1, dim)
    jac = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)  # (ncells, dim, dim)
    det = np.linalg.det(jac)
    inv_jac = np.linalg.inv(jac)
    return inv_jac, np.abs(det)


def _physical_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shape functions, physical gradients and quadrature weights.

    Returns ``(shape, grads, wdet)`` where ``shape`` has shape
    ``(nq, nnodes)``, ``grads`` has shape ``(ncells, nq, nnodes, dim)`` and
    ``wdet`` has shape ``(ncells, nq)`` (quadrature weight times |det J|).
    """
    ref = mesh.reference_element
    quad = simplex_quadrature(mesh.dim, ref.quadrature_degree)
    shape = ref.shape_functions(quad.points)  # (nq, nnodes)
    ref_grads = ref.shape_gradients(quad.points)  # (nq, nnodes, dim)
    inv_jac, det = element_geometry(mesh)
    # dN/dx = dN/dxi * dxi/dx = ref_grads @ inv_jac
    grads = np.einsum("qnd,cde->cqne", ref_grads, inv_jac, optimize=True)
    wdet = det[:, None] * quad.weights[None, :]
    return shape, grads, wdet


#: Entries with ``|aᵢⱼ| ≤ PRUNE_TOLERANCE · sqrt(|aᵢᵢ aⱼⱼ|)`` are cancellation
#: noise and are not stored.  Couplings that cancel exactly in theory (the
#: Kuhn-split P1 elements make the heat 3D stencil 7-point) come out of the
#: element sums as ≤ 2e-16-relative rounding, or as exact zeros, depending
#: on the coordinates; the smallest genuine coupling on the structured meshes
#: (heat and elasticity, P1 and P2, 2D and 3D) is ≥ 9e-3.  Pruning makes the
#: stored pattern — and so the symbolic analysis — a function of the
#: subdomain shape alone.
PRUNE_TOLERANCE = 1e-12


def _scatter(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int
) -> sp.csr_matrix:
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    out = mat.tocsr()
    out.sum_duplicates()
    scale = np.sqrt(np.abs(out.diagonal()))
    row_scale = np.repeat(scale, np.diff(out.indptr))
    out.data[np.abs(out.data) <= PRUNE_TOLERANCE * row_scale * scale[out.indices]] = 0.0
    out.eliminate_zeros()
    return out


# ---------------------------------------------------------------------- #
# Scalar diffusion (heat transfer)                                        #
# ---------------------------------------------------------------------- #
def assemble_scalar_stiffness(mesh: Mesh, conductivity: float = 1.0) -> sp.csr_matrix:
    """Assemble the stiffness matrix of ``-div(kappa grad u)``.

    One DOF per node; the DOF numbering equals the node numbering.
    """
    shape, grads, wdet = _physical_gradients(mesh)
    ke = conductivity * np.einsum(
        "cqnd,cqmd,cq->cnm", grads, grads, wdet, optimize=True
    )  # (ncells, nnodes, nnodes)
    cells = mesh.cells
    rows = np.repeat(cells[:, :, None], cells.shape[1], axis=2)
    cols = np.repeat(cells[:, None, :], cells.shape[1], axis=1)
    return _scatter(rows, cols, ke, mesh.nnodes)


def assemble_scalar_load(mesh: Mesh, source: float | np.ndarray = 1.0) -> np.ndarray:
    """Assemble the load vector for a volumetric heat source.

    ``source`` may be a scalar or a per-node array (interpolated linearly
    through the shape functions).
    """
    shape, _grads, wdet = _physical_gradients(mesh)
    cells = mesh.cells
    if np.isscalar(source):
        fq = float(source) * np.ones((mesh.ncells, shape.shape[0]))
    else:
        source = np.asarray(source, dtype=float)
        if source.shape != (mesh.nnodes,):
            raise ValueError("per-node source must have shape (nnodes,)")
        fq = np.einsum("qn,cn->cq", shape, source[cells], optimize=True)
    fe = np.einsum("cq,qn->cn", wdet * fq, shape, optimize=True)
    f = np.zeros(mesh.nnodes)
    np.add.at(f, cells.ravel(), fe.ravel())
    return f


# ---------------------------------------------------------------------- #
# Linear elasticity                                                       #
# ---------------------------------------------------------------------- #
def _elastic_moduli(dim: int, young: float, poisson: float) -> np.ndarray:
    """Constitutive matrix in Voigt notation (plane strain in 2D)."""
    e, nu = young, poisson
    lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = e / (2.0 * (1.0 + nu))
    if dim == 2:
        c = np.array(
            [
                [lam + 2.0 * mu, lam, 0.0],
                [lam, lam + 2.0 * mu, 0.0],
                [0.0, 0.0, mu],
            ]
        )
    else:
        c = np.zeros((6, 6))
        c[:3, :3] = lam
        c[np.arange(3), np.arange(3)] = lam + 2.0 * mu
        c[3:, 3:] = mu * np.eye(3)
    return c


def _strain_displacement(grads: np.ndarray, dim: int) -> np.ndarray:
    """Voigt strain-displacement matrices.

    Parameters
    ----------
    grads:
        Physical gradients, shape ``(ncells, nq, nnodes, dim)``.

    Returns
    -------
    numpy.ndarray
        B matrices, shape ``(ncells, nq, nvoigt, nnodes * dim)`` with DOFs
        interleaved per node (``u_x, u_y[, u_z]`` for node 0, then node 1...).
    """
    ncells, nq, nnodes, _ = grads.shape
    nvoigt = 3 if dim == 2 else 6
    b = np.zeros((ncells, nq, nvoigt, nnodes * dim))
    gx = grads[..., 0]
    gy = grads[..., 1]
    if dim == 2:
        b[:, :, 0, 0::2] = gx
        b[:, :, 1, 1::2] = gy
        b[:, :, 2, 0::2] = gy
        b[:, :, 2, 1::2] = gx
    else:
        gz = grads[..., 2]
        b[:, :, 0, 0::3] = gx
        b[:, :, 1, 1::3] = gy
        b[:, :, 2, 2::3] = gz
        # Voigt shear order: yz, xz, xy
        b[:, :, 3, 1::3] = gz
        b[:, :, 3, 2::3] = gy
        b[:, :, 4, 0::3] = gz
        b[:, :, 4, 2::3] = gx
        b[:, :, 5, 0::3] = gy
        b[:, :, 5, 1::3] = gx
    return b


def elasticity_dof_map(cells: np.ndarray, dim: int) -> np.ndarray:
    """Element DOF connectivity for vector-valued elements.

    Node ``n`` owns DOFs ``dim*n .. dim*n + dim - 1``.
    """
    ncells, nnodes = cells.shape
    dofs = (dim * cells[:, :, None] + np.arange(dim)[None, None, :]).reshape(
        ncells, nnodes * dim
    )
    return dofs


def assemble_elasticity_stiffness(
    mesh: Mesh, young: float = 1.0, poisson: float = 0.3
) -> sp.csr_matrix:
    """Assemble the linear-elasticity stiffness matrix (plane strain in 2D)."""
    _shape, grads, wdet = _physical_gradients(mesh)
    dim = mesh.dim
    c = _elastic_moduli(dim, young, poisson)
    b = _strain_displacement(grads, dim)
    ke = np.einsum("cqvi,vw,cqwj,cq->cij", b, c, b, wdet, optimize=True)
    dofs = elasticity_dof_map(mesh.cells, dim)
    ndofs = mesh.nnodes * dim
    rows = np.repeat(dofs[:, :, None], dofs.shape[1], axis=2)
    cols = np.repeat(dofs[:, None, :], dofs.shape[1], axis=1)
    return _scatter(rows, cols, ke, ndofs)


def assemble_elasticity_load(
    mesh: Mesh, body_force: tuple[float, ...] | np.ndarray = (0.0, -1.0)
) -> np.ndarray:
    """Assemble the load vector for a constant body force."""
    shape, _grads, wdet = _physical_gradients(mesh)
    dim = mesh.dim
    force = np.asarray(body_force, dtype=float)
    if force.shape != (dim,):
        raise ValueError(f"body_force must have {dim} components")
    # fe[c, n, d] = force[d] * sum_q wdet[c, q] * shape[q, n]
    fe = np.einsum("cq,qn,d->cnd", wdet, shape, force, optimize=True)
    dofs = elasticity_dof_map(mesh.cells, dim).reshape(mesh.ncells, -1)
    f = np.zeros(mesh.nnodes * dim)
    np.add.at(f, dofs.ravel(), fe.reshape(mesh.ncells, -1).ravel())
    return f
