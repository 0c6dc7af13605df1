"""Test oracle: the problem build one subdomain at a time.

What ``FetiProblem.from_physics`` ran before it built a stack of every
member's elements (``tests/oracles/member_stack.py``): per subdomain,
its own element geometry (``np.linalg.inv`` / ``np.linalg.det``), its own
element ``einsum``, its own COO → CSR conversion with the noise pruned
afterwards, its own kernel basis, fixing nodes (one full ``argsort`` of the
node distances per bounding-box corner) and ``K_reg`` by COO concatenation.
Nothing here reads ``repro.fem.assembly``'s element stacks or CSR sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.decomposition.partition import BoxDecomposition
from repro.fem.assembly import PRUNE_TOLERANCE, elasticity_dof_map
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.mesh import Mesh
from repro.fem.quadrature import simplex_quadrature

__all__ = [
    "element_geometry",
    "stiffness",
    "load",
    "kernel_basis",
    "select_fixing_nodes",
    "regularize_stiffness",
    "SubdomainBuild",
    "build_subdomains",
]


def element_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Inverse Jacobians ``(ncells, dim, dim)`` and ``|det J|`` by LAPACK."""
    dim = mesh.dim
    verts = mesh.coords[mesh.cells[:, : dim + 1]]
    jac = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)
    return np.linalg.inv(jac), np.abs(np.linalg.det(jac))


def _physical_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ref = mesh.reference_element
    quad = simplex_quadrature(mesh.dim, ref.quadrature_degree)
    shape = ref.shape_functions(quad.points)
    ref_grads = ref.shape_gradients(quad.points)
    inv_jac, det = element_geometry(mesh)
    grads = np.einsum("qnd,cde->cqne", ref_grads, inv_jac, optimize=True)
    return shape, grads, det[:, None] * quad.weights[None, :]


def _scatter(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_matrix:
    out = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()
    out.sum_duplicates()
    scale = np.sqrt(np.abs(out.diagonal()))
    row_scale = np.repeat(scale, np.diff(out.indptr))
    out.data[np.abs(out.data) <= PRUNE_TOLERANCE * row_scale * scale[out.indices]] = 0.0
    out.eliminate_zeros()
    return out


def _elasticity(physics: object) -> bool:
    return isinstance(physics, LinearElasticityProblem)


def _strain_displacement(grads: np.ndarray, dim: int) -> np.ndarray:
    ncells, nq, nnodes, _ = grads.shape
    b = np.zeros((ncells, nq, 3 if dim == 2 else 6, nnodes * dim))
    gx, gy = grads[..., 0], grads[..., 1]
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
        b[:, :, 3, 1::3] = gz
        b[:, :, 3, 2::3] = gy
        b[:, :, 4, 0::3] = gz
        b[:, :, 4, 2::3] = gx
        b[:, :, 5, 0::3] = gy
        b[:, :, 5, 1::3] = gx
    return b


def _moduli(dim: int, young: float, nu: float) -> np.ndarray:
    lam = young * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = young / (2.0 * (1.0 + nu))
    if dim == 2:
        return np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    c = np.zeros((6, 6))
    c[:3, :3] = lam
    c[np.arange(3), np.arange(3)] = lam + 2.0 * mu
    c[3:, 3:] = mu * np.eye(3)
    return c


def stiffness(physics: object, mesh: Mesh) -> sp.csr_matrix:
    """One subdomain's pruned stiffness matrix."""
    _shape, grads, wdet = _physical_gradients(mesh)
    if _elasticity(physics):
        b = _strain_displacement(grads, mesh.dim)
        c = _moduli(mesh.dim, physics.young, physics.poisson)
        ke = np.einsum("cqvi,vw,cqwj,cq->cij", b, c, b, wdet, optimize=True)
        dofs = elasticity_dof_map(mesh.cells, mesh.dim)
    else:
        ke = np.einsum("cqnd,cqmd,cq->cnm", grads, grads, wdet, optimize=True)
        ke = physics.conductivity * ke
        dofs = mesh.cells
    rows = np.repeat(dofs[:, :, None], dofs.shape[1], axis=2)
    cols = np.repeat(dofs[:, None, :], dofs.shape[1], axis=1)
    return _scatter(rows, cols, ke, physics.ndofs(mesh))


def load(physics: object, mesh: Mesh) -> np.ndarray:
    """One subdomain's load vector (``np.add.at`` over its elements)."""
    shape, _grads, wdet = _physical_gradients(mesh)
    if _elasticity(physics):
        force = physics._force_for(mesh.dim)
        fe = np.einsum("cq,qn,d->cnd", wdet, shape, force, optimize=True)
        dofs = elasticity_dof_map(mesh.cells, mesh.dim)
    else:
        fq = float(physics.source) * np.ones((mesh.ncells, shape.shape[0]))
        fe = np.einsum("cq,qn->cn", wdet * fq, shape, optimize=True)
        dofs = mesh.cells
    f = np.zeros(physics.ndofs(mesh))
    np.add.at(f, dofs.ravel(), fe.reshape(mesh.ncells, -1).ravel())
    return f


def kernel_basis(physics: object, mesh: Mesh) -> np.ndarray:
    """One subdomain's orthonormal kernel basis (its own QR for elasticity)."""
    if not _elasticity(physics):
        n = physics.ndofs(mesh)
        return np.full((n, 1), 1.0 / np.sqrt(n))
    dim, n = mesh.dim, mesh.nnodes
    coords = mesh.coords - mesh.coords.mean(axis=0, keepdims=True)
    basis = np.zeros((n * dim, 3 if dim == 2 else 6))
    for d in range(dim):
        basis[d::dim, d] = 1.0
    if dim == 2:
        basis[0::2, 2] = -coords[:, 1]
        basis[1::2, 2] = coords[:, 0]
    else:
        x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
        basis[1::3, 3], basis[2::3, 3] = -z, y
        basis[0::3, 4], basis[2::3, 4] = z, -x
        basis[0::3, 5], basis[1::3, 5] = -y, x
    q, _ = np.linalg.qr(basis)
    return q


def select_fixing_nodes(mesh: Mesh, n_nodes: int = 4) -> np.ndarray:
    """The nodes nearest ``n_nodes`` bounding-box corners, one ``argsort`` each."""
    lo, hi = mesh.coords.min(axis=0), mesh.coords.max(axis=0)
    corners = np.stack(
        np.meshgrid(*[[lo[d], hi[d]] for d in range(mesh.dim)], indexing="ij"), axis=-1
    ).reshape(-1, mesh.dim)
    chosen: list[int] = []
    for corner in corners[:n_nodes]:
        for idx in np.argsort(np.linalg.norm(mesh.coords - corner[None, :], axis=1)):
            if int(idx) not in chosen:
                chosen.append(int(idx))
                break
    return np.asarray(chosen, dtype=np.int64)


def regularize_stiffness(
    K: sp.csr_matrix, kernel: np.ndarray, mesh: Mesh, dofs_per_node: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """``(K_reg, fixing_dofs)``: the fixing block appended as COO, then summed."""
    dim_kernel = kernel.shape[1]
    n_fixing = 1 if dim_kernel == 1 else 4
    for attempt in range(4):
        nodes = select_fixing_nodes(mesh, n_nodes=n_fixing + attempt * 2)
        fixing = (dofs_per_node * nodes[:, None] + np.arange(dofs_per_node)[None, :]).ravel()
        R_J = kernel[fixing, :]
        if np.linalg.matrix_rank(R_J) == dim_kernel:
            break
    rho = float(K.diagonal().mean())
    block = R_J @ R_J.T
    Kc = K.tocoo()
    rows = np.concatenate([Kc.row, np.repeat(fixing, fixing.size)])
    cols = np.concatenate([Kc.col, np.tile(fixing, fixing.size)])
    vals = np.concatenate([Kc.data, rho * block.ravel()])
    K_reg = sp.coo_matrix((vals, (rows, cols)), shape=K.shape).tocsr()
    K_reg.sum_duplicates()
    return K_reg, fixing


@dataclass
class SubdomainBuild:
    """One subdomain's share of the problem build."""

    K: sp.csr_matrix
    K_reg: sp.csr_matrix
    f: np.ndarray
    kernel: np.ndarray
    fixing_dofs: np.ndarray


def build_subdomains(physics: object, decomposition: BoxDecomposition) -> list[SubdomainBuild]:
    """The per-subdomain loop ``from_physics`` ran, in subdomain order."""
    out = []
    for sub in decomposition.subdomains:
        mesh = sub.mesh
        K = stiffness(physics, mesh)
        kernel = kernel_basis(physics, mesh)
        K_reg, fixing = regularize_stiffness(K, kernel, mesh, physics.ndofs(mesh) // mesh.nnodes)
        out.append(SubdomainBuild(K, K_reg, load(physics, mesh), kernel, fixing))
    return out
