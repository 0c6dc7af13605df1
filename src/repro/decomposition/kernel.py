"""Kernel bases and analytic regularization of subdomain stiffness matrices.

In Total FETI every subdomain stiffness matrix ``Kᵢ`` is singular; its kernel
is known analytically (the constant field for heat transfer, the rigid body
modes for elasticity).  Following the fixing-nodes regularization of
Brzobohatý et al. (reference [11] of the paper), we form

    ``K_reg = K + rho * M Mᵀ``,   ``M = E_J R_J``,

where ``R`` is the kernel basis, ``J`` is a small set of *fixing DOFs* (the
DOFs of a few well-spread fixing nodes), ``R_J`` the corresponding rows of
``R`` and ``E_J`` the embedding of those rows back into the full DOF space.
If ``R_J`` has full column rank, ``K_reg`` is nonsingular and its inverse is
an *exact* generalized inverse of ``K`` (``K K_reg⁻¹ K = K``), while only a
small dense block is added to the sparsity pattern — exactly the property the
paper's factorization pipeline relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fem.mesh import Mesh

__all__ = ["RegularizedStiffness", "select_fixing_nodes", "regularize_stiffness"]


@dataclass
class RegularizedStiffness:
    """A regularized subdomain stiffness matrix.

    Attributes
    ----------
    K_reg:
        The nonsingular regularized matrix (CSR).
    kernel:
        Orthonormal kernel basis ``R`` of the original ``K``, shape
        ``(ndofs, dim_kernel)``.
    fixing_dofs:
        DOF indices that received the regularization block.
    rho:
        Regularization scale (of the order of the stiffness diagonal).
    """

    K_reg: sp.csr_matrix
    kernel: np.ndarray
    fixing_dofs: np.ndarray
    rho: float


def select_fixing_nodes(mesh: Mesh, n_nodes: int = 4) -> np.ndarray:
    """Pick well-spread fixing nodes of a subdomain mesh.

    The nodes closest to ``n_nodes`` corners of the subdomain bounding box are
    chosen; they are guaranteed to be non-collinear for ``n_nodes >= 3`` on
    the structured meshes used here, which makes the restricted rigid-body
    basis full rank.
    """
    lo = mesh.coords.min(axis=0)
    hi = mesh.coords.max(axis=0)
    corners = np.stack(
        np.meshgrid(*[[lo[d], hi[d]] for d in range(mesh.dim)], indexing="ij"), axis=-1
    ).reshape(-1, mesh.dim)
    chosen: list[int] = []
    for corner in corners[:n_nodes] if n_nodes <= len(corners) else corners:
        dist = np.linalg.norm(mesh.coords - corner[None, :], axis=1)
        order = np.argsort(dist)
        for idx in order:
            if int(idx) not in chosen:
                chosen.append(int(idx))
                break
    return np.asarray(chosen[:n_nodes], dtype=np.int64)


def regularize_stiffness(
    K: sp.csr_matrix,
    kernel: np.ndarray,
    mesh: Mesh,
    dofs_per_node: int,
    rho: float | None = None,
    n_fixing_nodes: int | None = None,
) -> RegularizedStiffness:
    """Regularize a singular subdomain stiffness matrix.

    Parameters
    ----------
    K:
        The singular stiffness matrix.
    kernel:
        Orthonormal kernel basis of ``K`` (from the physics object).
    mesh:
        The subdomain mesh (used to pick fixing nodes).
    dofs_per_node:
        1 for scalar problems, the dimension for elasticity.
    rho:
        Regularization scale; defaults to the mean diagonal of ``K``.
    n_fixing_nodes:
        Number of fixing nodes; defaults to 1 for scalar problems and 4 for
        vector problems (enough for a full-rank restricted basis in 3D).

    Returns
    -------
    RegularizedStiffness
        ``K_reg`` together with the kernel and the fixing DOFs.  ``K_reg`` is
        symmetric positive definite and ``K_reg⁻¹`` is an exact generalized
        inverse of ``K``.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != K.shape[0]:
        raise ValueError("kernel must have shape (ndofs, dim_kernel)")
    dim_kernel = kernel.shape[1]
    if rho is None:
        rho = float(K.diagonal().mean())
    if n_fixing_nodes is None:
        n_fixing_nodes = 1 if dim_kernel == 1 else 4

    for attempt in range(4):
        nodes = select_fixing_nodes(mesh, n_nodes=n_fixing_nodes + attempt * 2)
        fixing_dofs = (
            dofs_per_node * nodes[:, None] + np.arange(dofs_per_node)[None, :]
        ).ravel()
        R_J = kernel[fixing_dofs, :]
        if np.linalg.matrix_rank(R_J) == dim_kernel:
            break
    else:  # pragma: no cover - cannot happen on structured meshes
        raise RuntimeError("could not find fixing nodes giving a full-rank basis")

    # M = E_J R_J: nonzero only on the fixing DOFs.  K_reg lives on
    # pattern(K) ∪ the fixing block *by index*: a sparse ``+`` would drop
    # the sums that happen to come out as exact zeros, which makes the
    # pattern depend on the values.
    block = R_J @ R_J.T  # (n_fix_dofs, n_fix_dofs)
    n = K.shape[0]
    Kc = K.tocoo()
    rows = np.concatenate([Kc.row, np.repeat(fixing_dofs, fixing_dofs.size)])
    cols = np.concatenate([Kc.col, np.tile(fixing_dofs, fixing_dofs.size)])
    vals = np.concatenate([Kc.data, rho * block.ravel()])
    K_reg = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    K_reg.sum_duplicates()
    return RegularizedStiffness(
        K_reg=K_reg, kernel=kernel, fixing_dofs=fixing_dofs, rho=rho
    )
