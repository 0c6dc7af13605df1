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

Same-shape subdomains are regularized as one stack: the fixing DOFs are
chosen once (:func:`fixing_dofs_for`), the rank check and ``rho`` are batched
over the members, and :func:`regularize_stack` places the block by index;
:func:`regularize_stiffness` is its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import CsrStack
from repro.fem.mesh import Mesh

__all__ = [
    "RegularizedStiffness",
    "select_fixing_nodes",
    "fixing_dofs_for",
    "regularize_stack",
    "regularize_stiffness",
]


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
    chosen (each corner's nearest node not taken yet); they are guaranteed to
    be non-collinear for ``n_nodes >= 3`` on the structured meshes used here,
    which makes the restricted rigid-body basis full rank.  A translated
    mesh picks the same nodes.
    """
    lo = mesh.coords.min(axis=0)
    hi = mesh.coords.max(axis=0)
    corners = np.stack(
        np.meshgrid(*[[lo[d], hi[d]] for d in range(mesh.dim)], indexing="ij"), axis=-1
    ).reshape(-1, mesh.dim)
    chosen: list[int] = []
    for corner in corners[:n_nodes]:
        dist = np.linalg.norm(mesh.coords - corner[None, :], axis=1)
        dist[chosen] = np.inf
        chosen.append(int(np.argmin(dist)))
    return np.asarray(chosen, dtype=np.int64)


def fixing_dofs_for(
    mesh: Mesh,
    kernels: np.ndarray,
    dofs_per_node: int,
    n_fixing_nodes: int | None = None,
) -> np.ndarray:
    """Fixing DOFs of a stack of same-shape subdomains, chosen once.

    The nodes come from ``mesh`` (any member: the choice is translation
    invariant); every member's restricted kernel ``R_J`` must have full
    column rank, checked in one batched ``matrix_rank``.

    Parameters
    ----------
    mesh:
        One mesh of the shape.
    kernels:
        Orthonormal kernel bases of the members, ``(k, ndofs, dim_kernel)``.
    dofs_per_node:
        1 for scalar problems, the dimension for elasticity.
    n_fixing_nodes:
        Number of fixing nodes; defaults to 1 for scalar problems and 4 for
        vector problems (enough for a full-rank restricted basis in 3D).
    """
    dim_kernel = kernels.shape[2]
    if n_fixing_nodes is None:
        n_fixing_nodes = 1 if dim_kernel == 1 else 4
    for attempt in range(4):
        nodes = select_fixing_nodes(mesh, n_nodes=n_fixing_nodes + attempt * 2)
        fixing_dofs = (
            dofs_per_node * nodes[:, None] + np.arange(dofs_per_node)[None, :]
        ).ravel()
        if np.all(np.linalg.matrix_rank(kernels[:, fixing_dofs, :]) == dim_kernel):
            return fixing_dofs
    raise RuntimeError(  # pragma: no cover - cannot happen on structured meshes
        "could not find fixing nodes giving a full-rank basis"
    )


def regularize_stack(
    K: CsrStack,
    kernels: np.ndarray,
    fixing_dofs: np.ndarray,
    rho: float | None = None,
) -> tuple[CsrStack, np.ndarray]:
    """``K_reg`` of every member of a stack, by index: ``(K_reg, rho)``.

    ``K_reg`` lives on ``pattern(K) ∪ fixing block``, placed by index into
    the sorted keys of the shape's pattern: a sparse ``+`` would drop the
    sums that happen to come out as exact zeros, which makes the pattern
    depend on the values.  ``rho`` defaults to each member's mean diagonal
    of ``K``; the returned ``rho`` has one entry per member.
    """
    k, n = K.values.shape[0], K.n
    K_keys = K.keys()
    fix_keys = (fixing_dofs[:, None] * n + fixing_dofs[None, :]).ravel()
    keys = np.sort(np.concatenate([K_keys, fix_keys]), kind="stable")
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    if rho is None:
        diagonal = np.arange(n, dtype=np.int64) * (n + 1)
        at = np.minimum(np.searchsorted(K_keys, diagonal), K_keys.size - 1)
        rho_k = np.where(K_keys[at] == diagonal, K.values[:, at], 0.0).mean(axis=1)
    else:
        rho_k = np.full(k, float(rho))
    # M = E_J R_J: nonzero only on the fixing DOFs.
    R_J = kernels[:, fixing_dofs, :]
    block = R_J @ np.swapaxes(R_J, 1, 2)  # (k, n_fix_dofs, n_fix_dofs)
    values = np.zeros((k, keys.size))
    values[:, np.searchsorted(keys, K_keys)] = K.values
    values[:, np.searchsorted(keys, fix_keys)] += rho_k[:, None] * block.reshape(k, -1)
    return CsrStack.from_keys(values, keys, n), rho_k


def regularize_stiffness(
    K: sp.csr_matrix,
    kernel: np.ndarray,
    mesh: Mesh,
    dofs_per_node: int,
    rho: float | None = None,
    n_fixing_nodes: int | None = None,
) -> RegularizedStiffness:
    """Regularize one singular subdomain stiffness matrix (a stack of one).

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
        Number of fixing nodes; see :func:`fixing_dofs_for`.

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
    K = sp.csr_matrix(K)
    if not K.has_canonical_format:
        K = K.copy()
        K.sum_duplicates()
    kernels = kernel[None]
    fixing_dofs = fixing_dofs_for(mesh, kernels, dofs_per_node, n_fixing_nodes)
    K_reg, rho_k = regularize_stack(
        CsrStack(K.data[None], K.indices, K.indptr), kernels, fixing_dofs, rho
    )
    return RegularizedStiffness(
        K_reg=K_reg.member(0), kernel=kernel, fixing_dofs=fixing_dofs, rho=float(rho_k[0])
    )
