"""Test oracle: the dual preconditioners, dense scaling and a subdomain loop.

``M w = Σᵢ B_D,ᵢ Opᵢ B_D,ᵢᵀ w`` where ``B_D,ᵢ`` is subdomain ``i``'s column
block of the non-redundant scaled gluing matrix
``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹``.  Everything is done the slow, obvious way so
the oracle shares no code with :mod:`repro.feti.preconditioner`: the global
``B`` is filled block by block into a dense array (no ``global_B``), ``B_D``
comes from one dense ``np.linalg.solve`` (no block detection, no batched
inverses), the operators are applied one subdomain at a time reading the
stiffness live (no block-diagonal operator, no assembled ``M``), and each
Schur complement ``Sᵢ`` is the textbook ``Kbb − Kbi Kii⁻¹ Kib`` of ``Kᵢ``
itself, by one sparse LU of ``Kii`` (:func:`interface_schur` — the library
reads ``Sᵢ`` off the dual operator instead).  Dense ``n_λ``-sized arrays
limit it to ``n_λ`` of about a thousand.  :func:`scaled_gluing` is the
sparse global formula the library's closed-form ``B_D`` replaced (graph
components of ``B D⁻¹ Bᵀ``, batched inverses, two sparse products), for
sizes the dense one cannot reach.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from repro.feti.problem import FetiProblem

__all__ = [
    "dense_B",
    "dense_B_D",
    "scaled_gluing",
    "lumped_apply",
    "interface_schur",
    "dirichlet_blocks",
    "dirichlet_apply",
]


def _column_blocks(problem: FetiProblem) -> list[slice]:
    offsets = np.concatenate([[0], np.cumsum([sub.ndofs for sub in problem.subdomains])])
    return [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]


def dense_B(problem: FetiProblem) -> np.ndarray:
    """The global ``B = [B̃₁ … B̃_N]`` as a dense ``(n_λ, Σ ndofs)`` array."""
    blocks = _column_blocks(problem)
    B = np.zeros((problem.n_lambda, blocks[-1].stop))
    for sub, block in zip(problem.subdomains, blocks):
        B[sub.lambda_ids, block] = sub.B.toarray()
    return B


def dense_B_D(problem: FetiProblem) -> np.ndarray:
    """``(B D⁻¹ Bᵀ)⁻¹ B D⁻¹`` by one dense solve."""
    B = dense_B(problem)
    multiplicity = np.concatenate([sub.dof_multiplicity for sub in problem.subdomains])
    # Only the constrained columns of ``B D⁻¹`` are nonzero: solve for those.
    constrained = np.flatnonzero(np.abs(B).sum(axis=0))
    B_Dinv = B[:, constrained] / multiplicity[constrained]
    B_D = np.zeros_like(B)
    B_D[:, constrained] = np.linalg.solve(B_Dinv @ B[:, constrained].T, B_Dinv)
    return B_D


def _block_diagonal_inverse(A: sp.spmatrix) -> sp.csr_matrix:
    """Inverse of a sparse matrix that is block diagonal up to a permutation:
    its blocks are the connected components of its graph, all blocks of one
    size inverted by one batched ``np.linalg.inv``."""
    A = A.tocoo()
    n = A.shape[0]
    n_blocks, block_of = connected_components(A, directed=False)
    size = np.bincount(block_of, minlength=n_blocks)
    # Rows grouped by block, and every row's position inside its block.
    grouped = np.argsort(block_of, kind="stable")
    start = np.cumsum(size) - size
    position = np.empty(n, dtype=np.int64)
    position[grouped] = np.arange(n) - start[block_of[grouped]]
    entry_block = block_of[A.row]
    rows, cols, vals = [], [], []
    for s in np.unique(size):
        blocks = np.flatnonzero(size == s)
        pick = size[entry_block] == s
        dense = np.zeros((blocks.size, s, s))
        slot = np.searchsorted(blocks, entry_block[pick])
        dense[slot, position[A.row[pick]], position[A.col[pick]]] = A.data[pick]
        members = grouped[start[blocks][:, None] + np.arange(s)]
        rows.append(np.repeat(members, s, axis=1).ravel())
        cols.append(np.tile(members, (1, s)).ravel())
        vals.append(np.linalg.inv(dense).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


def scaled_gluing(problem: FetiProblem) -> sp.csr_matrix:
    """``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹`` by the global formula (CSR): the
    connected components of ``B D⁻¹ Bᵀ`` inverted block-wise, then two
    sparse products — the library builds it in closed form from the gluing
    chains instead."""
    ndofs = [sub.ndofs for sub in problem.subdomains]
    B = problem.gluing.global_B(ndofs)
    multiplicity = np.concatenate([sub.dof_multiplicity for sub in problem.subdomains])
    B_Dinv = (B @ sp.diags(1.0 / multiplicity)).tocsr()
    return (_block_diagonal_inverse(B_Dinv @ B.T) @ B_Dinv).tocsr()


def lumped_apply(problem: FetiProblem, w: np.ndarray) -> np.ndarray:
    """``Σᵢ B_D,ᵢ Kᵢ B_D,ᵢᵀ w``, subdomain by subdomain."""
    B_D = dense_B_D(problem)
    out = np.zeros_like(w)
    for sub, block in zip(problem.subdomains, _column_blocks(problem)):
        out += B_D[:, block] @ (sub.K @ (B_D[:, block].T @ w))
    return out


def interface_schur(K: sp.spmatrix, boundary: np.ndarray) -> np.ndarray:
    """Dense ``Kbb − Kbi Kii⁻¹ Kib`` (one ``splu`` of ``Kii``, one multi-RHS solve)."""
    K = sp.csc_matrix(K)
    interior = np.setdiff1d(np.arange(K.shape[0]), boundary)
    Kbb = K[np.ix_(boundary, boundary)].toarray()
    if interior.size == 0:
        return Kbb
    Kib = K[np.ix_(interior, boundary)].toarray()
    Kii = K[np.ix_(interior, interior)].tocsc()
    return Kbb - Kib.T @ spla.splu(Kii).solve(Kib)


def dirichlet_blocks(problem: FetiProblem) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """``{i: (bᵢ, Sᵢ)}`` with ``bᵢ`` the DOFs any row of ``B̃ᵢ`` touches."""
    return {
        sub.index: (boundary, interface_schur(sub.K, boundary))
        for sub in problem.subdomains
        if (boundary := np.unique(sub.B.indices)).size
    }


def dirichlet_apply(problem: FetiProblem, w: np.ndarray) -> np.ndarray:
    """``Σᵢ B_D,ᵢ Sᵢ B_D,ᵢᵀ w`` with ``Sᵢ`` on the constrained DOFs."""
    B_D = dense_B_D(problem)
    blocks = dirichlet_blocks(problem)
    out = np.zeros_like(w)
    for sub, block in zip(problem.subdomains, _column_blocks(problem)):
        if sub.index not in blocks:
            continue
        boundary, S = blocks[sub.index]
        local = B_D[:, block].T @ w
        full = np.zeros(sub.ndofs)
        full[boundary] = S @ local[boundary]
        out += B_D[:, block] @ full
    return out
