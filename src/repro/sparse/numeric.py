"""Numeric sparse Cholesky factorization (supernodal, left-looking).

Given the pattern produced by :func:`repro.sparse.symbolic.symbolic_cholesky`
this module computes the values of ``L`` such that ``P A Pᵀ = L Lᵀ``.

The factorization is **supernodal left-looking**: every supernode is a dense
trapezoidal panel initialized with one vectorized scatter of the (one-pass)
permuted matrix values, updated by one GEMM per contributing descendant
supernode (subtracted from ``panel[rows, cols]``, the factored block position
of :attr:`~repro.sparse.symbolic.SupernodePartition.updates` — a basic slice
where the rows/columns are contiguous), and finished with a dense Cholesky of
its diagonal block plus one triangular solve for the off-panel block.  The
Python-level work is proportional to the number of supernodal updates, not to
``nnz(L)``, and all arithmetic runs through BLAS-3 calls — the structure
production libraries (CHOLMOD, PARDISO) use.

The classic left-looking *column* algorithm it replaced is the test oracle
(``tests/oracles/sparse.py::numeric_scalar``); both produce the same factor up
to floating-point roundoff.  ``numeric_reference`` in the same module is this
loop driven by flat per-update scatter arrays and must agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dtrtrs

from repro.sparse.symbolic import SymbolicFactor, _canonical_csc, _panel_positions

__all__ = ["CholeskyFactor", "numeric_cholesky"]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a non-positive pivot is encountered."""


@dataclass
class CholeskyFactor:
    """A numeric Cholesky factor sharing the symbolic pattern.

    Attributes
    ----------
    symbolic:
        The symbolic factorization (pattern, permutation, elimination tree).
    values:
        Factor values aligned with ``symbolic.row_idx`` (CSC order, diagonal
        entry first in every column).
    """

    symbolic: SymbolicFactor
    values: np.ndarray

    #: Lazily built dense-panel copy of the values (see ``panel_values``).
    _panel_values: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.symbolic.n

    @property
    def nnz(self) -> int:
        """Stored entries of ``L``."""
        return self.symbolic.nnz

    def to_csc(self) -> sp.csc_matrix:
        """The factor ``L`` as a SciPy CSC matrix (in permuted ordering)."""
        s = self.symbolic
        return sp.csc_matrix(
            (self.values, s.row_idx.copy(), s.col_ptr.copy()), shape=(s.n, s.n)
        )

    def to_csr_upper(self) -> sp.csr_matrix:
        """The factor ``U = Lᵀ`` as CSR (same memory layout as CSC of ``L``)."""
        s = self.symbolic
        return sp.csr_matrix(
            (self.values, s.row_idx.copy(), s.col_ptr.copy()), shape=(s.n, s.n)
        )

    def diagonal(self) -> np.ndarray:
        """Diagonal entries of ``L``."""
        s = self.symbolic
        return self.values[s.col_ptr[:-1]]

    def panel_values(self) -> np.ndarray | None:
        """Values scattered into the flat dense-panel storage (built once).

        Padding positions hold exact zeros, so the panel triangular solves
        of :mod:`repro.sparse.triangular` operate on clean panels however
        the factor's values were produced.  Returns ``None`` when
        the symbolic factorization carries no supernode partition.
        """
        part = self.symbolic.supernodes
        if part is None:
            return None
        if self._panel_values is None:
            flat = np.zeros(part.panel_entries)
            flat[part.lpos] = self.values
            self._panel_values = flat
        return self._panel_values


def _permuted_lower(
    A: sp.spmatrix, s: SymbolicFactor
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Values of ``tril(P A Pᵀ)`` in CSC order, built in one pass.

    When ``A`` has exactly the pattern the symbolic analysis was computed
    for (the common case, and always true on a pattern-cache hit) the cached
    permutation map turns ``A``'s data into the permuted layout with a
    single take.  Otherwise — e.g. a structurally smaller matrix reusing a
    superset pattern — the map is rebuilt generically from ``A`` itself.

    Returns ``(data, indptr, rows, cached)``.
    """
    csc = _canonical_csc(A)
    if (
        s.a_lower_map is not None
        and csc.nnz == s.a_indices.shape[0]
        and np.array_equal(csc.indptr, s.a_indptr)
        and np.array_equal(csc.indices, s.a_indices)
    ):
        return csc.data[s.a_lower_map], s.a_lower_indptr, s.a_lower_rows, True

    n = s.n
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[s.perm] = np.arange(n, dtype=np.int64)
    rows = np.asarray(csc.indices, dtype=np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(csc.indptr))
    pr, pc = inv_perm[rows], inv_perm[cols]
    low = pr >= pc
    lr, lc = pr[low], pc[low]
    order = np.lexsort((lr, lc))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(lc, minlength=n)))).astype(
        np.int64
    )
    return csc.data[np.flatnonzero(low)[order]], indptr, lr[order], False


def numeric_cholesky(A: sp.spmatrix, symbolic: SymbolicFactor) -> CholeskyFactor:
    """Compute the numeric Cholesky factor of ``A`` using a symbolic pattern.

    Parameters
    ----------
    A:
        Symmetric positive definite matrix with (a subset of) the pattern the
        symbolic factorization was computed for.
    symbolic:
        Result of :func:`repro.sparse.symbolic.symbolic_cholesky`.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is not strictly positive.
    """
    if symbolic.supernodes is None:
        raise ValueError("the symbolic factor carries no supernode partition")
    return _numeric_supernodal(symbolic, *_permuted_lower(A, symbolic))


def _numeric_supernodal(
    s: SymbolicFactor,
    adata: np.ndarray,
    aptr: np.ndarray,
    arows: np.ndarray,
    cached: bool,
) -> CholeskyFactor:
    """Supernodal left-looking factorization over dense panels."""
    part = s.supernodes
    flat = np.zeros(part.panel_entries)

    if cached and part.ainit_pos is not None:
        flat[part.ainit_pos] = adata
    else:
        # Generic scatter for matrices whose pattern is a strict subset of
        # the analysed one: locate every column's rows inside its panel.
        snode_ptr, widths = part.snode_ptr, part.widths
        for j in range(s.n):
            sl = slice(aptr[j], aptr[j + 1])
            rows = arows[sl]
            if rows.shape[0] == 0:
                continue
            sn = int(part.col_to_snode[j])
            j0, j1 = int(snode_ptr[sn]), int(snode_ptr[sn + 1])
            w = int(widths[sn])
            loc = _panel_positions(rows, j0, j1, w, part.below_rows[sn])
            flat[part.panel_off[sn] + loc * w + (j - j0)] = adata[sl]

    snode_ptr = part.snode_ptr
    widths, heights, panel_off = part.widths, part.heights, part.panel_off
    for j in range(part.n_supernodes):
        j0, j1 = int(snode_ptr[j]), int(snode_ptr[j + 1])
        w, h = int(widths[j]), int(heights[j])
        pv = flat[panel_off[j] : panel_off[j + 1]].reshape(h, w)

        for k, i0, i1, rows, cols in part.updates[j]:
            wk = int(widths[k])
            pk = flat[panel_off[k] : panel_off[k + 1]].reshape(-1, wk)
            pv[rows, cols] -= pk[wk + i0 :] @ pk[wk + i0 : wk + i1].T

        # Dense Cholesky of the diagonal block (LAPACK potrf references only
        # the lower triangle, so junk above the diagonal is harmless), then
        # one triangular solve for the whole off-panel block.
        ltop, info = dpotrf(pv[:w, :w], lower=1, clean=1)
        if info != 0:
            raise NotPositiveDefiniteError(
                f"non-positive pivot encountered in supernode columns {j0}:{j1}"
            )
        pv[:w, :w] = ltop
        if h > w:
            sol, info = dtrtrs(ltop, pv[w:, :].T, lower=1)
            pv[w:, :] = sol.T

    values = flat[part.lpos]
    # The working panels are already the factor's dense-panel form (potrf
    # with clean=1 zeroed the diagonal blocks' upper triangles), so hand
    # them to the factor and spare every panel solve the rebuild.
    return CholeskyFactor(symbolic=s, values=values, _panel_values=flat)
