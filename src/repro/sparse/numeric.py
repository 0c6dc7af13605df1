"""Numeric sparse Cholesky factorization (supernodal, left-looking).

Given the pattern produced by :func:`repro.sparse.symbolic.symbolic_cholesky`
this module computes the values of ``L`` such that ``P A Pᵀ = L Lᵀ`` — for a
whole stack of matrices sharing that pattern at once.

The factorization is **supernodal left-looking**: every supernode is a dense
trapezoidal panel initialized with one vectorized scatter of the (one-pass)
permuted matrix values, updated by one GEMM per contributing descendant
supernode (subtracted from ``panel[rows, cols]``, the factored block position
of :attr:`~repro.sparse.symbolic.SupernodePartition.updates` — a basic slice
where the rows/columns are contiguous), and finished with a dense Cholesky of
its diagonal block, the triangular inverse of that factor (kept for the Schur
assembly) and one GEMM with the inverse for the off-panel block.  The
Python-level work is proportional to the number of supernodal updates, not to
``nnz(L)``, and all arithmetic runs through BLAS-3 calls — the structure
production libraries (CHOLMOD, PARDISO) use.  :func:`stacked_cholesky` runs
every update and every off-panel block as one ``np.matmul`` over the stack;
only the ``potrf`` / ``trtri`` of a diagonal block is per matrix.
:func:`numeric_cholesky` is its stack of one.  The solves read ``L`` as a band
instead (:func:`stacked_band`, built from the panels once per factorization).

The classic left-looking *column* algorithm it replaced is the test oracle
(``tests/oracles/sparse.py::numeric_scalar``); both produce the same factor up
to floating-point roundoff.  ``numeric_reference`` in the same module is this
loop driven by flat per-update scatter arrays and must agree bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dtrtri

from repro.sparse.symbolic import SymbolicFactor

__all__ = [
    "CholeskyFactor",
    "NotPositiveDefiniteError",
    "numeric_cholesky",
    "stacked_band",
    "stacked_cholesky",
    "stacked_values",
]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a non-positive pivot is encountered."""


@dataclass
class CholeskyFactor:
    """A numeric Cholesky factor, held in one of two forms.

    The factorization produces the *panel form*: the dense supernode panels
    and the inverses of their diagonal blocks, which the Schur assembly
    sweeps.  Every triangular solve reads the *band form*: ``L`` as the
    ``(n, kd + 1)`` lower band of :meth:`SymbolicFactor.band_index`.  The
    first solve after a factorization moves a factor to band form
    (:class:`~repro.sparse.solvers.SolverStack`) and releases its panels
    and inverses, so no value of ``L`` is resident twice.  The CSC values
    of ``L`` are gathered from whichever form is held, on demand
    (:meth:`to_csc`, :meth:`diagonal`).

    Attributes
    ----------
    symbolic:
        The symbolic factorization (pattern, permutation, supernodes).
    panels:
        ``(panel_entries,)`` dense-panel storage of ``L``
        (:attr:`~repro.sparse.symbolic.SupernodePartition.panel_off` layout;
        padding positions hold exact zeros); ``None`` in band form.
    inverses:
        ``(inverse_entries,)`` inverses of the panels' factored diagonal
        blocks (:attr:`~repro.sparse.symbolic.SupernodePartition.inv_off`
        layout; exact zeros above the diagonal); ``None`` in band form.
    band:
        ``(n, kd + 1)`` band storage of ``L`` (exact zeros outside its
        pattern), typically a row of a stack's block-diagonal band; ``None``
        in panel form.
    """

    symbolic: SymbolicFactor
    panels: np.ndarray | None
    inverses: np.ndarray | None
    band: np.ndarray | None = None

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
        if self.band is None:
            values = self.panels[s.supernodes.lpos]
        else:
            values = self.band.reshape(-1)[s.band_index()[1]]
        return sp.csc_matrix(
            (values, s.row_idx.copy(), s.col_ptr.copy()), shape=(s.n, s.n)
        )

    def to_csr_upper(self) -> sp.csr_matrix:
        """The factor ``U = Lᵀ`` as CSR (same memory layout as CSC of ``L``)."""
        L = self.to_csc()
        return sp.csr_matrix((L.data, L.indices, L.indptr), shape=L.shape)

    def diagonal(self) -> np.ndarray:
        """Diagonal entries of ``L``."""
        if self.band is not None:
            return self.band[:, 0].copy()
        s = self.symbolic
        return self.panels[s.supernodes.lpos[s.col_ptr[:-1]]]


def stacked_values(matrices: Sequence[sp.spmatrix], symbolic: SymbolicFactor) -> np.ndarray:
    """The ``(k, nnz)`` canonical-CSC values of matrices with the analysed pattern.

    The analysed pattern is structurally symmetric, so a matrix that has it
    stores the same index arrays in canonical CSR form as in CSC form: the
    matrices are checked and stacked as CSR, and one map puts the whole stack
    into CSC order.

    Raises
    ------
    ValueError
        If a matrix does not have exactly the pattern ``symbolic`` describes.
    """
    csrs = []
    for A in matrices:
        csr = A.tocsr()
        if not csr.has_sorted_indices:
            csr = csr.copy()
            csr.sort_indices()
        if not (
            np.array_equal(csr.indptr, symbolic.a_indptr)
            and np.array_equal(csr.indices, symbolic.a_indices)
        ):
            raise ValueError(
                "matrix does not have the pattern the symbolic analysis was computed for"
            )
        csrs.append(csr)
    # Convert the positions 0..nnz-1 once: the CSR -> CSC map of the pattern.
    first = csrs[0]
    positions = np.arange(first.nnz, dtype=np.int64)
    to_csc = sp.csr_matrix((positions, first.indices, first.indptr), shape=first.shape)
    return np.stack([csr.data for csr in csrs])[:, to_csc.tocsc().data]


def numeric_cholesky(A: sp.spmatrix, symbolic: SymbolicFactor) -> CholeskyFactor:
    """Compute the numeric Cholesky factor of ``A`` using a symbolic pattern.

    The stack of one of :func:`stacked_cholesky`.

    Parameters
    ----------
    A:
        Symmetric positive definite matrix with exactly the pattern the
        symbolic factorization was computed for.
    symbolic:
        Result of :func:`repro.sparse.symbolic.symbolic_cholesky`.

    Raises
    ------
    ValueError
        If ``A`` does not have the analysed pattern.
    NotPositiveDefiniteError
        If a pivot is not strictly positive.
    """
    panels, inverses = stacked_cholesky(stacked_values([A], symbolic), symbolic)
    return CholeskyFactor(symbolic, panels[0], inverses[0])


def stacked_cholesky(
    values: np.ndarray, symbolic: SymbolicFactor
) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``k`` SPD matrices sharing one symbolic analysis, as one stack.

    Parameters
    ----------
    values:
        ``(k, nnz)`` canonical-CSC values of the matrices
        (:func:`stacked_values`).
    symbolic:
        Their shared symbolic factorization.

    Returns
    -------
    tuple of numpy.ndarray
        ``(k, panel_entries)`` dense panels and ``(k, inverse_entries)``
        diagonal-block inverses, one row per matrix:
        ``CholeskyFactor(symbolic, panels[i], inverses[i])`` is matrix ``i``'s
        factor.  Every row is bitwise the factor of its matrix alone: the
        stacked GEMMs and the per-matrix LAPACK calls do the same arithmetic
        as a stack of one.

    Raises
    ------
    NotPositiveDefiniteError
        If a diagonal block is not positive definite (the message names the
        matrix and the supernode).
    """
    part = symbolic.supernodes
    k = values.shape[0]
    flat = np.zeros((k, part.panel_entries))
    flat[:, part.ainit_pos] = values[:, symbolic.a_lower_map]
    inverses = np.empty((k, part.inverse_entries))

    offsets, inv_off = part.panel_off.tolist(), part.inv_off.tolist()
    widths, heights = part.widths.tolist(), part.heights.tolist()
    # Each supernode's (k, h, w) panel stack, viewed once: a panel is read by
    # every later update it contributes to.
    panels = [
        flat[:, offsets[j] : offsets[j + 1]].reshape(k, heights[j], widths[j])
        for j in range(part.n_supernodes)
    ]
    for j, pj in enumerate(panels):
        w, h = widths[j], heights[j]
        for d, i0, i1, rows, cols in part.updates[j]:
            below = panels[d][:, widths[d] + i0 :]
            pj[:, rows, cols] -= np.matmul(below, below[:, : i1 - i0].transpose(0, 2, 1))

        # Dense Cholesky of each diagonal block (LAPACK potrf references only
        # the lower triangle, so junk above the diagonal is harmless; clean=1
        # zeroes it) and the triangular inverse of its factor, which keeps
        # those zeros.  The off-panel block is then L21 = A21 L11⁻ᵀ, one
        # batched product over the stack.
        inverse = inverses[:, inv_off[j] : inv_off[j + 1]].reshape(k, w, w)
        for i, pv in enumerate(pj):
            ltop, info = dpotrf(pv[:w, :w], lower=1, clean=1)
            if info == 0:
                inverse[i], info = dtrtri(ltop, lower=1)
            if info != 0:
                j0, j1 = part.snode_ptr[j : j + 2]
                raise NotPositiveDefiniteError(
                    f"matrix {i} is not positive definite: info {info} in "
                    f"supernode {j} (columns {j0}:{j1})"
                )
            pv[:w, :w] = ltop
        if h > w:
            pj[:, w:] = np.matmul(pj[:, w:], inverse.transpose(0, 2, 1))
    return flat, inverses


def stacked_band(symbolic: SymbolicFactor, panels: np.ndarray) -> np.ndarray:
    """The ``(k, n, kd + 1)`` lower bands of ``k`` stacked panel-form factors.

    Row ``i`` holds factor ``i``'s ``L`` in the layout of
    :meth:`SymbolicFactor.band_index`, at the panels' dtype:
    ``band[i].ravel()[positions] = panels[i][lpos]``, one member at a time
    so the gathered values never exist for the whole stack at once.  Every
    position outside ``L``'s pattern is an exact zero, the ones past a
    member's last row included, so the rows read as one ``(k·n, kd + 1)``
    array are the band of the block-diagonal matrix of the stack.
    """
    kd, positions = symbolic.band_index()
    k = panels.shape[0]
    band = np.zeros((k, symbolic.n, kd + 1), dtype=panels.dtype)
    lpos = symbolic.supernodes.lpos
    for row, values in zip(band.reshape(k, -1), panels):
        row[positions] = values[lpos]
    return band
