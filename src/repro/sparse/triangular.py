"""Sparse triangular solves (vector and multi-RHS) over supernode panels.

These are the CPU counterparts of the cuSPARSE ``TRSV``/``TRSM`` kernels used
by the paper.  The factor is given as a :class:`~repro.sparse.numeric.CholeskyFactor`
(CSC storage of ``L``, equivalently CSR storage of ``U = Lᵀ``); both the
forward solve with ``L`` and the backward solve with ``Lᵀ`` traverse the same
arrays, so no transposition is ever materialized.

Every kernel dispatches over the **supernode panels** of the symbolic
analysis: one dense triangular solve per panel diagonal block plus one GEMM
per off-panel block, so the Python-level loop runs once per supernode
instead of once per column.  The scalar per-column loops these replaced are
the test oracle (``tests/oracles/sparse.py``).

A *stack* of factors sharing one symbolic analysis is solved by
:func:`solve_stacked`: the same sweep with the factor index as the leading
batch axis, so the interpreted work does not grow with the stack.

For sparse right-hand sides the forward solve supports skipping leading zero
rows.  The multi-RHS kernel honors **per-column** first-nonzero rows by
sorting the columns and activating them as the elimination reaches their
first row, which mirrors how PARDISO's augmented incomplete factorization
exploits the sparsity of ``B̃ᵢ`` during Schur-complement assembly.

The simulated cuSPARSE kernels receive plain SciPy matrices instead of a
:class:`~repro.sparse.numeric.CholeskyFactor`; :class:`PreparedCscFactor`
converts/sorts one once and detects panels from its pattern (scalar CSC loops
where the pattern does not coarsen), so repeated solves with the same factor
stop paying the conversion cost.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtrs

from repro.sparse.numeric import CholeskyFactor
from repro.sparse.symbolic import (
    MAX_SUPERNODE,
    RELAX_PADDING,
    SupernodePartition,
    SymbolicFactor,
    _panel_positions,
)

__all__ = [
    "sparse_trsv_lower",
    "sparse_trsv_upper",
    "sparse_trsm_lower",
    "sparse_trsm_upper",
    "stacked_diagonal_inverses",
    "solve_stacked",
    "PreparedCscFactor",
    "prepare_csc_factor",
]


# --------------------------------------------------------------------- #
# Shared panel solvers                                                   #
# --------------------------------------------------------------------- #
def _panel_solve_lower(
    part: SupernodePartition,
    data: np.ndarray,
    y: np.ndarray,
    start_row: int = 0,
    sorted_starts: np.ndarray | None = None,
) -> None:
    """In-place forward solve ``L y = b`` over supernode panels.

    With ``sorted_starts`` (ascending first-nonzero rows of the columns of a
    2-D ``y``) only the already-activated column prefix participates in each
    panel, which is how the per-column right-hand-side sparsity is exploited.
    """
    snode_ptr, panel_off = part.snode_ptr, part.panel_off
    widths, heights = part.widths, part.heights
    s0 = (
        int(np.searchsorted(snode_ptr[1:], start_row, side="right"))
        if start_row > 0
        else 0
    )
    for s in range(s0, part.n_supernodes):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w, h = int(widths[s]), int(heights[s])
        pv = data[panel_off[s] : panel_off[s + 1]].reshape(h, w)
        if sorted_starts is None:
            yj, _ = dtrtrs(pv[:w], y[j0:j1], lower=1)
            y[j0:j1] = yj
            if h > w:
                y[part.below_rows[s]] -= pv[w:] @ yj
        else:
            a = int(np.searchsorted(sorted_starts, j1 - 1, side="right"))
            if a == 0:
                continue
            yj, _ = dtrtrs(pv[:w], y[j0:j1, :a], lower=1)
            y[j0:j1, :a] = yj
            if h > w:
                y[part.below_rows[s], :a] -= pv[w:] @ yj


def _panel_solve_upper(
    part: SupernodePartition, data: np.ndarray, x: np.ndarray
) -> None:
    """In-place backward solve ``Lᵀ x = b`` over supernode panels."""
    snode_ptr, panel_off = part.snode_ptr, part.panel_off
    widths, heights = part.widths, part.heights
    for s in range(part.n_supernodes - 1, -1, -1):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w, h = int(widths[s]), int(heights[s])
        pv = data[panel_off[s] : panel_off[s + 1]].reshape(h, w)
        if h > w:
            x[j0:j1] -= pv[w:].T @ x[part.below_rows[s]]
        x[j0:j1], _ = dtrtrs(pv[:w], x[j0:j1], lower=1, trans=1)


# --------------------------------------------------------------------- #
# Factor-based kernels                                                   #
# --------------------------------------------------------------------- #
def sparse_trsv_lower(
    factor: CholeskyFactor, b: np.ndarray, start_row: int = 0
) -> np.ndarray:
    """Solve ``L y = b`` for a single right-hand side.

    Parameters
    ----------
    factor:
        The Cholesky factor (values in the permuted ordering).
    b:
        Right-hand side of shape ``(n,)`` (already permuted).
    start_row:
        First possibly nonzero row of ``b``; earlier rows are skipped, which
        is valid because the forward substitution leaves them identically
        zero.
    """
    s = factor.symbolic
    y = np.array(b, dtype=float, copy=True)
    if s.supernodes is not None:
        _panel_solve_lower(s.supernodes, factor.panel_values(), y, start_row=start_row)
    else:
        _csc_lower_inplace(s.col_ptr, s.row_idx, factor.values, y, start_row=start_row)
    return y


def sparse_trsv_upper(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``Lᵀ x = b`` for a single right-hand side."""
    s = factor.symbolic
    x = np.array(b, dtype=float, copy=True)
    if s.supernodes is not None:
        _panel_solve_upper(s.supernodes, factor.panel_values(), x)
    else:
        _csc_upper_inplace(s.col_ptr, s.row_idx, factor.values, x)
    return x


def sparse_trsm_lower(
    factor: CholeskyFactor,
    B: np.ndarray,
    start_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``L Y = B`` for a dense multi-column right-hand side.

    Parameters
    ----------
    factor:
        The Cholesky factor.
    B:
        Dense right-hand side, shape ``(n, nrhs)`` (already permuted).
    start_rows:
        Optional per-column first nonzero row.  Columns are grouped by
        sorting on their first row and joining the elimination only once it
        reaches them, so each column skips exactly its own leading zero
        rows (the ``B̃ᵢ`` sparsity exploitation of the PARDISO path).
    """
    s = factor.symbolic
    Y = np.array(B, dtype=float, copy=True)
    if Y.ndim != 2 or Y.shape[0] != s.n:
        raise ValueError("B must have shape (n, nrhs)")
    if start_rows is None or not start_rows.size:
        solve_lower_inplace(factor, Y)
        return Y

    starts = np.asarray(start_rows, dtype=np.int64)
    if starts.shape[0] != Y.shape[1]:
        raise ValueError("start_rows must have one entry per column of B")
    order = np.argsort(starts, kind="stable")
    Y = Y[:, order]
    solve_lower_inplace(factor, Y, sorted_starts=starts[order])
    out = np.empty_like(Y)
    out[:, order] = Y
    return out


def solve_lower_inplace(
    factor: CholeskyFactor, Y: np.ndarray, sorted_starts: np.ndarray | None = None
) -> None:
    """Overwrite the ``(n, nrhs)`` panel ``Y`` with ``L⁻¹ Y``.

    The allocation-free core of :func:`sparse_trsm_lower`, for callers that
    build the right-hand side themselves (the Schur assembly).  With
    ``sorted_starts`` the columns of ``Y`` must already be ordered by
    ascending first nonzero row (``sorted_starts[c]`` for column ``c``).
    """
    s = factor.symbolic
    if s.supernodes is not None:
        _panel_solve_lower(
            s.supernodes, factor.panel_values(), Y, sorted_starts=sorted_starts
        )
    else:
        _csc_lower_inplace(
            s.col_ptr, s.row_idx, factor.values, Y, sorted_starts=sorted_starts
        )


def sparse_trsm_upper(factor: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """Solve ``Lᵀ X = B`` for a dense multi-column right-hand side."""
    s = factor.symbolic
    X = np.array(B, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[0] != s.n:
        raise ValueError("B must have shape (n, nrhs)")
    part = s.supernodes
    if part is not None:
        _panel_solve_upper(part, factor.panel_values(), X)
        return X
    _csc_upper_inplace(s.col_ptr, s.row_idx, factor.values, X)
    return X


# --------------------------------------------------------------------- #
# Stacked same-pattern factors                                           #
# --------------------------------------------------------------------- #
def stacked_diagonal_inverses(
    symbolic: SymbolicFactor, panels: np.ndarray
) -> list[np.ndarray]:
    """Per supernode, the ``(k, w, w)`` inverses of the stack's diagonal blocks.

    One batched ``np.linalg.inv`` per supernode, always in fp64 (fp32-stored
    panels are upcast first): with them every diagonal-block step of
    :func:`solve_stacked` is a batched product instead of ``k`` LAPACK calls.
    Callers that solve repeatedly form them once per numeric factorization.
    """
    part = symbolic.supernodes
    k = panels.shape[0]
    inverses = []
    for s in range(part.n_supernodes):
        w, h = int(part.widths[s]), int(part.heights[s])
        pv = panels[:, part.panel_off[s] : part.panel_off[s + 1]].reshape(k, h, w)
        inverses.append(np.linalg.inv(pv[:, :w].astype(np.float64)))
    return inverses


def solve_stacked(
    symbolic: SymbolicFactor,
    panels: np.ndarray,
    rhs: np.ndarray,
    inverses: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Solve ``Aᵢ xᵢ = bᵢ`` for ``k`` factors sharing one symbolic analysis.

    Parameters
    ----------
    symbolic:
        The shared analysis (permutation and supernode partition).
    panels:
        ``(k, panel_entries)`` stacked dense-panel factor storage (what
        :func:`repro.runtime.kernels.batched_factor_panels` produces, or the
        stacked ``CholeskyFactor.panel_values()`` of ``k`` factors).
    rhs:
        ``(k, n)`` right-hand sides in the original ordering.
    inverses:
        :func:`stacked_diagonal_inverses` of ``panels`` when the caller keeps
        them; formed here otherwise.

    One forward and one backward supernodal sweep for the whole stack: per
    supernode a batched product with the inverse diagonal blocks and one
    ``np.matmul`` over the ``(k, h − w, w)`` off-diagonal blocks, the
    permutation applied once to the ``(k, n)`` stack.  A stack of **one** runs
    the single-factor panel kernels instead — batching buys nothing there and
    the result stays bit-identical to ``SparseSolverBase.solve``.
    """
    part = symbolic.supernodes
    perm = symbolic.perm
    k = panels.shape[0]
    y = np.asarray(rhs, dtype=float)[:, perm]
    if k == 1:
        _panel_solve_lower(part, panels[0], y[0])
        _panel_solve_upper(part, panels[0], y[0])
    elif k > 1:
        if inverses is None:
            inverses = stacked_diagonal_inverses(symbolic, panels)
        snode_ptr, panel_off = part.snode_ptr, part.panel_off
        widths, heights = part.widths, part.heights
        y3 = y[:, :, None]
        blocks = []
        for s in range(part.n_supernodes):
            j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
            w, h = int(widths[s]), int(heights[s])
            pv = panels[:, panel_off[s] : panel_off[s + 1]].reshape(k, h, w)
            below = pv[:, w:] if h > w else None
            blocks.append((j0, j1, below))
            yj = np.matmul(inverses[s], y3[:, j0:j1])
            y3[:, j0:j1] = yj
            if below is not None:
                y3[:, part.below_rows[s]] -= np.matmul(below, yj)
        for s in range(part.n_supernodes - 1, -1, -1):
            j0, j1, below = blocks[s]
            xj = y3[:, j0:j1]
            if below is not None:
                xj = xj - np.matmul(below.transpose(0, 2, 1), y3[:, part.below_rows[s]])
            y3[:, j0:j1] = np.matmul(inverses[s].transpose(0, 2, 1), xj)
    x = np.empty_like(y)
    x[:, perm] = y
    return x


# --------------------------------------------------------------------- #
# Scalar CSC loops (shared by the factor and generic variants)           #
# --------------------------------------------------------------------- #
def _csc_lower_inplace(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    Y: np.ndarray,
    start_row: int = 0,
    sorted_starts: np.ndarray | None = None,
) -> None:
    """Scalar in-place forward solve on (1-D or 2-D) ``Y``.

    With ``sorted_starts`` the columns of a 2-D ``Y`` (pre-sorted by first
    nonzero row) are activated as the elimination reaches their first row.
    """
    n = indptr.shape[0] - 1
    if sorted_starts is not None:
        nrhs = Y.shape[1]
        active = 0
        first = int(sorted_starts[0]) if nrhs else n
        for j in range(first, n):
            while active < nrhs and sorted_starts[active] <= j:
                active += 1
            if active == 0:
                continue
            p0, p1 = indptr[j], indptr[j + 1]
            yj = Y[j, :active] / data[p0]
            Y[j, :active] = yj
            if p1 > p0 + 1:
                Y[indices[p0 + 1 : p1], :active] -= np.outer(data[p0 + 1 : p1], yj)
        return
    for j in range(start_row, n):
        p0, p1 = indptr[j], indptr[j + 1]
        yj = Y[j] / data[p0]
        Y[j] = yj
        if p1 > p0 + 1:
            if Y.ndim == 1:
                Y[indices[p0 + 1 : p1]] -= data[p0 + 1 : p1] * yj
            else:
                Y[indices[p0 + 1 : p1], :] -= np.outer(data[p0 + 1 : p1], yj)


def _csc_upper_inplace(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, X: np.ndarray
) -> None:
    """Scalar in-place backward solve on (1-D or 2-D) ``X``."""
    n = indptr.shape[0] - 1
    for j in range(n - 1, -1, -1):
        p0, p1 = indptr[j], indptr[j + 1]
        if p1 > p0 + 1:
            X[j] -= data[p0 + 1 : p1] @ X[indices[p0 + 1 : p1]]
        X[j] /= data[p0]


# --------------------------------------------------------------------- #
# Generic CSC variants with a prepared/cached factor                     #
# --------------------------------------------------------------------- #
class PreparedCscFactor:
    """A lower-triangular factor prepared for repeated triangular solves.

    Preparing converts the matrix to sorted CSC once (the conversion the
    simulated cuSPARSE TRSM used to repeat on every call) and detects
    supernode panels directly from the CSC pattern: columns chain while each
    is the first below-diagonal row of its predecessor and the dense panel
    over the running below-row union stays within the padding tolerance.
    Panels are kept only when they actually coarsen the pattern (mean width
    ≥ ~1.5 columns); otherwise the scalar loops run on the cached arrays.
    """

    def __init__(
        self,
        L: sp.spmatrix,
        relax: float = RELAX_PADDING,
        max_width: int = MAX_SUPERNODE,
    ) -> None:
        Lc = L.tocsc() if sp.issparse(L) else sp.csc_matrix(L)
        if not Lc.has_sorted_indices:
            Lc = Lc.copy()
            Lc.sort_indices()
        if Lc.shape[0] != Lc.shape[1]:
            raise ValueError("factor must be square")
        self.n = int(Lc.shape[0])
        self.indptr = np.asarray(Lc.indptr, dtype=np.int64)
        self.indices = np.asarray(Lc.indices, dtype=np.int64)
        self.data = np.asarray(Lc.data, dtype=float)
        self.partition: SupernodePartition | None = None
        self.panel_data: np.ndarray | None = None
        if self.n:
            self._build_panels(relax, max_width)

    # ------------------------------------------------------------------ #
    def _build_panels(self, relax: float, max_width: int) -> None:
        indptr, indices, n = self.indptr, self.indices, self.n
        boundaries = [0]
        below_list: list[np.ndarray] = []
        union = indices[indptr[0] + 1 : indptr[1]]
        exact = int(indptr[1] - indptr[0])
        for j in range(n - 1):
            rows_next = indices[indptr[j + 1] + 1 : indptr[j + 2]]
            width = j + 2 - boundaries[-1]
            merge = union.shape[0] > 0 and union[0] == j + 1 and width <= max_width
            if merge:
                cand = np.union1d(union[1:], rows_next)
                exact_next = exact + int(indptr[j + 2] - indptr[j + 1])
                panel = width * (width + 1) // 2 + width * cand.shape[0]
                if panel - exact_next > relax * panel:
                    merge = False
            if merge:
                union = cand
                exact = exact_next
            else:
                boundaries.append(j + 1)
                below_list.append(union)
                union = rows_next
                exact = int(indptr[j + 2] - indptr[j + 1])
        boundaries.append(n)
        below_list.append(union)

        snode_ptr = np.asarray(boundaries, dtype=np.int64)
        nsuper = snode_ptr.shape[0] - 1
        if nsuper > 0.75 * n:  # panels would barely coarsen the column loop
            return
        widths = np.diff(snode_ptr)
        heights = widths + np.array([b.shape[0] for b in below_list], dtype=np.int64)
        panel_off = np.concatenate(([0], np.cumsum(heights * widths))).astype(np.int64)
        col_to_snode = np.repeat(np.arange(nsuper, dtype=np.int64), widths)

        lpos = np.empty(self.indices.shape[0], dtype=np.int64)
        for s in range(nsuper):
            j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
            w = int(widths[s])
            below = below_list[s]
            off = int(panel_off[s])
            for c, j in enumerate(range(j0, j1)):
                rows = indices[indptr[j] : indptr[j + 1]]
                loc = _panel_positions(rows, j0, j1, w, below)
                lpos[indptr[j] : indptr[j + 1]] = off + loc * w + c
        flat = np.zeros(int(panel_off[-1]))
        flat[lpos] = self.data
        self.partition = SupernodePartition(
            snode_ptr=snode_ptr,
            col_to_snode=col_to_snode,
            widths=widths,
            heights=heights,
            panel_off=panel_off,
            below_rows=below_list,
            lpos=lpos,
            updates=[[] for _ in range(nsuper)],
        )
        self.panel_data = flat

    # ------------------------------------------------------------------ #
    def solve_lower(self, B: np.ndarray, start_row: int = 0) -> np.ndarray:
        """Solve ``L Y = B`` (1-D or 2-D right-hand side)."""
        Y = np.array(B, dtype=float, copy=True)
        if self.partition is not None:
            _panel_solve_lower(self.partition, self.panel_data, Y, start_row=start_row)
        else:
            _csc_lower_inplace(
                self.indptr, self.indices, self.data, Y, start_row=start_row
            )
        return Y

    def solve_upper(self, B: np.ndarray) -> np.ndarray:
        """Solve ``Lᵀ X = B`` (1-D or 2-D right-hand side)."""
        X = np.array(B, dtype=float, copy=True)
        if self.partition is not None:
            _panel_solve_upper(self.partition, self.panel_data, X)
        else:
            _csc_upper_inplace(self.indptr, self.indices, self.data, X)
        return X


def prepare_csc_factor(L: sp.spmatrix) -> PreparedCscFactor:
    """Prepare (convert, sort, panel-detect) a lower-triangular factor once."""
    return PreparedCscFactor(L)
