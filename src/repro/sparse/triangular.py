"""Sparse triangular solves (vector and multi-RHS) over supernode panels.

These are the CPU counterparts of the cuSPARSE ``TRSV``/``TRSM`` kernels used
by the paper.  The factor is given as a :class:`~repro.sparse.numeric.CholeskyFactor`
(its dense supernode panels and the inverses of their diagonal blocks); both
the forward solve with ``L`` and the backward solve with ``Lᵀ`` traverse the
same arrays, so no transposition is ever materialized.

Every kernel dispatches over the **supernode panels** of the symbolic
analysis: one product with the stored inverse of the panel's diagonal block
plus one GEMM per off-panel block, so the Python-level loop runs once per
supernode instead of once per column, and no kernel calls LAPACK: the
factorization inverted every diagonal block once.  The scalar per-column loops these replaced are
the test oracle (``tests/oracles/sparse.py``).

A *stack* of factors sharing one symbolic analysis is solved by
:func:`solve_stacked`: the same sweep with the factor index as the leading
batch axis, so the interpreted work does not grow with the stack.  It runs
from a :func:`stacked_sweep_plan` built once per stack, which addresses each
supernode's below-diagonal rows by a basic slice wherever they are one
contiguous run.

For sparse right-hand sides the forward solve supports skipping leading zero
rows.  The multi-RHS kernel honors **per-column** first-nonzero rows by
sorting the columns and activating them as the elimination reaches their
first row, which mirrors how PARDISO's augmented incomplete factorization
exploits the sparsity of ``B̃ᵢ`` during Schur-complement assembly.

This is the only triangular-solve engine of the package: the simulated GPU
holds byte sizes, not factors, so the GPU approaches solve here too, on the
CHOLMOD-like factors whose ``L`` the paper ships to the GPU instead of
re-deriving it there.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.numeric import CholeskyFactor
from repro.sparse.symbolic import SymbolicFactor

__all__ = [
    "sparse_trsv_lower",
    "sparse_trsv_upper",
    "sparse_trsm_lower",
    "sparse_trsm_upper",
    "stacked_sweep_plan",
    "solve_stacked",
]


# --------------------------------------------------------------------- #
# Shared panel solvers                                                   #
# --------------------------------------------------------------------- #
def _panel_solve_lower(
    factor: CholeskyFactor,
    y: np.ndarray,
    start_row: int = 0,
    sorted_starts: np.ndarray | None = None,
) -> None:
    """In-place forward solve ``L y = b`` over supernode panels.

    Each diagonal-block step is a product with the factor's stored inverse.
    With ``sorted_starts`` (ascending first-nonzero rows of the columns of a
    2-D ``y``) only the already-activated column prefix participates in each
    panel, which is how the per-column right-hand-side sparsity is exploited.
    """
    part = factor.symbolic.supernodes
    snode_ptr, panel_off, inv_off = part.snode_ptr, part.panel_off, part.inv_off
    widths, heights = part.widths, part.heights
    s0 = (
        int(np.searchsorted(snode_ptr[1:], start_row, side="right"))
        if start_row > 0
        else 0
    )
    for s in range(s0, part.n_supernodes):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w, h = int(widths[s]), int(heights[s])
        pv = factor.panels[panel_off[s] : panel_off[s + 1]].reshape(h, w)
        inverse = factor.inverses[inv_off[s] : inv_off[s + 1]].reshape(w, w)
        if sorted_starts is None:
            yj = inverse @ y[j0:j1]
            y[j0:j1] = yj
            if h > w:
                y[part.below_rows[s]] -= pv[w:] @ yj
        else:
            a = int(np.searchsorted(sorted_starts, j1 - 1, side="right"))
            if a == 0:
                continue
            yj = inverse @ y[j0:j1, :a]
            y[j0:j1, :a] = yj
            if h > w:
                y[part.below_rows[s], :a] -= pv[w:] @ yj


def _panel_solve_upper(factor: CholeskyFactor, x: np.ndarray) -> None:
    """In-place backward solve ``Lᵀ x = b`` over supernode panels."""
    part = factor.symbolic.supernodes
    snode_ptr, panel_off, inv_off = part.snode_ptr, part.panel_off, part.inv_off
    widths, heights = part.widths, part.heights
    for s in range(part.n_supernodes - 1, -1, -1):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w, h = int(widths[s]), int(heights[s])
        pv = factor.panels[panel_off[s] : panel_off[s + 1]].reshape(h, w)
        inverse = factor.inverses[inv_off[s] : inv_off[s + 1]].reshape(w, w)
        if h > w:
            x[j0:j1] -= pv[w:].T @ x[part.below_rows[s]]
        x[j0:j1] = inverse.T @ x[j0:j1]


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
    y = np.array(b, dtype=float, copy=True)
    _panel_solve_lower(factor, y, start_row=start_row)
    return y


def sparse_trsv_upper(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``Lᵀ x = b`` for a single right-hand side."""
    x = np.array(b, dtype=float, copy=True)
    _panel_solve_upper(factor, x)
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
    _panel_solve_lower(factor, Y, sorted_starts=sorted_starts)


def sparse_trsm_upper(factor: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """Solve ``Lᵀ X = B`` for a dense multi-column right-hand side."""
    X = np.array(B, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[0] != factor.n:
        raise ValueError("B must have shape (n, nrhs)")
    _panel_solve_upper(factor, X)
    return X


# --------------------------------------------------------------------- #
# Stacked same-pattern factors                                           #
# --------------------------------------------------------------------- #
def _row_index(rows: np.ndarray) -> slice | np.ndarray:
    """``rows`` as a basic slice when they are one contiguous ascending run.

    Indexing with the slice views the rows instead of gathering a copy, and
    an in-place update through it needs no scatter back; any other set of
    rows (empty included) is returned as the index array it is.
    """
    if rows.size and bool((np.diff(rows) == 1).all()):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def stacked_sweep_plan(
    symbolic: SymbolicFactor, panels: np.ndarray, inverses: np.ndarray
) -> list[tuple]:
    """The per-supernode steps of :func:`solve_stacked` on ``k`` stacked factors.

    Step ``s`` is ``(j0, j1, below, rows, inverse)``: the supernode's columns
    ``j0:j1``, its ``(k, h − w, w)`` off-diagonal blocks (a view of
    ``panels``; ``None`` without below rows), the row index of those blocks
    (a basic slice where the rows are one contiguous run, see
    :func:`_row_index`) and the ``(k, w, w)`` diagonal-block inverses (a view
    of ``inverses``).  Built once per stack, so the sweep does no per-call
    index arithmetic; the plan views the factors and is valid only as long as
    they hold the factorization it was built from.
    """
    part = symbolic.supernodes
    k = panels.shape[0]
    plan = []
    for s in range(part.n_supernodes):
        j0, j1 = int(part.snode_ptr[s]), int(part.snode_ptr[s + 1])
        w, h = j1 - j0, int(part.heights[s])
        inverse = inverses[:, part.inv_off[s] : part.inv_off[s + 1]].reshape(k, w, w)
        below = rows = None
        if h > w:
            pv = panels[:, part.panel_off[s] : part.panel_off[s + 1]].reshape(k, h, w)
            below, rows = pv[:, w:], _row_index(part.below_rows[s])
        plan.append((j0, j1, below, rows, inverse))
    return plan


def solve_stacked(
    symbolic: SymbolicFactor,
    panels: np.ndarray,
    inverses: np.ndarray,
    rhs: np.ndarray,
    plan: list[tuple] | None = None,
) -> np.ndarray:
    """Solve ``Aᵢ xᵢ = bᵢ`` for ``k`` factors sharing one symbolic analysis.

    Parameters
    ----------
    symbolic:
        The shared analysis (permutation and supernode partition).
    panels, inverses:
        ``(k, panel_entries)`` and ``(k, inverse_entries)`` stacked factor
        storage (what :func:`repro.sparse.numeric.stacked_cholesky`
        produces, or the stacked ``panels`` / ``inverses`` of ``k`` factors).
    rhs:
        ``(k, n)`` right-hand sides in the original ordering.
    plan:
        :func:`stacked_sweep_plan` of the factors when the caller keeps it;
        built here otherwise.

    One forward and one backward supernodal sweep for the whole stack: per
    supernode a batched product with the inverse diagonal blocks and one
    ``np.matmul`` over the ``(k, h − w, w)`` off-diagonal blocks, whose rows
    of the ``(k, n, 1)`` stack are a view wherever they are contiguous; the
    permutation is applied once to the ``(k, n)`` stack.  A stack of one
    does the single-factor kernels' arithmetic, so its result is bitwise
    ``SparseSolverBase.solve``'s.
    """
    perm = symbolic.perm
    if plan is None:
        plan = stacked_sweep_plan(symbolic, panels, inverses)
    y = np.asarray(rhs, dtype=float)[:, perm]
    y3 = y[:, :, None]
    for j0, j1, below, rows, inverse in plan:
        yj = np.matmul(inverse, y3[:, j0:j1])
        y3[:, j0:j1] = yj
        if below is not None:
            y3[:, rows] -= np.matmul(below, yj)
    for j0, j1, below, rows, inverse in reversed(plan):
        xj = y3[:, j0:j1]
        if below is not None:
            xj = xj - np.matmul(below.transpose(0, 2, 1), y3[:, rows])
        y3[:, j0:j1] = np.matmul(inverse.transpose(0, 2, 1), xj)
    x = np.empty_like(y)
    x[:, perm] = y
    return x
