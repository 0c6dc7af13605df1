"""Test oracle: the stacked ``K⁺`` sweep with fancy-indexed below rows.

What :func:`repro.sparse.triangular.solve_stacked` ran before its sweep plan:
every call re-derives each supernode's column range, panel view and inverse
view from the symbolic analysis, and gathers / scatters the below-diagonal
rows of the ``(k, n, 1)`` stack through their index array
(``y3[:, below_rows[s]]``), whether or not they are one contiguous run.  The
planned sweep performs the same floating-point operations in the same order,
so it must agree with this function **bitwise**.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.symbolic import SymbolicFactor

__all__ = ["fancy_index_solve_stacked"]


def fancy_index_solve_stacked(
    symbolic: SymbolicFactor,
    panels: np.ndarray,
    inverses: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve ``Aᵢ xᵢ = bᵢ`` for ``k`` factors sharing one symbolic analysis."""
    part = symbolic.supernodes
    perm = symbolic.perm
    k = panels.shape[0]
    y = np.asarray(rhs, dtype=float)[:, perm]
    snode_ptr, panel_off, inv_off = part.snode_ptr, part.panel_off, part.inv_off
    widths, heights = part.widths, part.heights
    y3 = y[:, :, None]
    blocks = []
    for s in range(part.n_supernodes):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w, h = int(widths[s]), int(heights[s])
        pv = panels[:, panel_off[s] : panel_off[s + 1]].reshape(k, h, w)
        inverse = inverses[:, inv_off[s] : inv_off[s + 1]].reshape(k, w, w)
        below = pv[:, w:] if h > w else None
        blocks.append((j0, j1, below, inverse))
        yj = np.matmul(inverse, y3[:, j0:j1])
        y3[:, j0:j1] = yj
        if below is not None:
            y3[:, part.below_rows[s]] -= np.matmul(below, yj)
    for s in range(part.n_supernodes - 1, -1, -1):
        j0, j1, below, inverse = blocks[s]
        xj = y3[:, j0:j1]
        if below is not None:
            xj = xj - np.matmul(below.transpose(0, 2, 1), y3[:, part.below_rows[s]])
        y3[:, j0:j1] = np.matmul(inverse.transpose(0, 2, 1), xj)
    x = np.empty_like(y)
    x[:, perm] = y
    return x
