"""Test oracle: the stacked ``K⁺`` sweep with fancy-indexed below rows.

What :func:`repro.sparse.triangular.solve_stacked` ran before its sweep plan:
every call re-derives each supernode's column range and panel view from the
symbolic analysis, and gathers / scatters the below-diagonal rows of the
``(k, n, 1)`` stack through their index array (``y3[:, below_rows[s]]``),
whether or not they are one contiguous run.  The planned sweep performs the
same floating-point operations in the same order, so it must agree with this
function **bitwise**.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.symbolic import SymbolicFactor
from repro.sparse.triangular import (
    _panel_solve_lower,
    _panel_solve_upper,
    stacked_diagonal_inverses,
)

__all__ = ["fancy_index_solve_stacked"]


def fancy_index_solve_stacked(
    symbolic: SymbolicFactor,
    panels: np.ndarray,
    rhs: np.ndarray,
    inverses: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Solve ``Aᵢ xᵢ = bᵢ`` for ``k`` factors sharing one symbolic analysis."""
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
