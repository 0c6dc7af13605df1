"""Test oracle: the scalar element matrices as batched products.

``repro.fem.assembly`` writes the P1 heat element matrices in closed form
(``κ·w·(Aₐ·A_b)/|det J|`` from the vertex adjugates).  This is the kernel
they replaced, and the one P2 heat elements still run: the physical
gradients of :attr:`~repro.fem.assembly.ElementStack.grads` (one batched
``matmul``), weighted, and one more batched ``matmul`` for ``gᵀ w g``.
"""

from __future__ import annotations

import numpy as np

from repro.fem.assembly import ElementStack

__all__ = ["matmul_scalar_stiffness"]


def matmul_scalar_stiffness(stack: ElementStack, conductivity: float = 1.0) -> np.ndarray:
    """Element matrices of ``-div(kappa grad u)``, ``(ncells, m, m)``."""
    ncells, nq, m, dim = stack.grads.shape
    g = stack.grads.transpose(0, 2, 1, 3).reshape(ncells, m, nq * dim)
    gw = g * np.repeat(conductivity * stack.wdet, dim, axis=1)[:, None, :]
    return np.matmul(gw, g.transpose(0, 2, 1))
