"""Test oracle: the per-subdomain coarse right-hand side.

``looped_compute_e(problem)`` fills ``e = Rᵀ f`` one subdomain block at a
time (``eᵢ = Rᵢᵀ fᵢ``, a small dense product each) — what
``FetiProblem.compute_e`` did before it became one batched product over the
stacked kernel bases ``problem.kernel_stack``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["looped_compute_e"]


def looped_compute_e(problem) -> np.ndarray:
    """``e = Rᵀ f``, one dense product per subdomain."""
    offsets = problem.kernel_offsets
    e = np.zeros(problem.total_kernel_dim)
    for sub in problem.subdomains:
        e[offsets[sub.index] : offsets[sub.index + 1]] = sub.kernel.T @ sub.f
    return e
