"""Test oracle: the per-subdomain coarse right-hand side and coarse matrix.

``looped_compute_e(problem)`` fills ``e = Rᵀ f`` one subdomain block at a
time (``eᵢ = Rᵢᵀ fᵢ``, a small dense product each) — what
``FetiProblem.compute_e`` did before it became one batched product over the
stacked kernel bases ``problem.kernel_stack``.  ``looped_assemble_G(problem)``
assembles ``G = B R`` from one sparse product ``B̃ᵢ Rᵢ`` per subdomain, as
``FetiProblem.assemble_G`` did before it became one pass over the gluing
entries.
"""

from __future__ import annotations

import numpy as np

import scipy.sparse as sp

__all__ = ["looped_assemble_G", "looped_compute_e"]


def looped_compute_e(problem) -> np.ndarray:
    """``e = Rᵀ f``, one dense product per subdomain."""
    offsets = problem.kernel_offsets
    e = np.zeros(problem.total_kernel_dim)
    for sub in problem.subdomains:
        e[offsets[sub.index] : offsets[sub.index + 1]] = sub.kernel.T @ sub.f
    return e


def looped_assemble_G(problem) -> sp.csr_matrix:
    """``G = B R``, one ``B̃ᵢ Rᵢ`` per subdomain, placed at its λ rows."""
    offsets = problem.kernel_offsets
    rows, cols, vals = [], [], []
    for sub in problem.subdomains:
        local = sub.B @ sub.kernel  # (n_lambda_i, kernel_dim)
        rows.append(np.repeat(sub.lambda_ids, sub.kernel_dim))
        cols.append(np.tile(np.arange(sub.kernel_dim) + offsets[sub.index], sub.n_lambda))
        vals.append(np.asarray(local).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(problem.n_lambda, problem.total_kernel_dim),
    ).tocsr()
