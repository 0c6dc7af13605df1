"""Batched shard kernels: same-pattern subdomains as one stacked operation.

A shard of the :class:`~repro.runtime.shard.ShardPlan` owns a group of
subdomains; on structured decompositions most of them share one stiffness
sparsity pattern, so the whole shard can be preprocessed as **one stacked
problem** instead of a Python loop of small ones:

* :func:`batched_factor_panels` — supernodal left-looking factorization of a
  ``(k, nnz)`` stack of same-pattern matrices.  The panel initialization is
  one fancy-index scatter for the whole stack and every supernodal update is
  a single batched GEMM (``np.matmul`` over the leading axis) subtracted from
  ``panels[:, rows, cols]`` — the same factored ``(rows, cols)`` update maps
  the serial kernel reads, with the stack as leading axis; only the tiny
  dense Cholesky/triangular finish of each panel stays per-matrix (the exact
  LAPACK calls of the serial path, keeping results bit-identical per slice).
* :func:`batched_schur_complements` — forward panel TRSM over the stacked
  factors with the right-hand sides padded to the widest subdomain, followed
  by one batched ``WᵀW``.  The padding lanes are exact zeros throughout
  (triangular solves and GEMMs map zero columns to zero columns), so the
  meaningful entries match the per-subdomain kernels.

This is the execution strategy the worker pools run: each shard performs one
batched preprocessing regardless of backend, which is why the sharded
runtime is faster than the per-subdomain reference loop even on a single
core — and overlaps shards across cores where the host has them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dtrtrs

from repro.sparse.numeric import CholeskyFactor, NotPositiveDefiniteError
from repro.sparse.symbolic import SymbolicFactor

__all__ = [
    "csr_to_csc_map",
    "batched_factor_panels",
    "factor_from_panels",
    "batched_schur_complements",
    "padded_dual_rhs",
]


def csr_to_csc_map(pattern: sp.csr_matrix) -> np.ndarray:
    """Data permutation turning canonical CSR data into canonical CSC data.

    Computed once per sparsity pattern: ``A.tocsc().data == A.data[map]``
    for every matrix ``A`` sharing the pattern.
    """
    nnz = int(pattern.nnz)
    probe = sp.csr_matrix(
        (np.arange(1, nnz + 1, dtype=np.float64), pattern.indices, pattern.indptr),
        shape=pattern.shape,
    ).tocsc()
    return (probe.data.astype(np.int64)) - 1


def batched_factor_panels(
    data_csc: np.ndarray, symbolic: SymbolicFactor
) -> np.ndarray:
    """Factor a stack of same-pattern SPD matrices into stacked panels.

    Parameters
    ----------
    data_csc:
        ``(k, nnz)`` canonical-CSC data of ``k`` matrices sharing exactly
        the pattern ``symbolic`` was computed for.
    symbolic:
        The shared symbolic factorization; must carry a supernode partition
        and the cached one-pass permutation map (both are present whenever
        :func:`~repro.sparse.symbolic.symbolic_cholesky` analysed the pattern).

    Returns
    -------
    numpy.ndarray
        ``(k, panel_entries)`` stacked dense-panel factor storage — the
        "factor panels" the process backend ships through shared memory.
        Use :func:`factor_from_panels` to wrap one slice as a
        :class:`~repro.sparse.numeric.CholeskyFactor`.
    """
    part = symbolic.supernodes
    if part is None or symbolic.a_lower_map is None or part.ainit_pos is None:
        raise ValueError(
            "batched factorization needs a supernodal symbolic analysis with "
            "the cached permutation map"
        )
    k = data_csc.shape[0]
    flat = np.zeros((k, part.panel_entries))
    flat[:, part.ainit_pos] = data_csc[:, symbolic.a_lower_map]

    snode_ptr, panel_off = part.snode_ptr, part.panel_off
    widths, heights = part.widths, part.heights
    for j in range(part.n_supernodes):
        j0, j1 = int(snode_ptr[j]), int(snode_ptr[j + 1])
        w, h = int(widths[j]), int(heights[j])
        panels = flat[:, panel_off[j] : panel_off[j + 1]].reshape(k, h, w)

        for d, i0, i1, rows, cols in part.updates[j]:
            wd = int(widths[d])
            pk = flat[:, panel_off[d] : panel_off[d + 1]].reshape(k, -1, wd)
            trailing = pk[:, wd + i0 :, :]
            mult = pk[:, wd + i0 : wd + i1, :]
            panels[:, rows, cols] -= np.matmul(trailing, mult.transpose(0, 2, 1))

        # The dense finish stays per-matrix: the identical LAPACK calls of
        # the serial kernel, so every slice matches the per-subdomain path.
        for i in range(k):
            pv = panels[i]
            ltop, info = dpotrf(pv[:w, :w], lower=1, clean=1)
            if info != 0:
                raise NotPositiveDefiniteError(
                    f"non-positive pivot in matrix {i}, supernode columns {j0}:{j1}"
                )
            pv[:w, :w] = ltop
            if h > w:
                sol, info = dtrtrs(ltop, pv[w:, :].T, lower=1)
                pv[w:, :] = sol.T
    return flat


def factor_from_panels(
    symbolic: SymbolicFactor, panels: np.ndarray
) -> CholeskyFactor:
    """Wrap one panel slice (or arena view) as a numeric factor.

    ``values`` is gathered from the panels (one vectorized take); the panel
    storage itself is adopted zero-copy, so the panel triangular solves of
    the apply phase read straight from the (possibly shared-memory) slice.
    """
    part = symbolic.supernodes
    assert part is not None
    return CholeskyFactor(
        symbolic=symbolic, values=panels[part.lpos], _panel_values=panels
    )


def padded_dual_rhs(
    Bs: list[sp.spmatrix], perm: np.ndarray, width: int
) -> np.ndarray:
    """The stacked, permuted, zero-padded dense right-hand sides ``P B̃ᵀ``.

    Returns ``(k, ndofs, width)`` with column ``c`` of slice ``i`` holding
    row ``c`` of ``Bs[i]`` (rows permuted), and exact-zero padding columns
    beyond ``Bs[i].shape[0]``.
    """
    n = int(perm.shape[0])
    rhs = np.zeros((len(Bs), n, width))
    for i, B in enumerate(Bs):
        dense = np.asarray(sp.csr_matrix(B).todense(), dtype=float)
        rhs[i, :, : dense.shape[0]] = dense.T[perm]
    return rhs


def batched_schur_complements(
    symbolic: SymbolicFactor, panels: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Assemble ``Sᵢ = B̃ᵢ K⁻¹ B̃ᵢᵀ`` for a stack of same-pattern factors.

    ``rhs`` is the padded stack of :func:`padded_dual_rhs` and is consumed
    in place (it becomes ``W = L⁻¹ P B̃ᵀ``).  Returns the ``(k, width,
    width)`` stack of dense local dual operators; slice ``i`` is meaningful
    in its leading ``n_lambda_i`` rows/columns and exactly zero outside.

    The per-column start-row skipping of the serial PARDISO path is an
    exact-zero optimization (leading zero rows solve to zero), so dropping
    it under padding changes no values.
    """
    part = symbolic.supernodes
    if part is None:
        raise ValueError("batched Schur assembly needs a supernode partition")
    k = panels.shape[0]
    snode_ptr, panel_off = part.snode_ptr, part.panel_off
    widths, heights = part.widths, part.heights
    for s in range(part.n_supernodes):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w, h = int(widths[s]), int(heights[s])
        pv = panels[:, panel_off[s] : panel_off[s + 1]].reshape(k, h, w)
        for i in range(k):
            yj, _ = dtrtrs(pv[i, :w], rhs[i, j0:j1], lower=1)
            rhs[i, j0:j1] = yj
        if h > w:
            rhs[:, part.below_rows[s], :] -= np.matmul(pv[:, w:, :], rhs[:, j0:j1])
    return np.matmul(rhs.transpose(0, 2, 1), rhs)
