"""Symbolic analysis for sparse Cholesky factorization.

The symbolic phase is executed once per sparsity pattern (the paper's
"preparation" phase): it computes a fill-reducing permutation, the
elimination tree, the nonzero pattern of the factor and the column counts.
The numeric phase (:mod:`repro.sparse.numeric`) then only fills values into
this pattern, which is exactly the split production solvers (CHOLMOD,
PARDISO) use and the reason the paper can re-run only the numeric
factorization in every time step.

The fill-reducing ordering (RCM by default) is a *banded* ordering, and
under it the fill stays inside the band (George and Liu): ``L`` has the
half-bandwidth ``kd = max(row − col)`` of the permuted lower triangle of
``A``.  The numeric factor is therefore held as the ``(n, kd + 1)`` band
(:meth:`SymbolicFactor.band_index`), scattered from ``A``'s values through
one position map (``a_band_pos``) and factored by LAPACK.

The exact pattern of ``L`` — which ``nnz(L)``, the factorization flops and
every cost-model figure derived from them read — comes from a **bitset
merge**: column ``j``'s below-diagonal structure is one Python ``int`` (bit
``i`` is row ``j + 1 + i``), its elimination-tree parent is the lowest set
bit, and it ORs its structure, minus that bit, into its parent's (Liu 1990:
``struct(L[:, j]) = struct(A[j:, j]) ∪ ⋃ struct(L[:, c]) \\ {c}`` over the
children ``c``).  The interpreter takes ``O(n)`` steps of word-parallel
integer arithmetic; everything proportional to ``nnz(L)`` happens inside
NumPy calls.  The envelope alone would not do: on elasticity patterns it
overcounts ``nnz(L)``.

The **supernode partition** — maximal relaxed parent-chains of columns whose
nested patterns are merged into dense trapezoidal panels — is only the tiling
of the explicit approaches' Schur sweep (:mod:`repro.sparse.schur`), so it is
built lazily, from the column structures, on first access of
:attr:`SymbolicFactor.supernodes`.  Its relaxed amalgamation tolerates a
bounded fraction of explicit-zero padding, graded by panel width as in
CHOLMOD's relaxed supernodes (Chen, Davis, Hager and Rajamanickam,
*Algorithm 887*, ACM TOMS 2008):

========  ==============  =============================================
columns   max. padding    source
========  ==============  =============================================
≤ 4       any             CHOLMOD ``nrelax0 = 4``
≤ 16      80 %            CHOLMOD ``nrelax1 = 16``, ``zrelax0 = 0.8``
17 - 32   25 %            this package (:data:`MAX_SUPERNODE` caps it)
========  ==============  =============================================

All of it depends only on the pattern, so :mod:`repro.sparse.cache` can share
one :class:`SymbolicFactor` across every subdomain with the same sparsity.
The per-entry pure-Python analysis (Liu's path-compressed tree, row patterns
by tree reach) lives on as the oracle
``tests/oracles/sparse.py::symbolic_reference``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.sparse.ordering import OrderingMethod, compute_ordering

__all__ = [
    "SupernodePartition",
    "SymbolicFactor",
    "detect_supernodes",
    "symbolic_cholesky",
]

#: Default cap on supernode width (columns per dense panel).
MAX_SUPERNODE = 32

#: Default relaxed-amalgamation schedule (the module docstring's tier table):
#: ``(width, tolerance)`` tiers, ascending in width.  A merged panel of at
#: most ``width`` columns may contain up to ``tolerance`` explicit-zero
#: padding; a panel wider than every tier gets the last tier's tolerance.
#: The first two tiers are CHOLMOD's default relaxed amalgamation.
RELAX_PADDING: tuple[tuple[int, float], ...] = (
    (4, 1.0),
    (16, 0.8),
    (MAX_SUPERNODE, 0.25),
)

#: A padding policy: one uniform tolerance, or a tier schedule like
#: :data:`RELAX_PADDING`.
Relax = float | tuple[tuple[int, float], ...]


@dataclass
class SupernodePartition:
    """Supernodes of a factor pattern, with their dense-panel layout.

    Supernode ``s`` owns the column range ``snode_ptr[s]:snode_ptr[s + 1]``
    and is a dense row-major trapezoidal panel of shape ``(heights[s],
    widths[s])``: the first ``widths[s]`` panel rows are the triangular
    diagonal block, the remaining rows correspond to ``below_rows[s]`` (the
    strictly-below-panel pattern of the supernode's last column, which by
    elimination-tree nestedness contains the below rows of every column of
    the chain).

    The panels are gathered from a factor's band: the ``e``-th entry of
    ``L`` in panel order sits at flat position ``band_pos[e]`` of the
    ``(n, kd + 1)`` band and ``panel_pos[e]`` (ascending) of the concatenated
    panels (``panel_off`` layout), so a gather writes the panels front to
    back; every other panel position is padding and holds an exact zero.
    """

    snode_ptr: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    panel_off: np.ndarray
    below_rows: list[np.ndarray]
    band_pos: np.ndarray
    panel_pos: np.ndarray

    @property
    def n_supernodes(self) -> int:
        """Number of supernodes."""
        return int(self.snode_ptr.shape[0] - 1)

    @property
    def panel_entries(self) -> int:
        """Total entries of the concatenated dense panels (incl. padding)."""
        return int(self.panel_off[-1])

    @property
    def nbytes(self) -> int:
        """Bytes of every index array of the partition."""
        return _index_nbytes(list(vars(self).values()))


@dataclass
class SymbolicFactor:
    """Symbolic Cholesky factorization of a permuted SPD matrix.

    The factor ``L`` is lower triangular with the permuted matrix satisfying
    ``P A Pᵀ = L Lᵀ``.  Only the pattern is stored here.

    Attributes
    ----------
    n:
        Matrix dimension.
    perm:
        Fill-reducing permutation (``A`` is reordered as ``A[perm][:, perm]``).
    parent:
        Elimination tree (parent of each column, ``-1`` for roots).
    col_ptr:
        Column pointers of ``L``'s CSC pattern (diagonal included); the row
        indices are :attr:`row_idx`, derived on demand.
    masks:
        Below-diagonal structure of every column of ``L``: bit ``i`` of
        ``masks[j]`` is row ``j + 1 + i``.
    kd:
        Half-bandwidth of ``L`` (and of the permuted ``A``).
    """

    n: int
    perm: np.ndarray
    parent: np.ndarray
    col_ptr: np.ndarray
    masks: list[int] = field(repr=False)
    kd: int
    #: ``nnz(L)`` divided by the nnz of the lower triangle of ``A`` (fill-in).
    fill_ratio: float = 1.0
    # Pattern of the analysed matrix (structurally symmetric, so its
    # canonical CSR and CSC index arrays are the same pair), the canonical
    # CSR data positions of the entries of the permuted lower triangle, and
    # the band position of every one of them.
    a_indptr: np.ndarray | None = field(default=None, repr=False)
    a_indices: np.ndarray | None = field(default=None, repr=False)
    a_lower_map: np.ndarray | None = field(default=None, repr=False)
    a_band_pos: np.ndarray | None = field(default=None, repr=False)
    #: Supernode policy of the lazily built :attr:`supernodes`.
    relax: Relax = field(default=RELAX_PADDING, repr=False)
    max_supernode: int = field(default=MAX_SUPERNODE, repr=False)

    @property
    def nnz(self) -> int:
        """Number of stored entries of ``L`` (including the diagonal)."""
        return int(self.col_ptr[-1])

    @property
    def column_counts(self) -> np.ndarray:
        """Entries per column of ``L`` (including the diagonal)."""
        return np.diff(self.col_ptr)

    @property
    def nbytes(self) -> int:
        """Bytes the analysis holds: index arrays and column structures.

        What one :class:`~repro.sparse.cache.PatternCache` entry keeps
        resident, the supernode partition included once it has been built.
        """
        masks = sum(map(sys.getsizeof, self.masks))
        return masks + _index_nbytes([v for k, v in vars(self).items() if k != "masks"])

    def band_pattern(self) -> np.ndarray:
        """``(n, kd + 1)`` booleans: row ``c`` is column ``c`` of ``L`` from its diagonal."""
        n, kd = self.n, self.kd
        width = (kd + 7) // 8
        blob = b"".join(m.to_bytes(width, "little") for m in self.masks)
        packed = np.frombuffer(blob, dtype=np.uint8).reshape(n, width)
        pattern = np.ones((n, kd + 1), dtype=bool)
        pattern[:, 1:] = np.unpackbits(packed, axis=1, count=kd, bitorder="little")
        return pattern

    def band_index(self) -> tuple[int, np.ndarray]:
        """``L`` as a lower band: its half-width and the position of every entry.

        Entry ``e`` of ``L``'s CSC order, column ``c`` and row ``r``, sits at
        flat position ``c·(kd + 1) + (r − c)`` of a C-order ``(n, kd + 1)``
        array: row ``c`` holds column ``c`` from its diagonal down.  Derived
        on each call, ``O(n·kd)`` inside NumPy.
        """
        return self.kd, np.flatnonzero(self.band_pattern())

    @property
    def row_idx(self) -> np.ndarray:
        """Row indices of ``L``'s CSC pattern, ascending per column (derived)."""
        positions = self.band_index()[1]
        return positions // (self.kd + 1) + positions % (self.kd + 1)

    @cached_property
    def supernodes(self) -> SupernodePartition:
        """The supernode partition, built on first access (explicit approaches)."""
        return _build_partition(self)

    def factorization_flops(self) -> float:
        """Approximate flop count of the numeric factorization.

        The classic estimate ``sum_j nnz(L[:, j])**2`` (each column update is
        a rank-1 modification of the remaining submatrix restricted to the
        column pattern).
        """
        counts = self.column_counts.astype(float)
        return float(np.sum(counts * counts))


def _index_nbytes(obj) -> int:
    """Total ``nbytes`` of the arrays inside (nested) fields of an analysis."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, SupernodePartition):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(map(_index_nbytes, obj))
    return 0


def detect_supernodes(
    parent: np.ndarray,
    col_counts: np.ndarray,
    relax: Relax = RELAX_PADDING,
    max_width: int = MAX_SUPERNODE,
) -> np.ndarray:
    """Partition columns into supernodes (maximal relaxed parent-chains).

    Column ``j + 1`` extends the current chain when it is the elimination-tree
    parent of ``j`` (which guarantees the below-chain patterns are nested) and
    the dense panel of the merged chain would contain at most its tolerance
    of explicit-zero padding.  The default tolerance is graded by the width
    of the merged panel (:data:`RELAX_PADDING`, CHOLMOD's tiers):

    ========  ==============
    columns   max. padding
    ========  ==============
    ≤ 4       any
    ≤ 16      80 %
    wider     25 %
    ========  ==============

    Small panels are merged almost unconditionally because a sweep over
    them pays per call, not per flop.  A float ``relax`` is one uniform
    tolerance for every width; the *strict* criterion — merge only when
    ``col_counts[j] == col_counts[j + 1] + 1`` — is ``relax=0.0``.

    Parameters
    ----------
    parent:
        Elimination tree of the factor pattern.
    col_counts:
        Entries per column of ``L`` including the diagonal.
    relax:
        Maximal tolerated fraction of padding entries per panel: one float,
        or ``(width, tolerance)`` tiers ascending in width.
    max_width:
        Maximal columns per supernode.

    Returns
    -------
    numpy.ndarray
        ``snode_ptr`` of length ``n_supernodes + 1`` with the column ranges.
    """
    n = parent.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    tolerance = _tolerances(relax, max_width)
    parent, col_counts = np.asarray(parent).tolist(), np.asarray(col_counts).tolist()
    boundaries = [0]
    exact = col_counts[0]
    j0 = 0
    for j in range(n - 1):
        width = j + 2 - j0
        merge = parent[j] == j + 1 and width <= max_width
        if merge:
            nbelow = col_counts[j + 1] - 1
            panel = width * (width + 1) // 2 + width * nbelow
            exact_next = exact + col_counts[j + 1]
            if panel - exact_next > tolerance[width] * panel:
                merge = False
        if merge:
            exact = exact_next
        else:
            boundaries.append(j + 1)
            j0 = j + 1
            exact = col_counts[j + 1]
    boundaries.append(n)
    return np.asarray(boundaries, dtype=np.int64)


def _tolerances(relax: Relax, max_width: int) -> list[float]:
    """Padding tolerance of a merged panel, indexed by its width ``0..max_width``."""
    if isinstance(relax, (int, float)):
        return [float(relax)] * (max_width + 1)
    return [
        next((tol for limit, tol in relax if width <= limit), relax[-1][1])
        for width in range(max_width + 1)
    ]


def _build_partition(s: SymbolicFactor) -> SupernodePartition:
    """The supernode split of ``s`` with its panel layout and band gather maps.

    Every map is built for all supernodes at once, in panel order: panel
    entry ``(ρ, c)`` of supernode ``k`` is column ``j0 + c`` of ``L`` at its
    ``ρ``-th panel row (the supernode's own columns, then its below rows),
    and it is an entry of ``L`` where that row lies inside the column's band
    and its bit is set.
    """
    n, kd = s.n, s.kd
    snode_ptr = detect_supernodes(
        s.parent, s.column_counts, relax=s.relax, max_width=s.max_supernode
    )
    widths = np.diff(snode_ptr)
    nsuper = widths.shape[0]
    pattern = s.band_pattern()
    last = snode_ptr[1:] - 1
    owner, offset = np.nonzero(pattern[last, 1:])
    below_all = last[owner] + 1 + offset
    nbelow = np.bincount(owner, minlength=nsuper).astype(np.int64)
    heights = widths + nbelow
    panel_off = np.concatenate(([0], np.cumsum(heights * widths))).astype(np.int64)

    row_ptr = np.concatenate(([0], np.cumsum(heights))).astype(np.int64)
    panel_rows = np.empty(int(row_ptr[-1]), dtype=np.int64)
    panel_rows[_ragged_arange(row_ptr[:-1], widths)] = np.arange(n)
    panel_rows[_ragged_arange(row_ptr[:-1] + widths, nbelow)] = below_all
    # Entry c of a panel row is column first + c, at offset (row - first) - c.
    row_width = np.repeat(widths, heights)
    first = np.repeat(snode_ptr[:-1], heights)
    c = _ragged_arange(np.zeros_like(row_width), row_width)
    cols = np.repeat(first, row_width) + c
    offsets = np.repeat(panel_rows - first, row_width) - c
    band = cols * (kd + 1) + offsets
    inside = (offsets >= 0) & (offsets <= kd)
    inside[inside] = pattern.reshape(-1)[band[inside]]
    panel_pos = np.flatnonzero(inside)
    below_ptr = np.concatenate(([0], np.cumsum(nbelow))).tolist()
    return SupernodePartition(
        snode_ptr=snode_ptr,
        widths=widths,
        heights=heights,
        panel_off=panel_off,
        below_rows=[below_all[a:b] for a, b in zip(below_ptr[:-1], below_ptr[1:])],
        band_pos=band[panel_pos],
        panel_pos=panel_pos,
    )


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lengths[i])`` over ``i``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _canonical_csc(A: sp.spmatrix) -> sp.csc_matrix:
    """CSC form with sorted indices, copying only when necessary."""
    csc = A.tocsc()
    if not csc.has_sorted_indices:
        csc = csc.copy()
        csc.sort_indices()
    return csc


def _column_masks(
    n: int, kd: int, lower_cols: np.ndarray, lower_rows: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Elimination tree and the below-diagonal structure of every column of ``L``.

    The structure of the permuted lower triangle is packed into one
    little-endian bit row per column (bit ``i`` = row ``j + 1 + i``) and read
    as one ``int`` each.  Then, in column order, every column's parent is its
    lowest set bit and its structure minus that bit, re-based at the parent,
    is ORed into the parent's: each child is final before its parent is
    read.
    """
    width = (kd + 7) // 8
    below = lower_rows > lower_cols
    cols, offsets = lower_cols[below], lower_rows[below] - lower_cols[below] - 1
    packed = np.bincount(
        cols * width + (offsets >> 3),
        weights=np.left_shift(1, offsets & 7),
        minlength=n * width,
    )
    blob = packed.astype(np.uint8).tobytes()
    step = max(width, 1)  # no bytes at all when kd == 0
    masks = [int.from_bytes(blob[i : i + width], "little") for i in range(0, n * step, step)]
    parent = np.full(n, -1, dtype=np.int64)
    for j, mask in enumerate(masks):
        if mask:
            shift = (mask & -mask).bit_length()
            parent[j] = p = j + shift
            masks[p] |= mask >> shift
    return parent, masks


def _require_symmetric_pattern(csc: sp.csc_matrix) -> None:
    """Raise unless the stored pattern equals the pattern of its transpose.

    The analysis reads the lower triangle of the permuted pattern only, so a
    matrix stored as one triangle (or structurally unsymmetric) would
    silently get a too-small factor pattern.
    """
    transposed = _canonical_csc(csc.T)
    if not (
        np.array_equal(transposed.indptr, csc.indptr)
        and np.array_equal(transposed.indices, csc.indices)
    ):
        raise ValueError(
            "matrix pattern is not structurally symmetric; symbolic_cholesky "
            "needs both triangles stored"
        )


def symbolic_cholesky(
    A: sp.spmatrix,
    ordering: OrderingMethod | str = OrderingMethod.RCM,
    perm: np.ndarray | None = None,
    relax: Relax = RELAX_PADDING,
    max_supernode: int = MAX_SUPERNODE,
) -> SymbolicFactor:
    """Symbolic Cholesky factorization of an SPD matrix.

    Parameters
    ----------
    A:
        Symmetric positive definite sparse matrix (only the pattern is used;
        it must be structurally symmetric, i.e. both triangles stored).
    ordering:
        Fill-reducing ordering method (ignored when ``perm`` is given).
    perm:
        Optional externally computed permutation.
    relax:
        Relaxed-amalgamation padding policy of the supernode partition: the
        width-graded default, or one uniform float tolerance (see
        :func:`detect_supernodes`).
    max_supernode:
        Maximal columns per supernode.

    Raises
    ------
    ValueError
        If ``A`` is not square, its stored pattern is not symmetric, or
        ``perm`` has the wrong shape.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    csc = _canonical_csc(A)
    _require_symmetric_pattern(csc)
    if perm is not None:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (n,):
            raise ValueError("perm has wrong shape")
    elif n:
        perm = compute_ordering(A, ordering)
    else:  # nothing to order (and RCM cannot reduce over an empty graph)
        perm = np.empty(0, dtype=np.int64)

    # One-pass permutation: classify every stored entry of A by its permuted
    # coordinates, which yields the entries of the permuted lower triangle
    # and where each sits in A's canonical CSR data (reused by every numeric
    # factorization of the same pattern).  The pattern is symmetric, so the
    # CSC index arrays are the CSR ones: entry ``p`` is row ``rows[p]``,
    # column ``cols[p]`` of the CSR.
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[perm] = np.arange(n, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csc.indptr))
    cols = np.asarray(csc.indices, dtype=np.int64)
    pr, pc = inv_perm[rows], inv_perm[cols]
    low_src = np.flatnonzero(pr >= pc)
    lr, lc = pr[low_src], pc[low_src]

    # Fill stays inside the envelope, so L has the bandwidth of P A Pᵀ.
    kd = int((lr - lc).max(initial=0))
    parent, masks = _column_masks(n, kd, lc, lr)
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(int.bit_count, masks), np.int64, n) + 1, out=col_ptr[1:])

    return SymbolicFactor(
        n=n,
        perm=perm,
        parent=parent,
        col_ptr=col_ptr,
        masks=masks,
        kd=kd,
        fill_ratio=float(int(col_ptr[-1]) / max(int(low_src.shape[0]), 1)),
        a_indptr=np.asarray(csc.indptr, dtype=np.int64),
        a_indices=cols,
        a_lower_map=low_src,
        a_band_pos=lc * (kd + 1) + (lr - lc),
        relax=relax,
        max_supernode=max_supernode,
    )
