"""Numeric sparse Cholesky factorization on the factor's band.

Given the pattern produced by :func:`repro.sparse.symbolic.symbolic_cholesky`
this module computes the values of ``L`` such that ``P A Pᵀ = L Lᵀ`` — for a
whole stack of matrices sharing that pattern at once.

Under the analysis' banded (RCM) ordering ``L`` fills exactly inside the band
of ``P A Pᵀ``, so the factor is held as its ``(n, kd + 1)`` lower band
(:meth:`~repro.sparse.symbolic.SymbolicFactor.band_index`).
:func:`stacked_cholesky` scatters the ``k`` matrices' values into one
``(k, n, kd + 1)`` stack of bands — read as ``(k·n, kd + 1)`` it is the band
of their block-diagonal matrix, the entries coupling two members exact
zeros — and factors it with **one** LAPACK ``dpbtrf``.  That stack is what
the ``K⁺`` solves read (:mod:`repro.sparse.triangular`) and what the Schur
assembly gathers its supernode panels from (:mod:`repro.sparse.schur`).
:func:`numeric_cholesky` is its stack of one.

The classic left-looking *column* algorithm is the test oracle
(``tests/oracles/sparse.py::numeric_scalar``); both produce the same factor
up to floating-point roundoff.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf

from repro.sparse.symbolic import SymbolicFactor

__all__ = [
    "CholeskyFactor",
    "NotPositiveDefiniteError",
    "numeric_cholesky",
    "rows_as_stack",
    "stacked_cholesky",
    "stacked_values",
]

#: Reference LAPACK's ``dpbtrf`` factors a band wider than 64 in blocks of 32
#: columns counted from the first row of the whole stack (``ILAENV``), and
#: narrower bands column by column.  A member's sums then depend on where
#: its first row falls in that blocking, so on a wide band every member
#: starts on a multiple of :data:`_DPBTRF_BLOCK` rows (identity rows fill the
#: gaps) and each member's factor is bitwise the same wherever it is stacked.
_DPBTRF_BLOCK = 32
_DPBTRF_UNBLOCKED_KD = 64


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix of a stack has a non-positive pivot.

    ``member`` is its position in the stack, ``column`` the column of the
    failing pivot in the matrix's own (unpermuted) ordering.
    """

    def __init__(self, member: int, column: int) -> None:
        super().__init__(member, column)
        self.member, self.column = member, column

    def __str__(self) -> str:
        return (
            f"matrix {self.member} is not positive definite: non-positive pivot "
            f"at its column {self.column}"
        )


@dataclass
class CholeskyFactor:
    """A numeric Cholesky factor: ``L`` as its lower band.

    Attributes
    ----------
    symbolic:
        The symbolic factorization (pattern, permutation, bandwidth).
    band:
        ``(n, kd + 1)`` band storage of ``L``: row ``c`` holds column ``c``
        from its diagonal down, exact zeros outside ``L``'s pattern.  Usually
        a row of its pattern group's ``(k, n, kd + 1)`` stack.  The CSC values
        of ``L`` are gathered from it on demand (:meth:`to_csc`).
    """

    symbolic: SymbolicFactor
    band: np.ndarray

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
        values = self.band.reshape(-1)[s.band_index()[1]]
        return sp.csc_matrix((values, s.row_idx, s.col_ptr.copy()), shape=(s.n, s.n))

    def diagonal(self) -> np.ndarray:
        """Diagonal entries of ``L``."""
        return self.band[:, 0].copy()


def rows_as_stack(rows: Sequence[np.ndarray]) -> np.ndarray | None:
    """``rows`` as one ``(k, ...)`` array without copying, when they already are one.

    They are when they are consecutive, equally shaped, C-contiguous rows of
    one C-contiguous array (the members of a stack: a
    :class:`~repro.fem.assembly.CsrStack`'s values, a preprocessing group's
    bands), and a single row of any origin is.  ``None`` otherwise.
    """
    first = rows[0]
    base = first if first.base is None else first.base
    if not (isinstance(base, np.ndarray) and base.flags.c_contiguous):
        return None

    def address(a: np.ndarray) -> int:
        return a.__array_interface__["data"][0]

    consecutive = all(
        r.dtype == base.dtype
        and r.shape == first.shape
        and r.flags.c_contiguous
        and address(r) == address(first) + i * first.nbytes
        for i, r in enumerate(rows)
    )
    flat = base.reshape(-1)
    offset, rest = divmod(address(first) - address(base), base.itemsize)
    stop = offset + len(rows) * first.size
    if not consecutive or rest or offset < 0 or stop > flat.size:
        return None
    return flat[offset:stop].reshape(len(rows), *first.shape)


#: A matrix given by its canonical CSR arrays ``(data, indices, indptr)``.
CsrArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _csr_arrays(A: "sp.spmatrix | CsrArrays") -> CsrArrays:
    if isinstance(A, tuple):
        return A
    csr = A.tocsr()
    if not csr.has_sorted_indices:
        csr = csr.copy()
        csr.sort_indices()
    return csr.data, csr.indices, csr.indptr


def stacked_values(
    matrices: "Sequence[sp.spmatrix | CsrArrays]", symbolic: SymbolicFactor
) -> np.ndarray:
    """The ``(k, nnz)`` canonical-CSC values of matrices with the analysed pattern.

    Each matrix is a SciPy matrix or its canonical CSR arrays ``(data,
    indices, indptr)``.  The analysed pattern is structurally symmetric, so a
    matrix that has it stores the same index arrays in canonical CSR form as
    in CSC form: the matrices are checked and stacked as CSR, and one map
    puts the whole stack into CSC order.  Members sharing one pair of index
    arrays are checked once, and values that are consecutive rows of one
    array (a :class:`~repro.fem.assembly.CsrStack`) are read in place
    (:func:`rows_as_stack`) instead of stacked.

    Raises
    ------
    ValueError
        If a matrix does not have exactly the pattern ``symbolic`` describes.
    """
    arrays = [_csr_arrays(A) for A in matrices]
    checked: set[tuple[int, int]] = set()
    for _, indices, indptr in arrays:
        pair = (id(indices), id(indptr))
        if pair in checked:
            continue
        if not (
            np.array_equal(indptr, symbolic.a_indptr)
            and np.array_equal(indices, symbolic.a_indices)
        ):
            raise ValueError(
                "matrix does not have the pattern the symbolic analysis was computed for"
            )
        checked.add(pair)
    nnz = symbolic.a_indices.shape[0]
    rows = [data[:nnz] for data, _, _ in arrays]
    values = rows_as_stack(rows)
    if values is None:
        values = np.stack(rows)
    # Convert the positions 0..nnz-1 once: the CSR -> CSC map of the pattern.
    positions = np.arange(nnz, dtype=np.int64)
    to_csc = sp.csr_matrix(
        (positions, symbolic.a_indices, symbolic.a_indptr), shape=(symbolic.n, symbolic.n)
    )
    return values[:, to_csc.tocsc().data]


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
    return CholeskyFactor(symbolic, stacked_cholesky(stacked_values([A], symbolic), symbolic)[0])


def stacked_cholesky(values: np.ndarray, symbolic: SymbolicFactor) -> np.ndarray:
    """Factor ``k`` SPD matrices sharing one symbolic analysis, as one band.

    Parameters
    ----------
    values:
        ``(k, nnz)`` canonical-CSC values of the matrices
        (:func:`stacked_values`).
    symbolic:
        Their shared symbolic factorization.

    Returns
    -------
    numpy.ndarray
        The C-order ``(k, n, kd + 1)`` bands: ``CholeskyFactor(symbolic,
        band[i])`` is matrix ``i``'s factor, bitwise the factor of that
        matrix alone.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is not positive: the first failing matrix, with the
        column of the pivot in its original ordering.
    """
    s = symbolic
    k, n, width = values.shape[0], s.n, s.kd + 1
    stride = n
    if s.kd > _DPBTRF_UNBLOCKED_KD:
        stride = -(-n // _DPBTRF_BLOCK) * _DPBTRF_BLOCK
    flat = np.zeros(k * stride * width)
    rows = flat.reshape(k, stride, width)
    rows[:, n:, 0] = 1.0
    rows.reshape(k, -1)[:, s.a_band_pos] = values[:, s.a_lower_map]
    if flat.size:
        factored, info = dpbtrf(rows.reshape(k * stride, width).T, lower=1, overwrite_ab=1)
        # The F-contiguous fp64 view is factored in place, never copied.
        assert info >= 0 and np.shares_memory(factored, flat)
        del factored
        if info > 0:
            member, column = divmod(info - 1, stride)
            raise NotPositiveDefiniteError(member, int(s.perm[column]))
    del rows
    if stride != n:  # drop the identity rows in place
        size = n * width
        for i in range(1, k):
            flat[i * size : (i + 1) * size] = flat[i * stride * width :][:size]
        flat.resize(k * size, refcheck=False)
    return flat.reshape(k, n, width)
