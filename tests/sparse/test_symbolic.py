"""Tests of the symbolic Cholesky analysis.

Besides the structural properties of the factor pattern, the bitset analysis
is held bit-identical — elimination tree, factor pattern, permutation maps and
supernode split — to the per-entry pure-Python analysis
(``tests/oracles/sparse.py::symbolic_reference``) on a zoo of patterns, under
both package orderings and under the minimum-degree permutation of
``tests/oracles/ordering.py`` (passed as ``perm=``), and on random patterns
drawn by hypothesis.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh
from repro.sparse import OrderingMethod, numeric_cholesky, symbolic_cholesky

from tests.conftest import fem_stiffness, random_spd_matrix
from tests.oracles import sparse as oracle
from tests.oracles.ordering import ORDERINGS, analysis_kwargs


def _dense_cholesky_pattern(A: np.ndarray) -> np.ndarray:
    """Reference factor pattern from a dense Cholesky with explicit zeros kept."""
    L = np.linalg.cholesky(A)
    return np.abs(L) > 1e-14


@pytest.fixture(scope="module")
def spd_small():
    rng = np.random.default_rng(7)
    return random_spd_matrix(40, 0.12, rng)


def test_elimination_tree_structure(spd_small):
    s = symbolic_cholesky(spd_small)
    parent = s.parent
    # The tree the column merge discovers is Liu's tree of the permuted matrix.
    lower = sp.tril(spd_small[s.perm][:, s.perm], format="csr")
    assert np.array_equal(parent, oracle.elimination_tree(lower))
    n = spd_small.shape[0]
    assert parent.shape == (n,)
    # parents are later columns (or -1 for roots)
    for j, p in enumerate(parent):
        assert p == -1 or p > j
    # at least one root exists
    assert np.any(parent == -1)


@pytest.mark.parametrize("ordering", [OrderingMethod.NATURAL, OrderingMethod.RCM])
def test_pattern_contains_numeric_factor(spd_small, ordering):
    """The symbolic pattern covers every structurally possible nonzero of L."""
    s = symbolic_cholesky(spd_small, ordering=ordering)
    A = spd_small.toarray()[np.ix_(s.perm, s.perm)]
    dense_pattern = _dense_cholesky_pattern(A)
    symbolic_pattern = np.zeros_like(dense_pattern)
    for j in range(s.n):
        rows = s.row_idx[s.col_ptr[j] : s.col_ptr[j + 1]]
        symbolic_pattern[rows, j] = True
    # every numeric nonzero is predicted symbolically (no cancellation misses)
    assert np.all(symbolic_pattern | ~dense_pattern)


def test_columns_start_with_diagonal(spd_small):
    s = symbolic_cholesky(spd_small)
    for j in range(s.n):
        rows = s.row_idx[s.col_ptr[j] : s.col_ptr[j + 1]]
        assert rows[0] == j
        assert np.all(np.diff(rows) > 0)


def test_column_counts_consistent(spd_small):
    s = symbolic_cholesky(spd_small)
    assert s.column_counts.sum() == s.nnz
    assert s.nnz == s.row_idx.shape[0]
    assert s.fill_ratio >= 1.0


def test_flop_estimates_positive_and_monotone():
    mesh_small = structured_mesh(2, 3, order=1)
    mesh_large = structured_mesh(2, 6, order=1)
    heat = HeatTransferProblem()
    reg = sp.identity(mesh_small.nnodes)
    s_small = symbolic_cholesky(heat.assemble_stiffness(mesh_small) + reg)
    s_large = symbolic_cholesky(
        heat.assemble_stiffness(mesh_large) + sp.identity(mesh_large.nnodes)
    )
    assert 0 < s_small.factorization_flops() < s_large.factorization_flops()


def test_tridiagonal_has_no_fill():
    n = 25
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
    s = symbolic_cholesky(A, ordering=OrderingMethod.NATURAL)
    assert s.nnz == 2 * n - 1
    assert s.fill_ratio == pytest.approx(1.0)
    # elimination tree of a tridiagonal matrix is a chain
    assert np.array_equal(s.parent[:-1], np.arange(1, n))


def test_externally_supplied_permutation(spd_small):
    n = spd_small.shape[0]
    perm = np.arange(n)[::-1].copy()
    s = symbolic_cholesky(spd_small, perm=perm)
    assert np.array_equal(s.perm, perm)
    with pytest.raises(ValueError):
        symbolic_cholesky(spd_small, perm=perm[:-1])


def test_non_square_rejected():
    with pytest.raises(ValueError):
        symbolic_cholesky(sp.csr_matrix(np.ones((3, 4))))


# --------------------------------------------------------------------- #
# Bit identity with the per-entry oracle on a matrix zoo                 #
# --------------------------------------------------------------------- #
def _tridiagonal(n: int) -> sp.csr_matrix:
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def _arrow(n: int) -> sp.csr_matrix:
    """Diagonal plus a dense last row/column: natural order has no fill."""
    A = sp.lil_matrix((n, n))
    A.setdiag(float(n))
    A[n - 1, :] = 1.0
    A[:, n - 1] = 1.0
    A[n - 1, n - 1] = float(n)
    return A.tocsr()


def _block_diagonal() -> sp.csr_matrix:
    """Three uncoupled blocks: the elimination tree is a forest."""
    rng = np.random.default_rng(3)
    return sp.block_diag(
        [random_spd_matrix(9, 0.4, rng), _tridiagonal(7), random_spd_matrix(12, 0.3, rng)]
    ).tocsr()


#: (physics, dim, cells); the quadratic minimum-degree ordering only on the small ones.
_FEM = {
    "heat-2d": (HeatTransferProblem(), 2, 3),
    "heat-2d-c8": (HeatTransferProblem(), 2, 8),
    "heat-3d": (HeatTransferProblem(), 3, 3),
    "heat-3d-c8": (HeatTransferProblem(), 3, 8),
    "elasticity-2d": (LinearElasticityProblem(), 2, 4),
    "elasticity-3d": (LinearElasticityProblem(), 3, 3),
}
FEM_ZOO = [
    pytest.param(*case, ordering, id=f"{name}-{ordering}")
    for name, case in _FEM.items()
    for ordering in ORDERINGS
    if ordering != "amd" or name != "heat-3d-c8"
]

SMALL_ZOO = [
    pytest.param(_tridiagonal(25), id="tridiagonal"),
    pytest.param(_arrow(15), id="arrow"),
    pytest.param(_block_diagonal(), id="block-diagonal"),
    pytest.param(sp.csr_matrix(np.array([[4.0]])), id="1x1"),
    pytest.param(sp.identity(6, format="csr") * 2.0, id="diagonal"),
]


def _assert_bit_identical(A, **kwargs):
    s = symbolic_cholesky(A, **kwargs)
    ref = oracle.symbolic_reference(A, **kwargs)
    oracle.assert_matches_reference(s, ref)
    # ... and its band holds the column oracle's factor.
    values = numeric_cholesky(A, s).to_csc().data
    want = oracle.numeric_scalar(A, s).values
    assert np.allclose(values, want, atol=1e-12 * np.abs(want).max(initial=1.0))
    return s


@pytest.mark.parametrize(("physics", "dim", "cells", "ordering"), FEM_ZOO)
def test_analysis_is_bit_identical_to_the_oracle_on_fem_patterns(
    physics, dim, cells, ordering
):
    A = fem_stiffness(physics, dim, cells)
    _assert_bit_identical(A, **analysis_kwargs(A, ordering))


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("A", SMALL_ZOO)
def test_analysis_is_bit_identical_to_the_oracle_on_special_patterns(A, ordering):
    s = _assert_bit_identical(A, **analysis_kwargs(A, ordering))
    assert s.supernodes.snode_ptr[-1] == A.shape[0]


def test_analysis_is_bit_identical_under_an_external_permutation():
    A = fem_stiffness(HeatTransferProblem(), 3, 4)
    perm = np.random.default_rng(5).permutation(A.shape[0])
    s = _assert_bit_identical(A, perm=perm)
    assert np.array_equal(s.perm, perm)
    # non-default supernode settings go through the same maps
    _assert_bit_identical(A, relax=0.0, max_supernode=4)


@pytest.mark.parametrize("seed", range(20))
def test_analysis_is_bit_identical_on_random_spd_patterns(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    A = random_spd_matrix(n, float(rng.uniform(0.03, 0.4)), rng)
    _assert_bit_identical(A, **analysis_kwargs(A, ORDERINGS[seed % 3]))


def test_block_diagonal_pattern_has_a_forest_with_several_roots():
    s = symbolic_cholesky(_block_diagonal(), ordering=OrderingMethod.NATURAL)
    assert np.count_nonzero(s.parent == -1) == 3


# --------------------------------------------------------------------- #
# Rejected and degenerate inputs                                         #
# --------------------------------------------------------------------- #
def test_one_triangle_storage_is_rejected():
    """Regression: an upper-stored matrix used to analyse to a too-small pattern."""
    upper = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [0.0, 2.0, -1.0], [0.0, 0.0, 2.0]]))
    for ordering in OrderingMethod:
        with pytest.raises(ValueError, match="structurally symmetric"):
            symbolic_cholesky(upper, ordering=ordering)
    with pytest.raises(ValueError, match="structurally symmetric"):
        symbolic_cholesky(sp.tril(_tridiagonal(5), format="csr"))
    # explicitly stored zeros count as pattern: symmetric storage passes
    full = (upper + upper.T).tocsr()
    assert symbolic_cholesky(full, ordering="natural").nnz == 5


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_empty_matrix_analyses_to_zero_supernodes(ordering):
    empty = sp.csr_matrix((0, 0))
    s = symbolic_cholesky(empty, **analysis_kwargs(empty, ordering))
    assert s.n == 0 and s.nnz == 0 and s.col_ptr.tolist() == [0]
    part = s.supernodes
    assert part.n_supernodes == 0 and part.panel_entries == 0
    assert part.below_rows == []
    factor = numeric_cholesky(sp.csr_matrix((0, 0)), s)
    assert factor.band.shape == (0, 1)
    assert factor.to_csc().shape == (0, 0)


def test_nbytes_counts_every_index_array():
    A = fem_stiffness(HeatTransferProblem(), 3, 4)
    s = symbolic_cholesky(A)
    arrays = [s.perm, s.parent, s.col_ptr, s.a_indptr, s.a_indices, s.a_lower_map, s.a_band_pos]
    own = sum(a.nbytes for a in arrays)
    masks = sum(map(sys.getsizeof, s.masks))
    assert s.nbytes == own + masks
    # The supernode partition counts once it has been built.
    part = s.supernodes
    assert part.nbytes >= part.band_pos.nbytes + part.panel_pos.nbytes
    assert s.nbytes == own + masks + part.nbytes


# --------------------------------------------------------------------- #
# Parent and column counts against the per-entry oracle (hypothesis)     #
# --------------------------------------------------------------------- #
@st.composite
def symmetric_patterns(draw) -> sp.csr_matrix:
    """A structurally symmetric pattern: up to three uncoupled random blocks."""
    sizes = draw(st.lists(st.integers(0, 24), min_size=1, max_size=3))
    density = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for size in sizes:
        upper = np.triu(rng.random((size, size)) < density, 1)
        blocks.append(sp.csr_matrix(upper | upper.T | np.eye(size, dtype=bool), dtype=float))
    A = sp.block_diag(blocks, format="csr") if blocks else sp.csr_matrix((0, 0))
    if draw(st.booleans()):  # interleave the blocks
        perm = rng.permutation(A.shape[0])
        A = A[perm][:, perm].tocsr()
    return A


def _assert_tree_and_counts(A, **kwargs) -> None:
    s = symbolic_cholesky(A, **kwargs)
    ref = oracle.symbolic_reference(A, perm=s.perm)
    assert np.array_equal(s.parent, ref.parent)
    assert np.array_equal(s.column_counts, np.diff(ref.col_ptr))


@settings(max_examples=60, deadline=None)
@given(A=symmetric_patterns(), ordering=st.sampled_from(ORDERINGS))
def test_property_tree_and_counts_equal_the_oracle(A, ordering):
    _assert_tree_and_counts(A, **analysis_kwargs(A, ordering))


@pytest.mark.parametrize("n", [0, 1])
def test_tree_and_counts_of_the_smallest_patterns(n):
    A = sp.identity(n, format="csr")
    _assert_tree_and_counts(A, perm=np.arange(n))
    s = symbolic_cholesky(A, perm=np.arange(n))
    assert s.parent.tolist() == [-1] * n and s.column_counts.tolist() == [1] * n


def _envelope_entries(A, s) -> int:
    """Entries of the lower envelope of ``P A Pᵀ``: row ``i`` from its first column."""
    PA = sp.coo_matrix(A.tocsr()[s.perm][:, s.perm])
    first = np.arange(s.n)
    np.minimum.at(first, PA.row, PA.col)
    return int((np.arange(s.n) - first + 1).sum())


@pytest.mark.parametrize(("dim", "cells"), [(2, 8), (3, 4)])
def test_tree_and_counts_are_exact_where_the_envelope_overcounts(dim, cells):
    """Elasticity under RCM: the envelope holds explicit zeros, the merge does not."""
    A = fem_stiffness(LinearElasticityProblem(), dim, cells)
    s = symbolic_cholesky(A)
    assert _envelope_entries(A, s) > s.nnz
    _assert_tree_and_counts(A)
