"""Tests of the symbolic Cholesky analysis.

Besides the structural properties of the factor pattern, the array-form
analysis is held bit-identical — every field of ``SymbolicFactor`` and
``SupernodePartition`` — to the per-entry pure-Python analysis it replaced
(``tests/oracles/sparse.py::symbolic_reference``) on a zoo of patterns.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh
from repro.sparse import OrderingMethod, numeric_cholesky, symbolic_cholesky

from tests.conftest import fem_stiffness, random_spd_matrix
from tests.oracles import sparse as oracle


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
    assert 0.0 < s.factor_density() <= 1.0
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
    assert s_small.solve_flops(1) < s_small.solve_flops(10)


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
    pytest.param(*case, ordering, id=f"{name}-{ordering.value}")
    for name, case in _FEM.items()
    for ordering in OrderingMethod
    if ordering is not OrderingMethod.AMD or name != "heat-3d-c8"
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
    # ... and therefore factors to the very same panels.
    factor = numeric_cholesky(A, s)
    assert np.array_equal(factor.panel_values(), oracle.numeric_reference(A, ref))
    return s


@pytest.mark.parametrize(("physics", "dim", "cells", "ordering"), FEM_ZOO)
def test_analysis_is_bit_identical_to_the_oracle_on_fem_patterns(
    physics, dim, cells, ordering
):
    _assert_bit_identical(fem_stiffness(physics, dim, cells), ordering=ordering)


@pytest.mark.parametrize("ordering", list(OrderingMethod))
@pytest.mark.parametrize("A", SMALL_ZOO)
def test_analysis_is_bit_identical_to_the_oracle_on_special_patterns(A, ordering):
    s = _assert_bit_identical(A, ordering=ordering)
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
    _assert_bit_identical(A, ordering=list(OrderingMethod)[seed % 3])


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


@pytest.mark.parametrize("ordering", list(OrderingMethod))
def test_empty_matrix_analyses_to_zero_supernodes(ordering):
    s = symbolic_cholesky(sp.csr_matrix((0, 0)), ordering=ordering)
    assert s.n == 0 and s.nnz == 0 and s.col_ptr.tolist() == [0]
    part = s.supernodes
    assert part.n_supernodes == 0 and part.panel_entries == 0
    assert part.below_rows == [] and part.updates == []
    factor = numeric_cholesky(sp.csr_matrix((0, 0)), s)
    assert factor.values.shape == (0,)


def test_nbytes_counts_every_index_array():
    A = fem_stiffness(HeatTransferProblem(), 3, 4)
    s = symbolic_cholesky(A)
    part = s.supernodes
    arrays = [s.perm, s.parent, s.col_ptr, s.row_idx, s.a_indptr, s.a_indices,
              s.a_lower_indptr, s.a_lower_rows, s.a_lower_map]  # fmt: skip
    own = sum(a.nbytes for a in arrays)
    maps = sum(
        idx.nbytes
        for updates in part.updates
        for update in updates
        for idx in update[3:]
        if isinstance(idx, np.ndarray)
    )
    assert part.nbytes >= part.lpos.nbytes + part.ainit_pos.nbytes + maps
    assert s.nbytes == own + part.nbytes
    # the update maps are O(rows + cols), not O(rows x cols), per update
    flat = sum(
        oracle.update_scatter(u, int(part.heights[j]), int(part.widths[j])).nbytes
        for j, updates in enumerate(part.updates)
        for u in updates
    )
    assert maps < flat / 4
