"""Tests of the fill-reducing orderings."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh
from repro.sparse import OrderingMethod, compute_ordering, symbolic_cholesky


@pytest.fixture(scope="module")
def fem_matrix():
    mesh = structured_mesh(2, 4, order=1)
    K = HeatTransferProblem().assemble_stiffness(mesh)
    return (K + sp.identity(K.shape[0])).tocsr()


@pytest.mark.parametrize("method", list(OrderingMethod))
def test_ordering_is_a_permutation(fem_matrix, method):
    perm = compute_ordering(fem_matrix, method)
    n = fem_matrix.shape[0]
    assert perm.shape == (n,)
    assert np.array_equal(np.sort(perm), np.arange(n))


@pytest.mark.parametrize("method", ["natural", "rcm", "amd"])
def test_string_method_accepted(fem_matrix, method):
    perm = compute_ordering(fem_matrix, method)
    assert perm.size == fem_matrix.shape[0]


def test_natural_is_identity(fem_matrix):
    perm = compute_ordering(fem_matrix, OrderingMethod.NATURAL)
    assert np.array_equal(perm, np.arange(fem_matrix.shape[0]))


@pytest.mark.parametrize("method", [OrderingMethod.RCM, OrderingMethod.AMD])
def test_fill_reducing_orderings_reduce_fill(fem_matrix, method):
    natural = symbolic_cholesky(fem_matrix, ordering=OrderingMethod.NATURAL)
    reordered = symbolic_cholesky(fem_matrix, ordering=method)
    assert reordered.nnz <= natural.nnz


def test_amd_on_arrow_matrix_beats_natural():
    """The arrow matrix is the classic example where ordering matters."""
    n = 30
    rows = [0] * (n - 1) + list(range(1, n)) + list(range(n))
    cols = list(range(1, n)) + [0] * (n - 1) + list(range(n))
    vals = [1.0] * (2 * (n - 1)) + [float(n)] * n
    arrow = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    natural = symbolic_cholesky(arrow, ordering=OrderingMethod.NATURAL)
    amd = symbolic_cholesky(arrow, ordering=OrderingMethod.AMD)
    assert natural.nnz == n * (n + 1) // 2  # full fill-in
    assert amd.nnz == 2 * n - 1  # no fill-in with the hub eliminated last


@pytest.mark.parametrize("method", [OrderingMethod.RCM, OrderingMethod.AMD])
def test_stored_zeros_order_like_any_other_entry(fem_matrix, method):
    """Values never reach the ordering: the process backend re-derives an
    analysis from the pattern alone and must land on the same one."""
    A = fem_matrix.tocoo()
    hub = np.arange(1, A.shape[0])  # stored zeros: a dense first row and column
    arrow = sp.coo_matrix(
        (
            np.concatenate([A.data, np.zeros(2 * hub.size)]),
            (np.concatenate([A.row, 0 * hub, hub]), np.concatenate([A.col, hub, 0 * hub])),
        ),
        shape=A.shape,
    ).tocsr()
    arrow.sum_duplicates()
    assert (arrow.data == 0.0).any()
    ones = sp.csr_matrix((np.ones(arrow.nnz), arrow.indices, arrow.indptr), shape=arrow.shape)
    assert np.array_equal(compute_ordering(arrow, method), compute_ordering(ones, method))


def test_non_square_rejected():
    with pytest.raises(ValueError):
        compute_ordering(sp.csr_matrix(np.ones((2, 3))), OrderingMethod.RCM)
