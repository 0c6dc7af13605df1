"""Tests of the fill-reducing orderings.

``repro`` orders by RCM (or not at all); the minimum-degree oracle of
``tests/oracles/ordering.py`` reaches the analysis as an external ``perm=``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh
from repro.sparse import OrderingMethod, compute_ordering, symbolic_cholesky

from tests.oracles.ordering import minimum_degree


@pytest.fixture(scope="module")
def fem_matrix():
    mesh = structured_mesh(2, 4, order=1)
    K = HeatTransferProblem().assemble_stiffness(mesh)
    return (K + sp.identity(K.shape[0])).tocsr()


def _ordering(A: sp.spmatrix, method: str) -> np.ndarray:
    """The package's orderings by name, and ``"amd"`` for the oracle."""
    return minimum_degree(A) if method == "amd" else compute_ordering(A, method)


def test_ordering_methods_are_natural_and_rcm():
    assert [m.value for m in OrderingMethod] == ["natural", "rcm"]
    with pytest.raises(ValueError):
        compute_ordering(sp.identity(3, format="csr"), "amd")


@pytest.mark.parametrize("method", ["natural", "rcm", "amd"])
def test_ordering_is_a_permutation(fem_matrix, method):
    perm = _ordering(fem_matrix, method)
    n = fem_matrix.shape[0]
    assert perm.shape == (n,)
    assert np.array_equal(np.sort(perm), np.arange(n))


@pytest.mark.parametrize("method", ["natural", "rcm"])
def test_string_method_accepted(fem_matrix, method):
    perm = compute_ordering(fem_matrix, method)
    assert perm.size == fem_matrix.shape[0]


def test_natural_is_identity(fem_matrix):
    perm = compute_ordering(fem_matrix, OrderingMethod.NATURAL)
    assert np.array_equal(perm, np.arange(fem_matrix.shape[0]))


@pytest.mark.parametrize("method", ["rcm", "amd"])
def test_fill_reducing_orderings_reduce_fill(fem_matrix, method):
    natural = symbolic_cholesky(fem_matrix, ordering=OrderingMethod.NATURAL)
    reordered = symbolic_cholesky(fem_matrix, perm=_ordering(fem_matrix, method))
    assert reordered.nnz <= natural.nnz


def test_amd_on_arrow_matrix_beats_natural():
    """The arrow matrix is the classic example where ordering matters."""
    n = 30
    rows = [0] * (n - 1) + list(range(1, n)) + list(range(n))
    cols = list(range(1, n)) + [0] * (n - 1) + list(range(n))
    vals = [1.0] * (2 * (n - 1)) + [float(n)] * n
    arrow = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    natural = symbolic_cholesky(arrow, ordering=OrderingMethod.NATURAL)
    amd = symbolic_cholesky(arrow, perm=minimum_degree(arrow))
    assert natural.nnz == n * (n + 1) // 2  # full fill-in
    assert amd.nnz == 2 * n - 1  # no fill-in with the hub eliminated last


@pytest.mark.parametrize("method", ["rcm", "amd"])
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
    assert np.array_equal(_ordering(arrow, method), _ordering(ones, method))


def test_non_square_rejected():
    with pytest.raises(ValueError):
        compute_ordering(sp.csr_matrix(np.ones((2, 3))), OrderingMethod.RCM)
