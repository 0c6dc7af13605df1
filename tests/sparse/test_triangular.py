"""Tests of the sparse triangular solves."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    numeric_cholesky,
    sparse_trsm_lower,
    sparse_trsm_upper,
    sparse_trsv_lower,
    sparse_trsv_upper,
    symbolic_cholesky,
)

from tests.conftest import random_spd_matrix
from tests.oracles.sparse import csc_solve_lower, csc_solve_upper


@pytest.fixture(scope="module")
def factor():
    rng = np.random.default_rng(42)
    A = random_spd_matrix(60, 0.08, rng)
    s = symbolic_cholesky(A)
    return numeric_cholesky(A, s)


def test_trsv_lower_upper_roundtrip(factor):
    rng = np.random.default_rng(0)
    b = rng.standard_normal(factor.n)
    L = factor.to_csc().toarray()
    y = sparse_trsv_lower(factor, b)
    assert np.allclose(L @ y, b)
    x = sparse_trsv_upper(factor, y)
    assert np.allclose(L.T @ x, y)
    # together they solve (L L^T) x = b
    assert np.allclose(L @ (L.T @ x), b)


def test_trsm_matches_trsv_per_column(factor):
    rng = np.random.default_rng(1)
    B = rng.standard_normal((factor.n, 5))
    Y = sparse_trsm_lower(factor, B)
    for j in range(5):
        assert np.allclose(Y[:, j], sparse_trsv_lower(factor, B[:, j]))
    X = sparse_trsm_upper(factor, Y)
    L = factor.to_csc().toarray()
    assert np.allclose(L.T @ X, Y)


def test_trsv_start_row_skips_leading_zeros(factor):
    rng = np.random.default_rng(2)
    b = np.zeros(factor.n)
    b[20:] = rng.standard_normal(factor.n - 20)
    full = sparse_trsv_lower(factor, b)
    skipped = sparse_trsv_lower(factor, b, start_row=20)
    assert np.allclose(full, skipped)


def test_trsm_start_rows_skips_leading_zeros(factor):
    rng = np.random.default_rng(3)
    B = np.zeros((factor.n, 3))
    starts = np.array([10, 25, 40])
    for j, s0 in enumerate(starts):
        B[s0:, j] = rng.standard_normal(factor.n - s0)
    assert np.allclose(
        sparse_trsm_lower(factor, B),
        sparse_trsm_lower(factor, B, start_rows=starts),
    )


def test_trsm_rejects_bad_shapes(factor):
    with pytest.raises(ValueError):
        sparse_trsm_lower(factor, np.zeros((factor.n + 1, 2)))
    with pytest.raises(ValueError):
        sparse_trsm_upper(factor, np.zeros(factor.n))


def test_csc_variants_match_factor_variants(factor):
    """The panel kernels equal the scalar CSC oracle on the factor's matrix."""
    rng = np.random.default_rng(4)
    B = rng.standard_normal((factor.n, 4))
    L = factor.to_csc()
    assert np.allclose(csc_solve_lower(L, B), sparse_trsm_lower(factor, B))
    assert np.allclose(csc_solve_upper(L, B), sparse_trsm_upper(factor, B))
    # 1-D right-hand sides
    b = rng.standard_normal(factor.n)
    assert np.allclose(csc_solve_lower(L, b), sparse_trsv_lower(factor, b))
    assert np.allclose(csc_solve_upper(L, b), sparse_trsv_upper(factor, b))


def test_csc_solve_against_scipy():
    rng = np.random.default_rng(5)
    n = 35
    L = sp.tril(sp.random(n, n, density=0.2, random_state=rng)) + sp.diags(
        2.0 + rng.random(n)
    )
    L = sp.csc_matrix(L)
    b = rng.standard_normal(n)
    import scipy.sparse.linalg as spla

    expected = spla.spsolve_triangular(L.tocsr(), b, lower=True)
    assert np.allclose(csc_solve_lower(L, b), expected)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=25),
    nrhs=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_forward_backward_solve_inverts_normal_equations(n, nrhs, seed):
    """Property: the two triangular solves invert ``P A Pᵀ`` for any SPD A."""
    rng = np.random.default_rng(seed)
    A = random_spd_matrix(n, 0.3, rng)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    B = rng.standard_normal((n, nrhs))
    X = sparse_trsm_upper(f, sparse_trsm_lower(f, B))
    Ap = A.toarray()[np.ix_(s.perm, s.perm)]
    assert np.allclose(Ap @ X, B, atol=1e-7 * max(1.0, np.abs(Ap).max()))
