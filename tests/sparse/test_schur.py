"""Tests of the Schur-complement (explicit dual operator) assembly on the CPU."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import numeric_cholesky, schur_complement, symbolic_cholesky
from repro.sparse.schur import rhs_sparsity_fill

from tests.conftest import random_spd_matrix


@pytest.fixture(scope="module")
def factorized():
    rng = np.random.default_rng(9)
    A = random_spd_matrix(50, 0.1, rng)
    s = symbolic_cholesky(A)
    return A, numeric_cholesky(A, s)


@pytest.mark.parametrize("exploit", [True, False])
def test_schur_matches_dense_reference(factorized, exploit):
    A, factor = factorized
    rng = np.random.default_rng(1)
    B = sp.random(8, 50, density=0.08, random_state=rng).tocsr()
    S = schur_complement(factor, B, exploit_rhs_sparsity=exploit)
    S_ref = (B @ np.linalg.inv(A.toarray()) @ B.T.toarray())
    assert np.allclose(S, S_ref, atol=1e-8 * max(1.0, np.abs(S_ref).max()))
    assert np.allclose(S, S.T, atol=1e-10)


def test_schur_with_signed_boolean_constraints(factorized):
    """The FETI gluing matrices have ±1 entries; the result must stay symmetric PSD."""
    A, factor = factorized
    rows = np.repeat(np.arange(6), 2)
    cols = np.arange(12)
    vals = np.tile([1.0, -1.0], 6)
    B = sp.coo_matrix((vals, (rows, cols)), shape=(6, 50)).tocsr()
    S = schur_complement(factor, B)
    eigs = np.linalg.eigvalsh(S)
    assert eigs.min() > -1e-12
    S_ref = B @ np.linalg.inv(A.toarray()) @ B.T.toarray()
    assert np.allclose(S, S_ref, atol=1e-9)


def test_exploiting_sparsity_gives_identical_result(factorized):
    _, factor = factorized
    rng = np.random.default_rng(3)
    B = sp.random(5, 50, density=0.05, random_state=rng).tocsr()
    assert np.allclose(
        schur_complement(factor, B, exploit_rhs_sparsity=True),
        schur_complement(factor, B, exploit_rhs_sparsity=False),
    )


def test_rhs_sparsity_fill_bounds(factorized):
    _, factor = factorized
    perm = factor.symbolic.perm
    rng = np.random.default_rng(4)
    B = sp.random(10, 50, density=0.05, random_state=rng).tocsr()
    fill = rhs_sparsity_fill(B, perm)
    assert 0.0 < fill <= 1.0
    # a fully dense B cannot be exploited at all
    dense_B = sp.csr_matrix(np.ones((3, 50)))
    assert rhs_sparsity_fill(dense_B, perm) == pytest.approx(1.0)
    # an empty B gives the neutral value 1.0
    assert rhs_sparsity_fill(sp.csr_matrix((0, 50)), perm) == 1.0


def test_empty_constraint_block(factorized):
    _, factor = factorized
    B = sp.csr_matrix((0, 50))
    S = schur_complement(factor, B)
    assert S.shape == (0, 0)


@pytest.mark.parametrize("exploit", [True, False])
def test_schur_scatters_empty_rows_and_duplicate_entries(factorized, exploit):
    """``B̃`` goes into the solve buffer entry by entry: duplicates must add up."""
    A, factor = factorized
    # row 1 is empty (never activated); row 2 stores the entry (2, 7) twice
    rows = np.array([0, 0, 2, 2, 2, 3])
    cols = np.array([4, 30, 7, 7, 11, 49])
    vals = np.array([1.0, -1.0, 0.25, 0.75, -1.0, 2.0])
    B = sp.csr_matrix(
        (vals, cols, np.array([0, 2, 2, 5, 6])), shape=(4, 50)
    )
    assert not B.has_canonical_format
    before = (B.data.copy(), B.indices.copy(), B.indptr.copy())
    S = schur_complement(factor, B, exploit_rhs_sparsity=exploit)
    dense = np.zeros((4, 50))
    np.add.at(dense, (rows, cols), vals)
    S_ref = dense @ np.linalg.inv(A.toarray()) @ dense.T
    assert np.allclose(S, S_ref, atol=1e-10)
    assert np.all(S[1] == 0.0) and np.all(S[:, 1] == 0.0)
    for got, want in zip((B.data, B.indices, B.indptr), before):
        assert np.array_equal(got, want)


def test_schur_assembly_allocates_two_panels_not_five(factorized):
    """One solve buffer plus its re-ordered copy; no dense ``B̃`` round trips."""
    import tracemalloc

    _, factor = factorized
    rng = np.random.default_rng(6)
    n_dual = 40
    B = sp.random(n_dual, 50, density=0.04, random_state=rng).tocsr()
    panel = 50 * n_dual * 8
    schur_complement(factor, B)  # warm: panel values, BLAS buffers
    tracemalloc.start()
    schur_complement(factor, B)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 3 * panel
