"""Tests of the sparse solver's phase API."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import SparseSolver

from tests.conftest import random_spd_matrix


@pytest.fixture(scope="module")
def spd():
    rng = np.random.default_rng(17)
    return random_spd_matrix(70, 0.07, rng)


def test_solve_roundtrip(spd):
    solver = SparseSolver()
    solver.analyze(spd)
    solver.factorize(spd)
    b = np.random.default_rng(0).standard_normal(70)
    x = solver.solve(b)
    assert np.allclose(spd @ x, b, atol=1e-9)


def test_factorize_without_analyze_runs_analysis(spd):
    solver = SparseSolver()
    solver.factorize(spd)
    assert solver.is_factorized
    assert solver.factor_nnz > 0


def test_phase_order_errors(spd):
    solver = SparseSolver()
    with pytest.raises(RuntimeError):
        _ = solver.symbolic
    solver.analyze(spd)
    with pytest.raises(RuntimeError):
        solver.solve(np.zeros(70))
    assert not solver.is_factorized


def test_factor_reproduces_the_permuted_matrix(spd):
    solver = SparseSolver()
    solver.factorize(spd)
    factor = solver._factor
    L = factor.to_csc().toarray()
    Ap = spd.toarray()[np.ix_(factor.symbolic.perm, factor.symbolic.perm)]
    assert np.allclose(L @ L.T, Ap, atol=1e-9)


def test_schur_complement_matches_the_dense_reference(spd):
    rng = np.random.default_rng(5)
    B = sp.random(6, 70, density=0.05, random_state=rng).tocsr()
    solver = SparseSolver()
    solver.factorize(spd)
    S = solver.schur_complement(B)
    S_ref = B @ np.linalg.inv(spd.toarray()) @ B.T.toarray()
    assert np.allclose(S, S_ref, atol=1e-8)


def test_refactorization_updates_solution(spd):
    solver = SparseSolver()
    solver.factorize(spd)
    b = np.ones(70)
    x1 = solver.solve(b)
    solver.factorize((2.0 * spd).tocsr())
    x2 = solver.solve(b)
    assert np.allclose(x2, 0.5 * x1)
