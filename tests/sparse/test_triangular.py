"""The banded triangular solves against independent oracles.

Every solve of the package runs on ``L`` stored as a lower band
(``repro.sparse.triangular``).  The references here never hand the band to a
kernel: ``scipy.linalg.solve_triangular`` on the dense ``L`` gathered by
``to_csc()`` before the first solve, and the scalar per-column CSC solves of
``tests/oracles/sparse.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.api import Workload
from repro.api.workload import build_problem
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.memory.precision import PRECISION_NAMES
from repro.sparse import numeric_cholesky, symbolic_cholesky
from repro.sparse.cache import PatternCache
from repro.sparse.numeric import stacked_cholesky, stacked_values
from repro.sparse.solvers import SparseSolver
from repro.sparse.triangular import solve_banded

from tests.conftest import fem_stiffness, random_spd_matrix
from tests.oracles.sparse import csc_solve_lower, csc_solve_upper

FEM_CASES = [
    pytest.param(HeatTransferProblem(), 2, id="heat-2d"),
    pytest.param(HeatTransferProblem(), 3, id="heat-3d"),
    pytest.param(LinearElasticityProblem(), 2, id="elasticity-2d"),
    pytest.param(LinearElasticityProblem(), 3, id="elasticity-3d"),
]

#: Largest relative difference between two fp64 triangular-solve pairs on
#: the same ``L`` (backward stable, different summation order; measured
#: ≤ 1.0e-15 on the FEM cases).
TOLERANCE = 1e-13


def _dense_solve(L: np.ndarray, perm: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``(L Lᵀ)⁻¹ B[perm]`` scattered back, by two dense LAPACK triangular solves."""
    Y = la.solve_triangular(L, B[perm], lower=True)
    X = np.empty_like(Y)
    X[perm] = la.solve_triangular(L, Y, lower=True, trans="T")
    return X


def _close(got: np.ndarray, ref: np.ndarray) -> bool:
    return bool(np.abs(got - ref).max() <= TOLERANCE * np.abs(ref).max())


@pytest.mark.parametrize("precision", PRECISION_NAMES)
@pytest.mark.parametrize(("physics", "dim"), FEM_CASES)
def test_band_solves_match_dense_triangular_solves(physics, dim, precision):
    K = fem_stiffness(physics, dim)
    solver = SparseSolver(pattern_cache=PatternCache(), precision=precision)
    factor = solver.factorize(K)
    band = factor.band
    L_before = factor.to_csc()
    L = L_before.toarray().astype(float)  # the stored (fp32) values, up-cast
    perm = solver.symbolic.perm
    rng = np.random.default_rng(dim)
    b = rng.standard_normal(K.shape[0])

    assert _close(solver.solve(b), _dense_solve(L, perm, b))
    # The solves read the factor's band where it is, at its storage dtype.
    assert factor.band.dtype == solver.precision.storage_dtype
    assert solver._factor is factor and solver._factor.band is band  # never re-pointed
    assert np.array_equal(factor.to_csc().data, L_before.data)
    assert np.array_equal(factor.diagonal(), L_before.diagonal())


@pytest.mark.parametrize(("physics", "dim"), FEM_CASES)
def test_band_solves_match_the_scalar_csc_oracle(physics, dim):
    K = fem_stiffness(physics, dim)
    s = symbolic_cholesky(K)
    factor = numeric_cholesky(K, s)
    L = factor.to_csc()
    band = factor.band[None]
    b = np.random.default_rng(dim).standard_normal(s.n)
    reference = np.empty(s.n)
    reference[s.perm] = csc_solve_upper(L, csc_solve_lower(L, b[s.perm]))
    assert _close(solve_banded(s.perm, band, b[None])[0], reference)


@pytest.mark.parametrize(("physics", "dim"), FEM_CASES)
def test_fp32_band_solves_match_the_scalar_csc_oracle_on_the_stored_values(physics, dim):
    """An fp32 band is swept in fp64 arithmetic on its rounded entries.

    The oracle solves with ``L`` as stored (up-cast), so the fp32 sweep
    meets it at fp64 accuracy; against the fp64 factor it is ~1e-7 away.
    """
    K = fem_stiffness(physics, dim)
    solver = SparseSolver(pattern_cache=PatternCache(), precision="fp32")
    factor = solver.factorize(K)
    assert factor.band.dtype == np.float32
    L = factor.to_csc().astype(float)
    perm = solver.symbolic.perm
    b = np.random.default_rng(dim).standard_normal(K.shape[0])
    reference = np.empty_like(b)
    reference[perm] = csc_solve_upper(L, csc_solve_lower(L, b[perm]))
    x = solver.solve(b)
    assert x.dtype == np.float64
    assert _close(x, reference)
    exact = spla.spsolve(sp.csc_matrix(K), b)
    assert not _close(x, exact)
    assert np.abs(x - exact).max() <= 1e-4 * np.abs(exact).max()


def test_csc_solve_against_scipy():
    """The scalar CSC oracle itself, against SciPy's triangular solve."""
    rng = np.random.default_rng(5)
    n = 35
    L = sp.tril(sp.random(n, n, density=0.2, random_state=rng)) + sp.diags(
        2.0 + rng.random(n)
    )
    L = sp.csc_matrix(L)
    b = rng.standard_normal(n)
    expected = spla.spsolve_triangular(L.tocsr(), b, lower=True)
    assert np.allclose(csc_solve_lower(L, b), expected)


@pytest.mark.parametrize(("physics", "dim"), FEM_CASES)
def test_band_holds_exactly_the_pattern_of_L(physics, dim):
    s = symbolic_cholesky(fem_stiffness(physics, dim))
    kd, positions = s.band_index()
    cols = np.repeat(np.arange(s.n), np.diff(s.col_ptr))
    assert kd == int((s.row_idx - cols).max())
    assert np.array_equal(positions // (kd + 1), cols)
    assert np.array_equal(positions % (kd + 1), s.row_idx - cols)
    K = fem_stiffness(physics, dim)
    factor = numeric_cholesky(K, s)
    band = stacked_cholesky(stacked_values([K, 4.0 * K], s), s)
    assert band.shape == (2, s.n, kd + 1)
    assert np.count_nonzero(band[0]) == np.count_nonzero(factor.to_csc().data)
    assert np.array_equal(band[1], 2.0 * band[0])
    # No entry of a member's band reaches past its last row.
    rows = np.arange(s.n)[:, None] + np.arange(kd + 1)
    assert not band[:, rows >= s.n].any()


def test_rcm_band_of_the_heat3d_pattern_of_record():
    """Heat 3D ``(2,2,1)x12``: 2 197 DOFs, half-width 133 under RCM."""
    problem = build_problem(Workload("heat", 3, (2, 2, 1), 12))
    s = symbolic_cholesky(problem.subdomains[0].K_reg)
    assert (s.n, s.band_index()[0], s.nnz) == (2197, 133, 213252)


def test_empty_matrix_has_an_empty_band():
    s = symbolic_cholesky(sp.csr_matrix((0, 0)))
    assert s.band_index()[0] == 0
    assert solve_banded(s.perm, np.zeros((1, 0, 1)), np.zeros((1, 0))).shape == (1, 0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    nrhs=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_band_solves_invert_any_spd_matrix(n, nrhs, seed):
    """Property: the banded solves invert ``A`` for any SPD pattern.

    ``nrhs`` copies of the factor form one stack: each member solves its
    own right-hand side.
    """
    rng = np.random.default_rng(seed)
    A = random_spd_matrix(n, 0.3, rng)
    s = symbolic_cholesky(A)
    band = np.repeat(numeric_cholesky(A, s).band[None], nrhs, axis=0)
    perm = (np.arange(nrhs)[:, None] * n + s.perm).reshape(-1)
    B = rng.standard_normal((nrhs, n))
    X = solve_banded(perm, band, B)
    scale = max(1.0, np.abs(A).max())
    assert np.allclose(X @ A, B, atol=1e-7 * scale)
