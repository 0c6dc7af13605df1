"""Tests of the numeric Cholesky factorization, including property-based ones."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.api.workload import Workload, build_problem
from repro.decomposition import regularize_stiffness
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh
from repro.sparse import OrderingMethod, numeric_cholesky, symbolic_cholesky
from repro.sparse.numeric import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    stacked_cholesky,
    stacked_values,
)

from tests.conftest import fem_stiffness, random_spd_matrix
from tests.oracles import sparse as scalar
from tests.oracles.ordering import ORDERINGS, analysis_kwargs


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("n,density", [(10, 0.3), (60, 0.08), (150, 0.03)])
def test_factorization_reconstructs_matrix(ordering, n, density):
    rng = np.random.default_rng(n)
    A = random_spd_matrix(n, density, rng)
    s = symbolic_cholesky(A, **analysis_kwargs(A, ordering))
    f = numeric_cholesky(A, s)
    L = f.to_csc().toarray()
    Ap = A.toarray()[np.ix_(s.perm, s.perm)]
    assert np.allclose(L @ L.T, Ap, atol=1e-9 * np.abs(Ap).max())
    assert np.allclose(np.triu(L, 1), 0.0)
    assert np.all(f.diagonal() > 0.0)


@pytest.mark.parametrize(
    ("physics", "dim", "order"),
    [
        (HeatTransferProblem(), 2, 1),
        (HeatTransferProblem(), 3, 1),
        (LinearElasticityProblem(), 2, 2),
    ],
)
def test_factorization_of_regularized_fem_matrices(physics, dim, order):
    mesh = structured_mesh(dim, 2, order=order)
    K = physics.assemble_stiffness(mesh)
    dofs_per_node = 1 if isinstance(physics, HeatTransferProblem) else dim
    reg = regularize_stiffness(K, physics.kernel_basis(mesh), mesh, dofs_per_node)
    s = symbolic_cholesky(reg.K_reg)
    f = numeric_cholesky(reg.K_reg, s)
    L = f.to_csc().toarray()
    Ap = reg.K_reg.toarray()[np.ix_(s.perm, s.perm)]
    assert np.allclose(L @ L.T, Ap, atol=1e-10 * np.abs(Ap).max())


def test_upper_factor_view_is_transpose():
    rng = np.random.default_rng(5)
    A = random_spd_matrix(30, 0.15, rng)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    assert np.allclose(f.to_csr_upper().toarray(), f.to_csc().toarray().T)
    assert f.n == 30
    assert f.nnz == s.nnz


def test_indefinite_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    s = symbolic_cholesky(A)
    with pytest.raises(NotPositiveDefiniteError):
        numeric_cholesky(A, s)


def test_refactorization_with_new_values_same_pattern():
    """The symbolic analysis is reusable across numeric refactorizations."""
    rng = np.random.default_rng(11)
    A = random_spd_matrix(50, 0.1, rng)
    s = symbolic_cholesky(A)
    f1 = numeric_cholesky(A, s)
    A2 = (2.5 * A).tocsr()
    f2 = numeric_cholesky(A2, s)
    assert np.allclose(f2.to_csc().data, np.sqrt(2.5) * f1.to_csc().data)
    assert np.allclose(f2.inverses, f1.inverses / np.sqrt(2.5))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=28),
    density=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_factorization_roundtrip(n, density, seed):
    """Property: for any random SPD matrix, L Lᵀ reproduces P A Pᵀ."""
    rng = np.random.default_rng(seed)
    A = random_spd_matrix(n, density, rng)
    s = symbolic_cholesky(A, ordering=OrderingMethod.RCM)
    f = numeric_cholesky(A, s)
    L = f.to_csc().toarray()
    Ap = A.toarray()[np.ix_(s.perm, s.perm)]
    assert np.allclose(L @ L.T, Ap, atol=1e-8 * max(1.0, np.abs(Ap).max()))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_diagonal_dominant_band_matrix(n, seed):
    """Property: banded diagonally dominant matrices factorize without fill errors."""
    rng = np.random.default_rng(seed)
    off = -rng.random(n - 1)
    main = 2.0 + np.abs(off).max() * 2.0 + rng.random(n)
    A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
    s = symbolic_cholesky(A, ordering=OrderingMethod.NATURAL)
    f = numeric_cholesky(A, s)
    L = f.to_csc().toarray()
    assert np.allclose(L @ L.T, A.toarray(), atol=1e-10)


# --------------------------------------------------------------------- #
# The stacked kernel (numeric_cholesky is its stack of one)              #
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def heat_stack():
    """All 64 same-pattern subdomains of the 8x8 heat workload, stacked."""
    subs = build_problem(Workload("heat", 2, (8, 8), 8)).subdomains
    matrices = [s.K_reg for s in subs]
    symbolic = symbolic_cholesky(matrices[0])
    return matrices, symbolic, stacked_values(matrices, symbolic)


def test_stacked_values_are_the_canonical_csc_values(heat_stack):
    matrices, _, values = heat_stack
    for A, row in zip(matrices, values):
        assert np.array_equal(row, A.tocsc().data)


def test_stacked_values_reject_another_pattern(heat_stack):
    _, symbolic, _ = heat_stack
    with pytest.raises(ValueError, match="pattern"):
        stacked_values([sp.identity(symbolic.n, format="csr")], symbolic)


def test_stacked_rows_equal_the_matrices_factored_alone(heat_stack):
    matrices, symbolic, values = heat_stack
    panels, inverses = stacked_cholesky(values, symbolic)
    for A, row, inverse in zip(matrices, panels, inverses):
        alone = numeric_cholesky(A, symbolic)
        assert np.array_equal(row, alone.panels)
        assert np.array_equal(inverse, alone.inverses)
        # The rows are the factor's storage, adopted zero-copy.
        got = CholeskyFactor(symbolic, row, inverse)
        assert np.shares_memory(got.panels, panels) and np.shares_memory(got.inverses, inverses)
        assert np.array_equal(got.to_csc().data, row[symbolic.supernodes.lpos])


def test_stacked_factor_matches_the_flat_scatter_oracle_bitwise():
    """Factored update maps (slices and index pairs) == the flat scatter arrays."""
    base = sp.csc_matrix(fem_stiffness(HeatTransferProblem(), 3))
    base.sort_indices()
    symbolic = symbolic_cholesky(base)
    ref = scalar.symbolic_reference(base)
    scales = np.array([1.0, 2.5, 0.3])
    panels, inverses = stacked_cholesky(scales[:, None] * base.data, symbolic)
    for scale, row, inverse in zip(scales, panels, inverses):
        want_panels, want_inverses = scalar.numeric_reference(base * scale, ref)
        assert np.array_equal(row, want_panels)
        assert np.array_equal(inverse, want_inverses)


def test_stack_of_one_matches_the_flat_scatter_oracle_bitwise(heat_stack):
    matrices, symbolic, values = heat_stack
    oracle = scalar.numeric_reference(matrices[5], scalar.symbolic_reference(matrices[5]))
    for got, want in zip(stacked_cholesky(values[5:6], symbolic), oracle):
        assert np.array_equal(got[0], want)
    factor = numeric_cholesky(matrices[5], symbolic)
    assert np.array_equal(factor.panels, oracle[0])
    assert np.array_equal(factor.inverses, oracle[1])


def test_stacked_factor_names_the_non_spd_member(heat_stack):
    _, symbolic, values = heat_stack
    bad = values.copy()
    bad[3] = -bad[3]
    with pytest.raises(NotPositiveDefiniteError, match="matrix 3 .* supernode 0 "):
        stacked_cholesky(bad, symbolic)


@pytest.mark.parametrize(
    ("physics", "dim"),
    [
        (HeatTransferProblem(), 2),
        (HeatTransferProblem(), 3),
        (LinearElasticityProblem(), 2),
        (LinearElasticityProblem(), 3),
    ],
)
def test_stored_inverses_invert_the_diagonal_blocks(physics, dim):
    """Every stored inverse times its factored diagonal block is ``I``."""
    A = fem_stiffness(physics, dim)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    part = s.supernodes
    assert f.inverses.shape == (part.inverse_entries,)
    assert part.inverse_entries == int((part.widths**2).sum())
    for j in range(part.n_supernodes):
        w, h = int(part.widths[j]), int(part.heights[j])
        block = f.panels[part.panel_off[j] : part.panel_off[j + 1]].reshape(h, w)[:w]
        inverse = f.inverses[part.inv_off[j] : part.inv_off[j + 1]].reshape(w, w)
        assert not np.triu(inverse, 1).any()
        assert np.abs(inverse @ block - np.eye(w)).max() <= 1e-13
