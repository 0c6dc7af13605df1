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
from repro.sparse import OrderingMethod, numeric, numeric_cholesky, symbolic_cholesky
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
    assert np.allclose(f2.band, np.sqrt(2.5) * f1.band)


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


def test_stacked_values_are_the_canonical_csr_values(heat_stack):
    matrices, _, values = heat_stack
    for A, row in zip(matrices, values):
        assert A.has_canonical_format and np.array_equal(row, A.data)


def test_the_band_takes_each_lower_entry_from_its_own_position(heat_stack):
    """The CSR positions the analysis maps into the band hold the entries of
    the permuted lower triangle: ``band[c, r − c] = A[perm[r], perm[c]]``."""
    matrices, symbolic, values = heat_stack
    dense = matrices[0].toarray()[np.ix_(symbolic.perm, symbolic.perm)]
    col, offset = np.divmod(symbolic.a_band_pos, symbolic.kd + 1)
    assert np.array_equal(values[0, symbolic.a_lower_map], dense[col + offset, col])


def test_stacked_values_reject_another_pattern(heat_stack):
    _, symbolic, _ = heat_stack
    with pytest.raises(ValueError, match="pattern"):
        stacked_values([sp.identity(symbolic.n, format="csr")], symbolic)


def test_stacked_rows_equal_the_matrices_factored_alone(heat_stack):
    matrices, symbolic, values = heat_stack
    band = stacked_cholesky(values, symbolic)
    assert band.shape == (len(matrices), symbolic.n, symbolic.kd + 1)
    assert band.flags.c_contiguous
    _, positions = symbolic.band_index()
    for A, row in zip(matrices, band):
        alone = numeric_cholesky(A, symbolic)
        assert np.array_equal(row, alone.band)
        # The rows are the factor's storage, adopted zero-copy.
        got = CholeskyFactor(symbolic, row)
        assert np.shares_memory(got.band, band)
        assert np.array_equal(got.to_csc().data, row.reshape(-1)[positions])


def _scaled_stack(A: sp.spmatrix, scales) -> tuple:
    """``A`` scaled by each of ``scales``, stacked under one analysis."""
    symbolic = symbolic_cholesky(A)
    matrices = [(scale * A).tocsr() for scale in scales]
    return matrices, symbolic, stacked_values(matrices, symbolic)


#: Elasticity 3D with 4 cells: 375 DOFs, kd = 98 > 64, so LAPACK's blocked
#: ``dpbtrf`` runs and the members sit on 384-row strides.
WIDE = fem_stiffness(LinearElasticityProblem(), 3, 4)


def test_a_wide_band_member_is_bitwise_the_same_wherever_it_is_stacked():
    matrices, symbolic, values = _scaled_stack(WIDE, [1.0, 2.5, 0.3, 7.0])
    assert symbolic.kd > 64 and symbolic.n % 32
    band = stacked_cholesky(values, symbolic)
    for i in range(len(matrices)):
        assert np.array_equal(stacked_cholesky(values[i:], symbolic)[0], band[i])
        assert np.array_equal(stacked_cholesky(values[: i + 1], symbolic)[i], band[i])
        assert np.array_equal(numeric_cholesky(matrices[i], symbolic).band, band[i])
    # The identity rows between the members are gone from the result.
    assert band.base is None or band.base.size == band.size


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", ["narrow", "wide"])
def test_runs_factored_into_rows_of_one_band_are_the_stack_alone(monkeypatch, name, dtype):
    """``out``: every run of a band's rows holds what the run alone returns.

    An fp64 run of a narrow band is factored where it lies, in place; a wide
    band's run (alignment rows) and an fp32 one are written into the rows.
    """
    A = fem_stiffness(HeatTransferProblem(), 2, 6) if name == "narrow" else WIDE
    _, symbolic, values = _scaled_stack(A, [1.0, 2.5, 0.3, 7.0, 0.9])
    band = np.empty((5, symbolic.n, symbolic.kd + 1), dtype)
    in_place = []
    factor = numeric.dpbtrf

    def noted(ab, *args, **kwargs):
        in_place.append(np.shares_memory(ab, band))
        return factor(ab, *args, **kwargs)

    monkeypatch.setattr(numeric, "dpbtrf", noted)
    for start, stop in [(0, 2), (2, 3), (3, 5)]:
        rows = band[start:stop]
        assert stacked_cholesky(values[start:stop], symbolic, rows) is rows
    assert in_place == [name == "narrow" and dtype == np.float64] * 3
    assert np.array_equal(band, stacked_cholesky(values, symbolic).astype(dtype))


@pytest.mark.parametrize(("physics", "dim"), [
    (HeatTransferProblem(), 2),
    (HeatTransferProblem(), 3),
    (LinearElasticityProblem(), 2),
    (LinearElasticityProblem(), 3),
])  # fmt: skip
def test_stacked_bands_match_the_scalar_column_oracle(physics, dim):
    A = fem_stiffness(physics, dim)
    matrices, symbolic, values = _scaled_stack(A, [1.0, 2.5, 0.3])
    _, positions = symbolic.band_index()
    for Ai, row in zip(matrices, stacked_cholesky(values, symbolic)):
        want = scalar.numeric_scalar(Ai, symbolic).values
        assert np.allclose(row.reshape(-1)[positions], want, atol=1e-12 * np.abs(want).max())
        # Every band position outside L's pattern is an exact zero.
        outside = np.ones(row.size, dtype=bool)
        outside[positions] = False
        assert not row.reshape(-1)[outside].any()


def test_stacked_factor_names_the_non_spd_member(heat_stack):
    _, symbolic, values = heat_stack
    bad = values.copy()
    bad[3] = -bad[3]
    with pytest.raises(NotPositiveDefiniteError, match="matrix 3 .* column") as info:
        stacked_cholesky(bad, symbolic)
    # every pivot is negative: the first one fails, the permutation's first column
    assert (info.value.member, info.value.column) == (3, symbolic.perm[0])


@pytest.mark.parametrize("member", [0, 1, 2])
def test_one_indefinite_member_of_three_is_named_with_its_original_column(member):
    """A wide band (identity rows between members) maps ``info`` back exactly."""
    matrices, symbolic, values = _scaled_stack(WIDE, [1.0, 2.0, 3.0])
    column = 200  # a DOF in the matrix's own ordering
    bad = values.copy()
    diagonal = np.flatnonzero(
        (WIDE.tocsc().indices == column)
        & (np.repeat(np.arange(WIDE.shape[0]), np.diff(WIDE.tocsc().indptr)) == column)
    )
    bad[member, diagonal] = -1.0
    with pytest.raises(NotPositiveDefiniteError) as info:
        stacked_cholesky(bad, symbolic)
    assert (info.value.member, info.value.column) == (member, column)
    assert f"matrix {member} " in str(info.value) and f"column {column}" in str(info.value)
    # SPD values factor again under the same analysis.
    assert np.array_equal(stacked_cholesky(values, symbolic)[member], numeric_cholesky(
        matrices[member], symbolic).band)


@pytest.mark.parametrize(
    ("physics", "dim"),
    [
        (HeatTransferProblem(), 2),
        (HeatTransferProblem(), 3),
        (LinearElasticityProblem(), 2),
        (LinearElasticityProblem(), 3),
    ],
)
def test_panels_gathered_from_the_band_are_the_dense_factor_blocks(physics, dim):
    """The Schur sweep's tiling: panel ``s`` is ``L[rows_s, j0:j1]``, zero padded."""
    A = fem_stiffness(physics, dim)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    L = f.to_csc().toarray()
    part = s.supernodes
    panels = np.zeros(part.panel_entries)
    panels[part.panel_pos] = f.band.reshape(-1)[part.band_pos]
    assert part.panel_pos.shape == part.band_pos.shape == (s.nnz,)
    for j in range(part.n_supernodes):
        j0, j1 = int(part.snode_ptr[j]), int(part.snode_ptr[j + 1])
        rows = np.concatenate((np.arange(j0, j1), part.below_rows[j]))
        panel = panels[part.panel_off[j] : part.panel_off[j + 1]].reshape(len(rows), j1 - j0)
        assert np.array_equal(panel, L[np.ix_(rows, np.arange(j0, j1))])
