"""Tests of the batched shard kernels against the per-subdomain references."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.workload import Workload, build_problem
from repro.fem.heat import HeatTransferProblem
from repro.runtime.kernels import (
    batched_factor_panels,
    batched_schur_complements,
    csr_to_csc_map,
    factor_from_panels,
    padded_dual_rhs,
)
from repro.sparse.numeric import NotPositiveDefiniteError, numeric_cholesky
from repro.sparse.schur import schur_complement
from repro.sparse.symbolic import symbolic_cholesky

from tests.conftest import fem_stiffness
from tests.oracles import sparse as scalar


@pytest.fixture(scope="module")
def heat_group():
    """All 64 same-pattern subdomains of the 8x8 heat workload."""
    problem = build_problem(Workload("heat", 2, (8, 8), 8))
    subs = problem.subdomains
    base = sp.csr_matrix(subs[0].K_reg)
    symbolic = symbolic_cholesky(base)
    cmap = csr_to_csc_map(base)
    data = np.stack([np.asarray(s.K_reg.data) for s in subs])[:, cmap]
    return subs, symbolic, data


def test_csr_to_csc_map_reproduces_scipy_conversion():
    rng = np.random.default_rng(7)
    A = sp.random(12, 12, density=0.3, random_state=rng, format="csr")
    A.sort_indices()
    cmap = csr_to_csc_map(A)
    assert np.array_equal(A.data[cmap], A.tocsc().data)


def test_batched_factor_matches_serial_bitwise(heat_group):
    subs, symbolic, data = heat_group
    panels = batched_factor_panels(data, symbolic)
    for i, sub in enumerate(subs):
        ref = numeric_cholesky(sub.K_reg, symbolic)
        got = factor_from_panels(symbolic, panels[i])
        assert np.array_equal(got.values, ref.values)
        # The panel slice is adopted zero-copy as the dense-panel storage.
        assert np.shares_memory(got.panel_values(), panels)


def test_batched_factor_matches_the_flat_scatter_oracle_bitwise():
    """Factored update maps (slices and index pairs) == the flat scatter arrays."""
    base = sp.csc_matrix(fem_stiffness(HeatTransferProblem(), 3))
    base.sort_indices()
    symbolic = symbolic_cholesky(base)
    ref = scalar.symbolic_reference(base)
    scales = np.array([1.0, 2.5, 0.3])
    panels = batched_factor_panels(scales[:, None] * base.data, symbolic)
    for scale, got in zip(scales, panels):
        assert np.array_equal(got, scalar.numeric_reference(base * scale, ref))


def test_batched_factor_requires_supernodal_analysis(heat_group):
    _, symbolic, data = heat_group
    with pytest.raises(ValueError, match="supernodal"):
        batched_factor_panels(data, replace(symbolic, supernodes=None))


def test_batched_factor_raises_on_non_spd_member(heat_group):
    subs, symbolic, data = heat_group
    bad = data.copy()
    bad[3] = -bad[3]
    with pytest.raises(NotPositiveDefiniteError, match="matrix 3"):
        batched_factor_panels(bad, symbolic)


def test_padded_dual_rhs_matches_the_serial_permuted_rhs(heat_group):
    subs, symbolic, _ = heat_group
    width = max(s.n_lambda for s in subs)
    rhs = padded_dual_rhs([s.B for s in subs[:5]], symbolic.perm, width)
    for i, sub in enumerate(subs[:5]):
        dense = np.asarray(sp.csr_matrix(sub.B)[:, symbolic.perm].todense()).T
        assert np.array_equal(rhs[i, :, : sub.n_lambda], dense)
        assert np.all(rhs[i, :, sub.n_lambda :] == 0.0)


def test_batched_schur_matches_serial_to_machine_rounding(heat_group):
    subs, symbolic, data = heat_group
    panels = batched_factor_panels(data, symbolic)
    width = max(s.n_lambda for s in subs)
    rhs = padded_dual_rhs([s.B for s in subs], symbolic.perm, width)
    F = batched_schur_complements(symbolic, panels, rhs)
    for i, sub in enumerate(subs):
        ref_factor = numeric_cholesky(sub.K_reg, symbolic)
        for exploit in (True, False):
            ref = schur_complement(ref_factor, sub.B, exploit_rhs_sparsity=exploit)
            np.testing.assert_allclose(
                F[i, : sub.n_lambda, : sub.n_lambda], ref, rtol=1e-12, atol=1e-14
            )
        if i % 16 == 0:  # and the scalar per-column oracle, on a few members
            oracle = scalar.schur_complement(scalar.numeric_scalar(sub.K_reg, symbolic), sub.B)
            np.testing.assert_allclose(
                F[i, : sub.n_lambda, : sub.n_lambda], oracle, rtol=1e-10, atol=1e-12
            )
        # Padding lanes stay exactly zero.
        assert np.all(F[i, sub.n_lambda :, :] == 0.0)
        assert np.all(F[i, :, sub.n_lambda :] == 0.0)


def test_batched_stack_of_one_equals_the_single_matrix_path(heat_group):
    subs, symbolic, data = heat_group
    panels = batched_factor_panels(data[:1], symbolic)
    ref = numeric_cholesky(subs[0].K_reg, symbolic)
    assert np.array_equal(factor_from_panels(symbolic, panels[0]).values, ref.values)


def test_batched_schur_requires_a_partition(heat_group):
    _, symbolic, _ = heat_group
    with pytest.raises(ValueError, match="supernode"):
        batched_schur_complements(
            replace(symbolic, supernodes=None), np.zeros((1, 4)), np.zeros((1, 4, 2))
        )
