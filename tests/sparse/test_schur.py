"""Tests of the Schur-complement (explicit dual operator) assembly on the CPU.

The package kernel assembles one interface class at a time
(:func:`~repro.sparse.schur.stacked_schur_complement`); most checks here run
it on a class of one, and the class tests hold every member of a stacked
class **bitwise** to the per-subdomain oracle (``tests/oracles/schur.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Workload
from repro.api.workload import build_problem
from repro.fem.heat import HeatTransferProblem
from repro.sparse import (
    numeric_cholesky,
    schur_scatter,
    schur_scatters,
    stacked_schur_complement,
    symbolic_cholesky,
)
from repro.sparse.cache import PatternCache
from repro.sparse.numeric import CholeskyFactor, stacked_cholesky, stacked_values
from repro.sparse.ordering import OrderingMethod
from repro.sparse.schur import SCHUR_CHUNK, interface_classes, rhs_sparsity_fill

from tests.conftest import fem_stiffness, random_spd_matrix
from tests.oracles import schur as per_member
from tests.oracles import sparse as scalar


def schur_complement(factor, B):
    """The package kernel on a class of one."""
    scatter = schur_scatter(factor.symbolic, B)
    return stacked_schur_complement(factor.symbolic, [factor.band], [scatter])[0]


@pytest.fixture(scope="module")
def factorized():
    rng = np.random.default_rng(9)
    A = random_spd_matrix(50, 0.1, rng)
    s = symbolic_cholesky(A)
    return A, numeric_cholesky(A, s)


def test_schur_matches_dense_reference(factorized):
    A, factor = factorized
    rng = np.random.default_rng(1)
    B = sp.random(8, 50, density=0.08, random_state=rng).tocsr()
    S = schur_complement(factor, B)
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
    """The pruned kernel against the oracle's sweep from row 0 (a plain TRSM)."""
    _, factor = factorized
    rng = np.random.default_rng(3)
    B = sp.random(5, 50, density=0.05, random_state=rng).tocsr()
    assert np.allclose(
        schur_complement(factor, B),
        per_member.schur_complement(factor, B, exploit_rhs_sparsity=False),
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


def test_schur_scatters_empty_rows_and_duplicate_entries(factorized):
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
    S = schur_complement(factor, B)
    dense = np.zeros((4, 50))
    np.add.at(dense, (rows, cols), vals)
    S_ref = dense @ np.linalg.inv(A.toarray()) @ dense.T
    assert np.allclose(S, S_ref, atol=1e-10)
    assert np.all(S[1] == 0.0) and np.all(S[:, 1] == 0.0)
    for got, want in zip((B.data, B.indices, B.indptr), before):
        assert np.array_equal(got, want)


def test_a_group_pass_gives_every_member_its_own_scatter(fem_factor):
    """``schur_scatters`` over stacked ``B̃ᵢ`` equals each member's group of one.

    Members of different sizes, with tied first rows, empty rows, two entries
    in a row, rows out of start order and an empty member; ``rhs_fill`` off
    the scatter is bitwise ``rhs_sparsity_fill``.
    """
    symbolic = fem_factor.symbolic
    n = symbolic.n
    rng = np.random.default_rng(7)
    members = []
    for n_dual, per_row in ((12, 1), (0, 1), (5, 2), (31, 1)):
        cols = rng.integers(0, n, size=(n_dual, per_row))
        nnz = np.full(n_dual, per_row)
        if n_dual > 3:
            cols[-1] = cols[0]  # a tied start
            nnz[n_dual // 2] = 0  # an empty row
        keep = np.repeat(nnz > 0, per_row)
        indptr = np.concatenate(([0], np.cumsum(nnz)))
        vals = rng.choice([-1.0, 1.0], size=int(indptr[-1]))
        members.append(sp.csr_matrix((vals, cols.ravel()[keep], indptr), shape=(n_dual, n)))
    bounds = np.concatenate(([0], np.cumsum([B.shape[0] for B in members])))
    group = schur_scatters(symbolic, sp.vstack(members, format="csr"), bounds)
    assert any(scatter.rank is not None for scatter in group)
    for B, got in zip(members, group):
        want = schur_scatter(symbolic, B)
        assert got.key == want.key
        for name in ("starts", "active", "flat", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.rank is None) == (want.rank is None)
        if got.rank is not None:
            assert np.array_equal(got.rank, want.rank)
        assert got.rhs_fill(n) == rhs_sparsity_fill(B, symbolic.perm)


def test_schur_assembly_allocates_one_panel_and_two_outputs(factorized):
    """The solve buffer ``W`` once plus ``S`` and its re-ordered copy.

    No re-ordered copy of ``W`` and no dense ``B̃`` round trips; the scatter
    of ``B̃`` is built once, outside the assembly, and the sweep gathers one
    supernode's panel from the band at a time.  The bound is ``W`` (16 000
    bytes) + two ``n_λ²`` outputs (25 600) + 2 kB of index arrays, below the
    3 panels (48 000) the kernel needed when it re-ordered ``W``.
    """
    import tracemalloc

    _, factor = factorized
    rng = np.random.default_rng(6)
    n_dual = 40
    B = sp.random(n_dual, 50, density=0.04, random_state=rng).tocsr()
    panel = 50 * n_dual * 8
    outputs = 2 * n_dual * n_dual * 8
    scatter = schur_scatter(factor.symbolic, B)
    stack = factor.symbolic, [factor.band], [scatter]
    stacked_schur_complement(*stack)  # warm: BLAS buffers
    tracemalloc.start()
    stacked_schur_complement(*stack)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < panel + outputs + 2048 < 3 * panel


def test_sweep_workspace_is_mapped_off_the_heap(factorized):
    """``W`` is a private mapping of its own, not a heap block.

    The heap's peak over an assembly is then ``S``, its re-ordered copy and
    the index arrays only.  A heap ``W`` went into whatever hole earlier
    allocations had left, so the peak resident set of repeated set-ups
    followed the heap's layout from run to run.
    """
    import tracemalloc

    _, factor = factorized
    rng = np.random.default_rng(6)
    n_dual = 40
    B = sp.random(n_dual, 50, density=0.04, random_state=rng).tocsr()
    outputs = 2 * n_dual * n_dual * 8
    stack = factor.symbolic, [factor.band], [schur_scatter(factor.symbolic, B)]
    stacked_schur_complement(*stack)  # warm: BLAS buffers
    tracemalloc.start()
    S = stacked_schur_complement(*stack)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < outputs + 2048
    assert np.array_equal(S[0], schur_complement(factor, B))


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def _check_against_oracle(factor, B) -> np.ndarray:
    """The pruned ``S`` against the scalar oracle, its symmetry and the plain sweep."""
    S = schur_complement(factor, B)
    assert _relative_gap(S, scalar.schur_complement(factor, B)) <= 1e-13
    assert np.array_equal(S, S.T)
    plain = per_member.schur_complement(factor, B, exploit_rhs_sparsity=False)
    assert np.array_equal(plain, plain.T)
    assert _relative_gap(plain, S) <= 1e-14
    return S


@pytest.mark.parametrize(
    "workload",
    [
        Workload("heat", 3, (2, 2, 1), 12),
        Workload("elasticity", 3, (2, 2, 2), 4),
        Workload("heat", 2, (2, 2), 8, order=2),
    ],
    ids=["heat3d-221x12", "elasticity3d-222x4", "heat2d-p2-22x8"],
)
def test_pruned_schur_matches_the_scalar_oracle_on_every_subdomain(workload):
    for sub in build_problem(workload).subdomains:
        factor = numeric_cholesky(sub.K_reg, symbolic_cholesky(sub.K_reg))
        _check_against_oracle(factor, sub.B)


@pytest.fixture(scope="module")
def fem_factor():
    A = fem_stiffness(HeatTransferProblem(), 3, cells=5)  # 216 DOFs, supernodal
    return numeric_cholesky(A, symbolic_cholesky(A))


@pytest.mark.parametrize(
    "n_dual",
    [1, SCHUR_CHUNK - 1, SCHUR_CHUNK, SCHUR_CHUNK + 1, 2 * SCHUR_CHUNK + 1],
)
def test_pruned_schur_across_block_boundaries(fem_factor, n_dual):
    """Signed gluing rows with tied first rows and a never-activated row."""
    n = fem_factor.symbolic.n
    rng = np.random.default_rng(n_dual)
    dofs = rng.integers(0, n, size=(n_dual, 2))
    dofs[-1] = dofs[0]  # the same first row as row 0: a tied start
    signs = rng.choice([-1.0, 1.0], size=(n_dual, 2))
    keep = np.ones(n_dual, dtype=bool)
    if n_dual > 1:
        keep[n_dual // 2] = False  # an empty row: start = n, never activated
    indptr = np.concatenate(([0], np.cumsum(2 * keep)))
    B = sp.csr_matrix((signs[keep].ravel(), dofs[keep].ravel(), indptr), shape=(n_dual, n))
    S = _check_against_oracle(fem_factor, B)
    assert not S[~keep].any() and not S[:, ~keep].any()


def test_the_kernel_on_a_class_of_one_is_bitwise_the_per_member_oracle(fem_factor):
    rng = np.random.default_rng(12)
    n = fem_factor.symbolic.n
    B = sp.csr_matrix(
        (rng.choice([-1.0, 1.0], 30), rng.permutation(n)[:30], np.arange(31)), shape=(30, n)
    )
    assert np.array_equal(
        schur_complement(fem_factor, B), per_member.schur_complement(fem_factor, B)
    )


def _classes(workload):
    """Every (pattern, interface class) of a workload: factors and scatters."""
    cache = PatternCache()
    groups: dict[int, tuple] = {}
    for sub in build_problem(workload).subdomains:
        symbolic = cache.symbolic_for(sub.K_reg, OrderingMethod.RCM)
        groups.setdefault(id(symbolic), (symbolic, []))[1].append(sub)
    for symbolic, subs in groups.values():
        bands = stacked_cholesky(stacked_values([s.K_reg for s in subs], symbolic), symbolic)
        scatters = [schur_scatter(symbolic, s.B) for s in subs]
        for members in interface_classes(scatters):
            yield symbolic, bands[members], [(subs[i].B, scatters[i]) for i in members]


@pytest.mark.parametrize(
    "workload",
    [
        Workload("heat", 2, (4, 4), 8),
        Workload("elasticity", 2, (3, 3), 4, dirichlet_faces=("xmin", "ymax")),
        Workload("heat", 3, (3, 3, 2), 3),
    ],
    ids=["heat2d-44x8", "elasticity2d-33x4-2faces", "heat3d-332x3"],
)
def test_every_member_of_a_stacked_class_is_bitwise_the_oracle(workload):
    sizes = []
    for symbolic, bands, members in _classes(workload):
        scatters = [scatter for _, scatter in members]
        F = stacked_schur_complement(symbolic, bands, scatters)
        assert F.shape == (len(members), scatters[0].n_dual, scatters[0].n_dual)
        for i, (B, _) in enumerate(members):
            factor = CholeskyFactor(symbolic, bands[i])
            assert np.array_equal(F[i], per_member.schur_complement(factor, B))
        sizes.append(len(members))
    assert max(sizes) > 1  # the workload really stacks


def test_classes_share_sorted_first_rows_and_order_largest_first():
    workload = Workload("heat", 2, (4, 4), 8)
    classes = list(_classes(workload))
    n_duals = [members[0][1].n_dual for *_, members in classes]
    assert n_duals == sorted(n_duals, reverse=True)
    for *_, members in classes:
        keys = {scatter.key for _, scatter in members}
        assert len(keys) == 1


def test_a_stack_of_two_classes_is_refused(fem_factor):
    n = fem_factor.symbolic.n
    one = sp.csr_matrix(([1.0], [0], [0, 1]), shape=(1, n))
    other = sp.csr_matrix(([1.0], [n - 1], [0, 1]), shape=(1, n))
    scatters = [schur_scatter(fem_factor.symbolic, B) for B in (one, other)]
    with pytest.raises(ValueError, match="one interface class"):
        stacked_schur_complement(fem_factor.symbolic, [fem_factor.band] * 2, scatters)
