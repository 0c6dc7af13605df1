"""Tests of the supernodal sparse kernel layer.

Covers supernode detection on hand-built elimination trees, equality of the
supernodal factorization and of every panel triangular kernel with the scalar
per-column oracle (``tests/oracles/sparse.py``) across heat/elasticity 2D/3D
patterns, the per-column ``start_rows`` grouping, the prepared generic CSC
factor, and the structural pattern cache.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.sparse import (
    CholeskyFactor,
    OrderingMethod,
    PatternCache,
    PreparedCscFactor,
    detect_supernodes,
    numeric_cholesky,
    prepare_csc_factor,
    sparse_trsm_lower,
    sparse_trsm_upper,
    sparse_trsv_lower,
    sparse_trsv_upper,
    structural_key,
    symbolic_cholesky,
)
from repro.sparse.solvers import CholmodLikeSolver, PardisoLikeSolver

from tests.conftest import fem_stiffness as _fem_matrix
from tests.conftest import random_spd_matrix
from tests.oracles import sparse as scalar


FEM_CASES = [
    pytest.param(HeatTransferProblem(), 2, id="heat-2d"),
    pytest.param(HeatTransferProblem(), 3, id="heat-3d"),
    pytest.param(LinearElasticityProblem(), 2, id="elasticity-2d"),
    pytest.param(LinearElasticityProblem(), 3, id="elasticity-3d"),
]


# --------------------------------------------------------------------- #
# Supernode detection on hand-built elimination trees                    #
# --------------------------------------------------------------------- #
def test_detect_supernodes_merges_strict_chain():
    """A chain with exactly nested patterns collapses into one supernode."""
    # Dense 4x4 factor: parent chain 0->1->2->3, counts 4,3,2,1.
    parent = np.array([1, 2, 3, -1])
    counts = np.array([4, 3, 2, 1])
    ptr = detect_supernodes(parent, counts, relax=0.0)
    assert ptr.tolist() == [0, 4]


def test_detect_supernodes_splits_at_tree_branches():
    """Columns whose parent is not the next column never merge."""
    # Two leaves (0, 1) both pointing at 2: 0 cannot chain into 1, and with
    # relax=0 the 1->2 merge would need padding, so only 2->3 merges.
    parent = np.array([2, 2, 3, -1])
    counts = np.array([2, 2, 2, 1])
    ptr = detect_supernodes(parent, counts, relax=0.0)
    assert ptr.tolist() == [0, 1, 2, 4]
    # fully relaxed, only the tree branch still splits
    assert detect_supernodes(parent, counts, relax=1.0).tolist() == [0, 1, 4]


def test_detect_supernodes_strict_rejects_padding():
    """With relax=0 a count mismatch on a parent chain blocks the merge."""
    # Chain 0->1->2 but column 0 has fewer rows than nestedness would allow:
    # counts 2,3,2 mean merging 0 into 1 needs two padding zeros, while the
    # 1->2 merge is exact (count drops by one along the chain).
    parent = np.array([1, 2, -1])
    counts = np.array([2, 3, 2])
    strict = detect_supernodes(parent, counts, relax=0.0)
    assert strict.tolist() == [0, 1, 3]
    relaxed = detect_supernodes(parent, counts, relax=0.5)
    assert relaxed.tolist() == [0, 3]


def test_detect_supernodes_honors_max_width():
    n = 10
    parent = np.concatenate([np.arange(1, n), [-1]])
    counts = np.arange(n, 0, -1)
    ptr = detect_supernodes(parent, counts, relax=0.0, max_width=4)
    assert ptr.tolist() == [0, 4, 8, 10]
    assert np.all(np.diff(ptr) <= 4)


def test_partition_covers_all_columns_and_pattern():
    A = _fem_matrix(HeatTransferProblem(), 2)
    s = symbolic_cholesky(A)
    part = s.supernodes
    assert part is not None
    assert part.snode_ptr[0] == 0 and part.snode_ptr[-1] == s.n
    assert np.all(np.diff(part.snode_ptr) >= 1)
    assert part.col_to_snode.shape == (s.n,)
    # every stored entry of L has a unique panel position
    assert part.lpos.shape == (s.nnz,)
    assert np.unique(part.lpos).shape == (s.nnz,)
    assert part.panel_entries >= s.nnz
    assert 0.0 <= part.padding_ratio() < 1.0
    assert part.mean_width >= 1.0


def test_update_maps_are_factored_and_come_in_all_three_forms():
    """``(rows, cols)`` is slice/slice, array/slice or (R, 1)-array/array."""
    part = symbolic_cholesky(_fem_matrix(HeatTransferProblem(), 3)).supernodes
    forms = set()
    for j, updates in enumerate(part.updates):
        h, w = int(part.heights[j]), int(part.widths[j])
        assert [u[0] for u in updates] == sorted(u[0] for u in updates)
        for k, i0, i1, rows, cols in updates:
            assert k < j and 0 <= i0 < i1 <= part.below_rows[k].shape[0]
            block = np.zeros((h, w))[rows, cols]
            assert block.shape == (part.below_rows[k].shape[0] - i0, i1 - i0)
            forms.add(tuple("slice" if isinstance(x, slice) else "array" for x in (rows, cols)))
            if not isinstance(cols, slice):
                assert rows.shape == (block.shape[0], 1) and cols.shape == (block.shape[1],)
    assert forms == {("slice", "slice"), ("array", "slice"), ("array", "array")}


def test_pickled_analysis_still_factorizes():
    """The process backend ships the analysis to its workers once per shard."""
    A = _fem_matrix(HeatTransferProblem(), 3)
    s = symbolic_cholesky(A)
    shipped = pickle.loads(pickle.dumps(s))
    scalar.assert_matches_reference(shipped, scalar.symbolic_reference(A))
    assert np.array_equal(numeric_cholesky(A, shipped).values, numeric_cholesky(A, s).values)
    assert shipped.nbytes >= s.nbytes - sum(b.nbytes for b in s.supernodes.below_rows)


# --------------------------------------------------------------------- #
# Blocked vs scalar equality on FEM patterns                             #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(("physics", "dim"), FEM_CASES)
def test_blocked_factorization_matches_scalar_on_fem_patterns(physics, dim):
    A = _fem_matrix(physics, dim)
    s = symbolic_cholesky(A)
    fb = numeric_cholesky(A, s)
    fs = scalar.numeric_scalar(A, s)
    scale = np.abs(fs.values).max()
    assert np.allclose(fb.values, fs.values, atol=1e-12 * scale)
    # and the factor actually reconstructs the permuted matrix
    L = fb.to_csc().toarray()
    Ap = A.toarray()[np.ix_(s.perm, s.perm)]
    assert np.allclose(L @ L.T, Ap, atol=1e-10 * np.abs(Ap).max())


@pytest.mark.parametrize(("physics", "dim"), FEM_CASES)
def test_blocked_triangular_kernels_match_scalar_and_scipy(physics, dim):
    A = _fem_matrix(physics, dim)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    rng = np.random.default_rng(dim)
    b = rng.standard_normal(s.n)
    B = rng.standard_normal((s.n, 5))
    L = f.to_csc()

    y_ref = spla.spsolve_triangular(L.tocsr(), b, lower=True)
    assert np.allclose(sparse_trsv_lower(f, b), y_ref)
    assert np.allclose(scalar.trsv_lower(f, b), y_ref)

    x_ref = spla.spsolve_triangular(L.T.tocsr(), b, lower=False)
    assert np.allclose(sparse_trsv_upper(f, b), x_ref)
    assert np.allclose(scalar.trsv_upper(f, b), x_ref)

    Yb = sparse_trsm_lower(f, B)
    assert np.allclose(Yb, scalar.trsm_lower(f, B))
    Xb = sparse_trsm_upper(f, Yb)
    assert np.allclose(Xb, scalar.trsm_upper(f, Yb))
    assert np.allclose(L.toarray() @ Yb, B)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_blocked_equals_scalar_on_random_spd(n, seed):
    """Property: blocked and scalar paths agree on arbitrary SPD patterns."""
    rng = np.random.default_rng(seed)
    A = random_spd_matrix(n, 0.3, rng)
    s = symbolic_cholesky(A)
    fb = numeric_cholesky(A, s)
    fs = scalar.numeric_scalar(A, s)
    assert np.allclose(fb.values, fs.values, atol=1e-10 * max(1.0, np.abs(fs.values).max()))
    b = rng.standard_normal(n)
    assert np.allclose(sparse_trsv_lower(fb, b), scalar.trsv_lower(fs, b))
    assert np.allclose(sparse_trsv_upper(fb, b), scalar.trsv_upper(fs, b))


def test_partition_less_factor_solves_through_the_csc_loops():
    """A factor handed over without panels still solves (and cannot factorize)."""
    rng = np.random.default_rng(11)
    A = random_spd_matrix(40, 0.1, rng)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    bare = CholeskyFactor(symbolic=replace(s, supernodes=None), values=f.values)
    assert bare.panel_values() is None
    b = rng.standard_normal(40)
    B = rng.standard_normal((40, 3))
    starts = np.array([0, 7, 3])
    for j, st0 in enumerate(starts):
        B[:st0, j] = 0.0
    assert np.allclose(sparse_trsv_lower(bare, b), scalar.trsv_lower(f, b))
    assert np.allclose(sparse_trsv_upper(bare, b), scalar.trsv_upper(f, b))
    assert np.allclose(sparse_trsm_lower(bare, B, start_rows=starts), scalar.trsm_lower(f, B))
    assert np.allclose(sparse_trsm_upper(bare, B), scalar.trsm_upper(f, B))
    with pytest.raises(ValueError, match="supernode partition"):
        numeric_cholesky(A, bare.symbolic)


def test_trsm_per_column_start_rows_groups_columns():
    rng = np.random.default_rng(5)
    A = _fem_matrix(HeatTransferProblem(), 2)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    nrhs = 9
    starts = rng.integers(0, s.n, size=nrhs)
    starts[0], starts[-1] = s.n - 1, 0  # extreme groups
    B = np.zeros((s.n, nrhs))
    for j, st0 in enumerate(starts):
        B[st0:, j] = rng.standard_normal(s.n - int(st0))
    dense = sparse_trsm_lower(f, B)
    assert np.allclose(sparse_trsm_lower(f, B, start_rows=starts), dense)
    assert np.allclose(scalar.trsm_lower(f, B), dense)


def test_trsm_start_rows_requires_one_entry_per_column():
    A = _fem_matrix(HeatTransferProblem(), 2)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    with pytest.raises(ValueError, match="one entry per column"):
        sparse_trsm_lower(f, np.zeros((s.n, 3)), start_rows=np.array([0, 1]))


# --------------------------------------------------------------------- #
# Prepared generic CSC factors                                           #
# --------------------------------------------------------------------- #
def test_prepared_csc_factor_matches_unprepared_and_scipy():
    rng = np.random.default_rng(6)
    n = 40
    L = sp.tril(sp.random(n, n, density=0.15, random_state=rng)) + sp.diags(
        2.0 + rng.random(n)
    )
    L = sp.csc_matrix(L)
    prepared = prepare_csc_factor(L)
    b = rng.standard_normal(n)
    B = rng.standard_normal((n, 4))
    ref = spla.spsolve_triangular(L.tocsr(), b, lower=True)
    assert np.allclose(prepared.solve_lower(b), ref)
    assert np.allclose(prepared.solve_upper(b), spla.spsolve_triangular(L.T.tocsr(), b, lower=False))
    # 2-D right-hand sides against the scalar oracle on the plain matrix
    assert np.allclose(prepared.solve_lower(B), scalar.csc_solve_lower(L, B))
    assert np.allclose(prepared.solve_upper(B), scalar.csc_solve_upper(L, B))


def test_prepared_csc_factor_panels_on_banded_factor():
    """A Cholesky factor's CSC form produces usable panels generically."""
    A = _fem_matrix(HeatTransferProblem(), 2)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    L = f.to_csc()
    prepared = prepare_csc_factor(L)
    assert prepared.partition is not None  # banded factors do coarsen
    rng = np.random.default_rng(7)
    B = rng.standard_normal((s.n, 3))
    assert np.allclose(prepared.solve_lower(B), scalar.csc_solve_lower(L, B))
    assert np.allclose(prepared.solve_upper(B), scalar.csc_solve_upper(L, B))


def test_prepared_csc_factor_keeps_the_scalar_loops_when_panels_do_not_coarsen():
    """A diagonal-plus-scattered pattern has no chains: the CSC loops run."""
    rng = np.random.default_rng(14)
    n = 30
    L = sp.csc_matrix(
        sp.tril(sp.random(n, n, density=0.05, random_state=rng), k=-2)
        + sp.diags(2.0 + rng.random(n))
    )
    prepared = PreparedCscFactor(L)
    assert prepared.partition is None
    B = rng.standard_normal((n, 3))
    assert np.allclose(prepared.solve_lower(B), scalar.csc_solve_lower(L, B))
    assert np.allclose(prepared.solve_upper(B), scalar.csc_solve_upper(L, B))
    assert np.allclose(prepared.solve_lower(B[:, 0]), scalar.csc_solve_lower(L, B[:, 0]))


# --------------------------------------------------------------------- #
# Pattern cache                                                          #
# --------------------------------------------------------------------- #
def test_structural_key_ignores_values():
    rng = np.random.default_rng(8)
    A = random_spd_matrix(25, 0.2, rng)
    B = A.copy()
    B.data = B.data * 2.0
    assert structural_key(A) == structural_key(B)
    C = random_spd_matrix(25, 0.3, rng)
    assert structural_key(A) != structural_key(C)


def test_pattern_cache_shares_symbolic_across_same_pattern():
    rng = np.random.default_rng(9)
    A = random_spd_matrix(30, 0.2, rng)
    B = A.copy()
    B.data = B.data * 3.0
    cache = PatternCache()
    s1 = cache.symbolic_for(A)
    s2 = cache.symbolic_for(B)
    assert s1 is s2
    assert cache.hits == 1 and cache.misses == 1
    # different ordering -> different entry
    s3 = cache.symbolic_for(A, OrderingMethod.NATURAL)
    assert s3 is not s1
    assert cache.misses == 2
    assert 0.0 < cache.hit_rate < 1.0
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0


def test_pattern_cache_eviction_is_bounded():
    rng = np.random.default_rng(10)
    cache = PatternCache(maxsize=2)
    for k in range(4):
        cache.symbolic_for(random_spd_matrix(10 + k, 0.3, rng))
    assert len(cache) == 2


def test_blocked_solvers_share_the_cache_and_match_scalar():
    """Same-pattern subdomains analyse once; results equal the scalar oracle."""
    rng = np.random.default_rng(12)
    A = _fem_matrix(HeatTransferProblem(), 2)
    cache = PatternCache()
    solvers = [PardisoLikeSolver(pattern_cache=cache) for _ in range(3)]
    matrices = []
    for solver in solvers:
        Ai = A.copy()
        Ai.data = Ai.data * rng.uniform(0.5, 2.0)
        solver.analyze(Ai)
        solver.factorize(Ai)
        matrices.append(Ai)
    assert cache.misses == 1 and cache.hits == 2
    assert solvers[0].symbolic is solvers[1].symbolic

    B = sp.random(6, A.shape[0], density=0.1, random_state=rng, format="csr")
    for solver, Ai in zip(solvers, matrices):
        s = solver.symbolic
        oracle = scalar.numeric_scalar(Ai, s)
        b = rng.standard_normal(A.shape[0])
        x = np.empty_like(b)
        x[s.perm] = scalar.trsv_upper(oracle, scalar.trsv_lower(oracle, b[s.perm]))
        assert np.allclose(solver.solve(b), x)
        assert np.allclose(solver.schur_complement(B), scalar.schur_complement(oracle, B))
        # the facade without sparsity exploitation assembles the same operator
        plain = CholmodLikeSolver(pattern_cache=cache)
        plain.factorize(Ai)
        assert np.allclose(plain.schur_complement(B), scalar.schur_complement(oracle, B))


def test_pattern_cache_false_skips_the_global_cache():
    from repro.sparse.cache import global_pattern_cache

    cache = global_pattern_cache()
    cache.clear()
    rng = np.random.default_rng(13)
    A = random_spd_matrix(20, 0.3, rng)
    solver = PardisoLikeSolver(pattern_cache=False)
    solver.analyze(A)
    assert cache.hits == 0 and cache.misses == 0
    PardisoLikeSolver().analyze(A)  # the default is the process-global cache
    assert cache.misses == 1
