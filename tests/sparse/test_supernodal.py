"""Tests of the supernodal sparse kernel layer.

Covers supernode detection on hand-built elimination trees, the lazily built
partition (the Schur sweep's tiling, never built by a solve), equality of
the banded factorization with the scalar per-column oracle
(``tests/oracles/sparse.py``) across heat/elasticity 2D/3D patterns, the
per-column ``start_rows`` grouping of the panel forward sweep the Schur
oracle runs (``tests/oracles/schur.py``), and the structural pattern cache.
The banded solves have their own tests (``test_triangular.py``).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.sparse import (
    OrderingMethod,
    PatternCache,
    detect_supernodes,
    numeric_cholesky,
    solve_banded,
    structural_key,
    symbolic_cholesky,
)
from repro.sparse.solvers import SparseSolver
from repro.sparse.symbolic import MAX_SUPERNODE

from tests.conftest import fem_stiffness as _fem_matrix
from tests.conftest import random_spd_matrix
from tests.oracles import sparse as scalar
from tests.oracles.ordering import ORDERINGS, analysis_kwargs
from tests.oracles.schur import solve_lower_inplace
from tests.sparse.test_symbolic import FEM_ZOO, SMALL_ZOO


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


# --------------------------------------------------------------------- #
# The default padding policy: CHOLMOD's width-graded tiers               #
# --------------------------------------------------------------------- #
def _tier_tolerance(width: int) -> float:
    """The documented schedule: any padding up to 4 columns, 80% up to 16, 25% above."""
    return 1.0 if width <= 4 else 0.8 if width <= 16 else 0.25


def _assert_within_tiers(s) -> None:
    part = s.supernodes
    counts = s.column_counts
    for j0, j1 in zip(part.snode_ptr[:-1], part.snode_ptr[1:]):
        width = int(j1 - j0)
        nbelow = int(counts[j1 - 1]) - 1
        panel = width * (width + 1) // 2 + width * nbelow
        padding = panel - int(counts[j0:j1].sum())
        assert 1 <= width <= MAX_SUPERNODE
        assert padding <= _tier_tolerance(width) * panel


@pytest.mark.parametrize(("physics", "dim", "cells", "ordering"), FEM_ZOO)
def test_default_partition_keeps_every_supernode_within_its_tier_on_fem_patterns(
    physics, dim, cells, ordering
):
    A = _fem_matrix(physics, dim, cells)
    _assert_within_tiers(symbolic_cholesky(A, **analysis_kwargs(A, ordering)))


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("A", SMALL_ZOO)
def test_default_partition_keeps_every_supernode_within_its_tier_on_special_patterns(
    A, ordering
):
    _assert_within_tiers(symbolic_cholesky(A, **analysis_kwargs(A, ordering)))


def test_default_tiers_grade_the_padding_by_panel_width():
    """A chain whose merged panel is ``(w - 1) / (w + 3)`` padding at width ``w``.

    That is 43% at 4 columns, 79% at 16 and 80% at 17: the default merges 16
    columns, then the remaining four (any padding up to 4 columns), where a
    uniform 25% stops at 2 columns.
    """
    n = 20
    parent = np.concatenate([np.arange(1, n), [-1]])
    counts = np.concatenate([np.full(n - 1, 2), [1]])
    assert detect_supernodes(parent, counts).tolist() == [0, 16, 20]
    uniform = detect_supernodes(parent, counts, relax=0.25)
    assert uniform.tolist() == list(range(0, n + 1, 2))


def test_heat_2d_subdomain_of_the_warm_solve_has_at_most_six_supernodes():
    """One 8x8-cell heat 2D subdomain (81 DOFs, the ``(8,8)x8`` workloads)."""
    s = symbolic_cholesky(_fem_matrix(HeatTransferProblem(), 2, 8))
    assert s.n == 81 and s.nnz == 597
    assert s.supernodes.n_supernodes <= 6  # 15 under a flat 25% tolerance


def test_heat_3d_factor_pattern_does_not_depend_on_the_policy():
    """``nnz(L)`` of one ``(2,2,1)x12`` heat 3D subdomain: a pattern count only."""
    s = symbolic_cholesky(_fem_matrix(HeatTransferProblem(), 3, 12))
    assert s.nnz == 213_252
    assert s.supernodes.panel_pos.shape == (213_252,)


def test_partition_covers_all_columns_and_pattern():
    A = _fem_matrix(HeatTransferProblem(), 2)
    s = symbolic_cholesky(A)
    part = s.supernodes
    assert part is not None
    assert part.snode_ptr[0] == 0 and part.snode_ptr[-1] == s.n
    assert np.all(np.diff(part.snode_ptr) >= 1)
    assert part.widths.sum() == s.n
    # every stored entry of L has a unique panel position and its band position
    assert part.panel_pos.shape == part.band_pos.shape == (s.nnz,)
    assert np.unique(part.panel_pos).shape == (s.nnz,)
    assert np.array_equal(np.sort(part.band_pos), s.band_index()[1])
    assert (np.diff(part.panel_pos) > 0).all()  # the gather writes front to back
    assert part.panel_entries >= s.nnz


def test_the_partition_is_built_on_first_access_only():
    """An analysis and a banded factorization never need the supernodes."""
    A = _fem_matrix(LinearElasticityProblem(), 2, 4)
    s = symbolic_cholesky(A)
    solver = SparseSolver(pattern_cache=False)
    solver.analyze(A)
    solver.factorize(A)
    solver.solve(np.ones(A.shape[0]))
    assert "supernodes" not in vars(s) and "supernodes" not in vars(solver.symbolic)
    part = s.supernodes
    assert s.supernodes is part and vars(s)["supernodes"] is part


def test_pickled_analysis_still_factorizes():
    """An analysis survives a pickle round trip and still factorizes."""
    A = _fem_matrix(HeatTransferProblem(), 3)
    s = symbolic_cholesky(A)
    shipped = pickle.loads(pickle.dumps(s))
    assert shipped.nbytes == s.nbytes
    scalar.assert_matches_reference(shipped, scalar.symbolic_reference(A))
    shipped_factor, factor = numeric_cholesky(A, shipped), numeric_cholesky(A, s)
    assert np.array_equal(shipped_factor.band, factor.band)


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
    assert np.allclose(fb.to_csc().data, fs.values, atol=1e-12 * scale)
    # and the factor actually reconstructs the permuted matrix
    L = fb.to_csc().toarray()
    Ap = A.toarray()[np.ix_(s.perm, s.perm)]
    assert np.allclose(L @ L.T, Ap, atol=1e-10 * np.abs(Ap).max())


@pytest.mark.parametrize(("physics", "dim"), FEM_CASES)
def test_band_solve_matches_scalar_and_scipy(physics, dim):
    A = _fem_matrix(physics, dim)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    b = np.random.default_rng(dim).standard_normal(s.n)
    L = f.to_csc()
    y_ref = spla.spsolve_triangular(L.tocsr(), b[s.perm], lower=True)
    x_ref = np.empty(s.n)
    x_ref[s.perm] = spla.spsolve_triangular(L.T.tocsr(), y_ref, lower=False)
    x_scalar = np.empty(s.n)
    x_scalar[s.perm] = scalar.trsv_upper(f, scalar.trsv_lower(f, b[s.perm]))
    assert np.allclose(x_scalar, x_ref)
    assert np.allclose(solve_banded(s.perm, f.band[None], b[None])[0], x_ref)


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
    assert np.allclose(
        fb.to_csc().data, fs.values, atol=1e-10 * max(1.0, np.abs(fs.values).max())
    )
    b = rng.standard_normal(n)
    x = np.empty(n)
    x[s.perm] = scalar.trsv_upper(fs, scalar.trsv_lower(fs, b[s.perm]))
    assert np.allclose(solve_banded(s.perm, fb.band[None], b[None])[0], x)


def test_panel_sweep_start_rows_group_columns():
    """The Schur oracle's forward sweep skips each column's leading zeros."""
    rng = np.random.default_rng(5)
    A = _fem_matrix(HeatTransferProblem(), 2)
    s = symbolic_cholesky(A)
    f = numeric_cholesky(A, s)
    nrhs = 9
    starts = np.sort(rng.integers(0, s.n, size=nrhs))
    starts[0], starts[-1] = 0, s.n - 1  # extreme groups
    B = np.zeros((s.n, nrhs))
    for j, st0 in enumerate(starts):
        B[st0:, j] = rng.standard_normal(s.n - int(st0))
    dense, pruned = B.copy(), B.copy()
    solve_lower_inplace(f, dense)
    solve_lower_inplace(f, pruned, sorted_starts=starts)
    assert np.allclose(pruned, dense)
    assert np.allclose(scalar.trsm_lower(f, B), dense)


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
    solvers = [SparseSolver(pattern_cache=cache) for _ in range(3)]
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


def test_pattern_cache_false_skips_the_global_cache():
    from repro.sparse.cache import global_pattern_cache

    cache = global_pattern_cache()
    cache.clear()
    rng = np.random.default_rng(13)
    A = random_spd_matrix(20, 0.3, rng)
    solver = SparseSolver(pattern_cache=False)
    solver.analyze(A)
    assert cache.hits == 0 and cache.misses == 0
    SparseSolver().analyze(A)  # the default is the process-global cache
    assert cache.misses == 1
