"""Tests of the batched subdomain execution engine.

For every approach the apply must produce the same dual vectors as the
per-subdomain loop oracle (``tests/oracles/apply.py``) run on the same
preprocessed operator, charge the same simulated time, agree with the fp64
``B K⁺ Bᵀ`` reference (the per-subdomain loop of ``tests/oracles/kplus.py``),
and the dense apply must be bitwise the concatenated-scatter path
(``tests/oracles/scatter_apply.py``) for every pack composition.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.decomposition.gluing import flat_scatter_maps
from repro.feti.config import (
    AssemblyConfig,
    DualOperatorApproach,
    FactorStorage,
    Path,
    ScatterGatherDevice,
)
from repro.feti.operators import make_dual_operator
from repro.feti.operators.batch import SYMV_MIN_ROWS, BatchedDenseApply, FlatIndexMap

from tests.oracles.apply import looped_apply
from tests.oracles.clusters import iter_clusters, priced_replay
from tests.oracles.kplus import looped_apply_accurate, looped_dual_rhs, member_factor
from tests.oracles.scatter_apply import local_apply, scatter_apply, scatter_apply_multi
from tests.oracles.schur import schur_complement


# --------------------------------------------------------------------- #
# FlatIndexMap primitives                                                #
# --------------------------------------------------------------------- #
def test_flat_scatter_maps_concatenates_ids():
    ids = [np.array([0, 3, 5]), np.array([], dtype=np.int64), np.array([2, 4])]
    flat, offsets = flat_scatter_maps(ids)
    assert flat.tolist() == [0, 3, 5, 2, 4]
    assert offsets.tolist() == [0, 3, 3, 5]


def test_flat_scatter_maps_empty():
    flat, offsets = flat_scatter_maps([])
    assert flat.size == 0
    assert offsets.tolist() == [0]


def test_flat_index_map_gather_matches_per_item_scatter():
    rng = np.random.default_rng(3)
    ids = [rng.choice(50, size=n, replace=False) for n in (7, 0, 12, 3)]
    index_map = FlatIndexMap(ids)
    source = rng.standard_normal(50)
    gathered = index_map.gather(source)
    expected = np.concatenate([source[i] for i in ids])
    np.testing.assert_array_equal(gathered, expected)
    for i, view in enumerate(index_map.split(gathered)):
        np.testing.assert_array_equal(view, source[ids[i]])
        assert view.shape == (len(ids[i]),)


def test_flat_index_map_scatter_add_matches_np_add_at():
    rng = np.random.default_rng(4)
    # Overlapping ids: the accumulation must handle duplicates like np.add.at.
    ids = [np.array([0, 1, 2]), np.array([2, 3]), np.array([0, 3])]
    index_map = FlatIndexMap(ids)
    values = rng.standard_normal(index_map.total)
    batched = np.zeros(6)
    index_map.scatter_add(batched, values)
    looped = np.zeros(6)
    for i, sub_ids in enumerate(ids):
        np.add.at(looped, sub_ids, values[index_map.slice_of(i)])
    np.testing.assert_allclose(batched, looped, atol=1e-15)


#: The dual-space length of the synthetic packs below.
N_LAMBDA = 400


def _symmetric(rng, n, dtype=np.float64):
    a = rng.standard_normal((n, n))
    return (a + a.T).astype(dtype)


@pytest.mark.parametrize(
    "sizes",
    [(4, 1, 7, 3), (4, 1, SYMV_MIN_ROWS - 1, 3, SYMV_MIN_ROWS, 130), (SYMV_MIN_ROWS, 101)],
    ids=["all-packed", "both", "all-large"],
)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batched_dense_apply_matches_per_block_gemv(sizes, dtype):
    """Packed and large blocks alike: ``F̃ᵢ pᵢ`` per block, in fp64 arithmetic."""
    rng = np.random.default_rng(5)
    ids = [rng.choice(N_LAMBDA, size=n, replace=False) for n in sizes]
    index_map = FlatIndexMap(ids)
    dense = BatchedDenseApply(index_map, N_LAMBDA, dtype=dtype)
    assert dense.n_packed == sum(n < SYMV_MIN_ROWS for n in sizes)
    blocks = [_symmetric(rng, n, dtype) for n in sizes]
    for i, block in enumerate(blocks):
        dense.set_block(i, block)
        assert np.array_equal(dense.block(i), block)
        assert not dense.block(i).flags.writeable
    for i in range(dense.n_packed, len(sizes)):
        assert dense.block(i).base is blocks[i]  # held as installed: no copy
    assert dense.nbytes == dense.blocks.nbytes + sum(
        b.nbytes for b in blocks[dense.n_packed :]
    )
    wide = [b.astype(np.float64) for b in blocks]
    lam = rng.standard_normal(N_LAMBDA)
    q = dense.apply(lam)
    assert q.dtype == np.float64 and q.shape == (N_LAMBDA,)
    expected = np.zeros(N_LAMBDA)
    for block, rows in zip(wide, ids):
        np.add.at(expected, rows, block @ lam[rows])
    np.testing.assert_allclose(q, expected, rtol=1e-13, atol=1e-12)
    L = rng.standard_normal((N_LAMBDA, 3))
    expected = np.zeros((N_LAMBDA, 3))
    for block, rows in zip(wide, ids):
        np.add.at(expected, rows, block @ L[rows])
    np.testing.assert_allclose(dense.apply_multi(L), expected, rtol=1e-13, atol=1e-12)


def test_batched_dense_apply_rejects_wrong_block_shape():
    index_map = FlatIndexMap([np.arange(3)])
    dense = BatchedDenseApply(index_map, 3)
    with pytest.raises(ValueError):
        dense.set_block(0, np.zeros((2, 2)))


def test_batched_dense_apply_wants_the_packed_blocks_first():
    index_map = FlatIndexMap([np.arange(SYMV_MIN_ROWS), np.arange(3)])
    with pytest.raises(ValueError, match="must follow"):
        BatchedDenseApply(index_map, SYMV_MIN_ROWS)


#: Pack compositions of the bitwise test: every block small, every block
#: large, and blocks on both sides of ``SYMV_MIN_ROWS``.
COMPOSITIONS = [
    pytest.param((20, 40, 33, 7), id="all-small"),
    pytest.param((SYMV_MIN_ROWS, 120, 101), id="all-large"),
    pytest.param((20, 40, 100, 120), id="mixed"),
]


@pytest.mark.parametrize("sizes", COMPOSITIONS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_apply_is_bitwise_the_scatter_path(sizes, dtype):
    """One output buffer and one ``bincount`` sum what the concatenated scatter did.

    The same products, and every ``λ`` entry's contributions in the same
    order, so ``q`` is bitwise the scatter path's, stacked or not; repeated
    applies show the reused padded lanes carry nothing over.
    """
    rng = np.random.default_rng(43)
    ids = [rng.choice(N_LAMBDA, size=n, replace=False) for n in sizes]  # ids overlap
    dense = BatchedDenseApply(FlatIndexMap(ids), N_LAMBDA, dtype=dtype)
    assert dense.n_packed == sum(n < SYMV_MIN_ROWS for n in sizes)
    for item, n in enumerate(sizes):
        dense.set_block(item, _symmetric(rng, n, dtype))
    for _ in range(2):
        lam = rng.standard_normal(N_LAMBDA)
        assert np.array_equal(dense.apply(lam), scatter_apply(dense, lam))
        L = rng.standard_normal((N_LAMBDA, 3))
        assert np.array_equal(dense.apply_multi(L), scatter_apply_multi(dense, L))


# --------------------------------------------------------------------- #
# Operator-level equivalence                                             #
# --------------------------------------------------------------------- #
def _assert_apply_matches_oracle(operator, x, replay):
    """Values to 1e-10, simulated seconds and breakdown to summation order."""
    q = operator.apply(x)
    phase = operator.ledger.last("apply")
    q_looped, sim, breakdown = looped_apply(operator, x, replay)
    np.testing.assert_allclose(q, q_looped, atol=1e-10)
    assert phase.simulated_seconds == pytest.approx(sim, rel=1e-12)
    assert set(phase.breakdown) == set(breakdown)
    for key, value in breakdown.items():
        assert phase.breakdown[key] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("approach", list(DualOperatorApproach))
def test_batched_apply_matches_looped_apply(
    heat_problem_2d, approach, small_machine_config
):
    """Every approach: the engine and the loop oracle agree on values AND timing."""
    operator = make_dual_operator(
        approach, heat_problem_2d, machine_config=small_machine_config
    )
    operator.prepare()
    operator.preprocess()
    replay = priced_replay(operator, small_machine_config)
    rng = np.random.default_rng(11)
    for _ in range(3):
        _assert_apply_matches_oracle(
            operator, rng.standard_normal(heat_problem_2d.n_lambda), replay
        )
    assert operator.ledger.count("apply") == 3


@pytest.mark.parametrize("approach", list(DualOperatorApproach))
def test_apply_matches_the_fp64_reference_operator(
    heat_problem_2d, approach, small_machine_config
):
    """Independent check: ``apply(λ)`` is ``Σ B̃ᵢ Kᵢ⁺ B̃ᵢᵀ λ`` to 1e-10."""
    operator = make_dual_operator(
        approach, heat_problem_2d, machine_config=small_machine_config
    )
    operator.preprocess()
    x = np.random.default_rng(17).standard_normal(heat_problem_2d.n_lambda)
    reference = looped_apply_accurate(operator, x)
    np.testing.assert_allclose(operator.apply(x), reference, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(
        operator.apply_accurate(x), reference, rtol=1e-12, atol=1e-12
    )


def test_batched_dual_rhs_matches_looped(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.IMPLICIT_CHOLMOD,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    operator.preprocess()
    np.testing.assert_allclose(
        operator.dual_rhs(), looped_dual_rhs(operator), atol=1e-12
    )


def test_engine_packs_every_subdomain_in_one_map(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_MKL,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    engine = operator.batch_engine
    assert engine.dense is None  # created by the first preprocessing
    # The global map mirrors the gluing data's cached flat arrays, in
    # subdomain-index order.
    flat, offsets = heat_problem_2d.gluing.scatter_maps()
    np.testing.assert_array_equal(engine.global_map.flat_ids, flat)
    np.testing.assert_array_equal(engine.global_map.offsets, offsets)
    assert [s.index for s in heat_problem_2d.subdomains] == list(
        range(engine.global_map.n_items)
    )
    operator.preprocess()
    dense = engine.dense
    # Every block is small: one pack over the global map, which local_F views.
    assert dense is not None and dense.map is engine.global_map
    assert dense.n_packed == heat_problem_2d.n_subdomains and not dense.large
    for sub in heat_problem_2d.subdomains:
        F = operator.local_F[sub.index]
        assert F.shape == (sub.n_lambda, sub.n_lambda) and not F.flags.writeable
        assert np.shares_memory(F, dense.blocks)


#: Many small subdomains over several clusters: the one pack spans clusters.
ONE_PACK_WORKLOADS = [
    pytest.param(Workload("heat", 2, (8, 8), 8, n_clusters=4), id="heat-2d-c4"),
    pytest.param(Workload("elasticity", 2, (4, 4), 8, n_clusters=2), id="elasticity-2d-c2"),
]

#: Every explicit approach, and both scatter/gather settings of the GPU ones.
EXPLICIT_SPECS = [
    pytest.param(SolverSpec(approach="expl mkl"), id="expl-mkl"),
    pytest.param(SolverSpec(approach="expl cholmod"), id="expl-cholmod"),
    *(
        pytest.param(
            SolverSpec(approach=approach, assembly={"scatter_gather": scatter}),
            id=f"{approach.replace(' ', '-')}-{scatter}-scatter",
        )
        for approach in ("expl legacy", "expl modern")
        for scatter in ("gpu", "cpu")
    ),
    pytest.param(SolverSpec(approach="expl modern", assembly="table2"), id="expl-modern-table2"),
    pytest.param(SolverSpec(approach="expl hybrid"), id="expl-hybrid"),
]


def _per_cluster_packs(operator, lam, machine):
    """The apply as one padded pack per cluster, one ``np.add.at`` each.

    The layout the one pack replaced, rebuilt from ``local_F``: every
    cluster of the workloads below holds a subdomain of the largest ``n_λ``
    (and every block is small), so both layouts pad alike and run the same
    per-item products.
    """
    local_F = operator.local_F
    max_size = max(F.shape[0] for F in local_F.values())
    q = np.zeros_like(lam)
    for _, subs in iter_clusters(operator, machine):
        index_map = FlatIndexMap([s.lambda_ids for s in subs])
        assert int(index_map.sizes.max()) == max_size < SYMV_MIN_ROWS
        pack = BatchedDenseApply(index_map, lam.shape[0], dtype=local_F[subs[0].index].dtype)
        for i, sub in enumerate(subs):
            pack.set_block(i, local_F[sub.index])
        np.add.at(q, index_map.flat_ids, local_apply(pack, index_map.gather(lam)))
    return q


@pytest.mark.parametrize("workload", ONE_PACK_WORKLOADS)
@pytest.mark.parametrize("spec", EXPLICIT_SPECS)
def test_one_pack_apply_is_bitwise_the_per_cluster_apply(workload, spec):
    """One pack over every cluster.

    Bitwise the per-cluster packs it replaced, and within rounding of the
    per-subdomain loop (whose unpadded GEMVs sum in another order); the
    stacked apply within 1e-12 of the loop.
    """
    with Session(spec, memory_budget="unlimited") as session:
        operator = session.operator_for(workload)
        operator.prepare()
        operator.preprocess()
        assert operator.batch_engine.dense.map.n_items == operator.problem.n_subdomains
        rng = np.random.default_rng(31)
        lam = rng.standard_normal(operator.problem.n_lambda)
        block = rng.standard_normal((operator.problem.n_lambda, 3))
        replay = priced_replay(operator, spec.machine_config())
        applied = operator.apply(lam)
        looped, _, _ = looped_apply(operator, lam, replay)
        stacked = operator.apply_multi(block)
        columns = np.column_stack(
            [looped_apply(operator, block[:, j].copy(), replay)[0] for j in range(3)]
        )
        per_cluster = _per_cluster_packs(operator, lam, replay.machine)
    assert np.array_equal(applied, per_cluster)
    assert np.linalg.norm(applied - looped) <= 1e-14 * np.linalg.norm(looped)
    assert np.linalg.norm(stacked - columns) <= 1e-12 * np.linalg.norm(columns)


@pytest.mark.parametrize("approach", ["expl mkl", "expl modern"])
def test_blocks_on_both_sides_of_the_symv_threshold(approach):
    """Heat 3D ``(3,3,3)x4`` has blocks of 61-122 rows: packed and large ones.

    The apply (and the stacked one) bitwise the concatenated scatter path,
    within rounding of the per-subdomain loop, the stacked apply
    within 1e-12 of per-column applies, and every ``local_F[i]`` read-only
    and bitwise the per-subdomain Schur oracle.
    """
    workload = Workload("heat", 3, (3, 3, 3), 4)
    with Session(SolverSpec(approach=approach), memory_budget="unlimited") as session:
        operator = session.operator_for(workload)
        operator.prepare()
        operator.preprocess()
        dense = operator.batch_engine.dense
        sizes = [sub.n_lambda for sub in operator.problem.subdomains]
        assert 0 < dense.n_packed == sum(n < SYMV_MIN_ROWS for n in sizes) < len(sizes)
        assert len(dense.large) == len(sizes) - dense.n_packed
        for sub in operator.problem.subdomains:
            F = operator.local_F[sub.index]
            assert not F.flags.writeable
            want = schur_complement(member_factor(operator, sub.index), sub.B)
            assert np.array_equal(F, want), sub.index
        rng = np.random.default_rng(37)
        lam = rng.standard_normal(operator.problem.n_lambda)
        block = rng.standard_normal((operator.problem.n_lambda, 3))
        applied = operator.apply(lam)
        looped, _, _ = looped_apply(operator, lam, priced_replay(operator))
        stacked = operator.apply_multi(block)
        columns = np.column_stack([operator.apply(block[:, j].copy()) for j in range(3)])
        assert np.array_equal(applied, scatter_apply(dense, lam))
        assert np.array_equal(stacked, scatter_apply_multi(dense, block))
    assert np.linalg.norm(applied - looped) <= 1e-14 * np.linalg.norm(looped)
    assert np.linalg.norm(stacked - columns) <= 1e-12 * np.linalg.norm(columns)


def test_gluing_scatter_maps_cached(heat_problem_2d):
    first = heat_problem_2d.gluing.scatter_maps()
    second = heat_problem_2d.gluing.scatter_maps()
    assert first[0] is second[0] and first[1] is second[1]
    expected = np.concatenate(
        [s.lambda_ids for s in heat_problem_2d.gluing.per_subdomain]
    )
    np.testing.assert_array_equal(first[0], expected)


@pytest.mark.parametrize("scatter", [ScatterGatherDevice.CPU, ScatterGatherDevice.GPU])
@pytest.mark.parametrize("symmetric", [False, True])
def test_batched_gpu_apply_matches_looped_for_nondefault_configs(
    heat_problem_2d, small_machine_config, scatter, symmetric
):
    """Both GPU apply paths and both MV kernels: values AND timing agree."""
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
        heat_problem_2d,
        machine_config=small_machine_config,
        assembly_config=AssemblyConfig(scatter_gather=scatter, apply_symmetric=symmetric),
    )
    operator.preprocess()
    x = np.random.default_rng(23).standard_normal(heat_problem_2d.n_lambda)
    _assert_apply_matches_oracle(operator, x, priced_replay(operator, small_machine_config))
    np.testing.assert_allclose(
        operator.apply(x), looped_apply_accurate(operator, x), rtol=1e-10, atol=1e-10
    )


@pytest.mark.parametrize("path", list(Path))
@pytest.mark.parametrize(
    "approach",
    [DualOperatorApproach.EXPLICIT_GPU_LEGACY, DualOperatorApproach.EXPLICIT_GPU_MODERN],
)
def test_sparse_factor_storage_matches_looped_and_reference(
    heat_problem_2d, small_machine_config, approach, path
):
    """The cuSPARSE-TRSM assembly (solves on the host factor): values AND timing."""
    operator = make_dual_operator(
        approach,
        heat_problem_2d,
        machine_config=small_machine_config,
        assembly_config=AssemblyConfig(
            path=path,
            forward_factor_storage=FactorStorage.SPARSE,
            backward_factor_storage=FactorStorage.SPARSE,
        ),
    )
    operator.preprocess()
    x = np.random.default_rng(29).standard_normal(heat_problem_2d.n_lambda)
    _assert_apply_matches_oracle(operator, x, priced_replay(operator, small_machine_config))
    np.testing.assert_allclose(
        operator.apply(x), looped_apply_accurate(operator, x), rtol=1e-10, atol=1e-10
    )


