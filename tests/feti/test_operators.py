"""Tests of the dual-operator implementations (Table III).

The most important property: all nine approaches evaluate the *same*
operator ``F = B K⁺ Bᵀ``.  The tests compare every approach against a dense
reference operator built directly from the subdomain data, and check the
timing bookkeeping the benchmark harness relies on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.cluster.topology import MachineConfig
from repro.feti.config import (
    AssemblyConfig,
    DualOperatorApproach,
    FactorStorage,
    Path,
    RhsOrder,
    ScatterGatherDevice,
)
from repro.feti.operators import make_dual_operator, replay_for
from repro.feti.operators.replay import CpuExplicitReplay
from repro.gpu.memory import AllocationError

from tests.oracles.clusters import iter_clusters, priced_replay
from tests.oracles.kplus import kplus_solve


def dense_reference_F(problem) -> np.ndarray:
    """Dense ``F = Σᵢ B̃ᵢ Kᵢ⁺ B̃ᵢᵀ`` scattered into the global dual space."""
    F = np.zeros((problem.n_lambda, problem.n_lambda))
    for sub in problem.subdomains:
        K_reg_inv_Bt = spla.spsolve(sub.K_reg.tocsc(), sub.B.T.toarray())
        local = sub.B @ K_reg_inv_Bt
        F[np.ix_(sub.lambda_ids, sub.lambda_ids)] += local
    return F


@pytest.fixture(scope="module")
def reference_F(heat_problem_2d):
    return dense_reference_F(heat_problem_2d)


@pytest.mark.parametrize("approach", list(DualOperatorApproach))
def test_every_approach_computes_the_same_operator(
    heat_problem_2d, reference_F, approach, small_machine_config
):
    operator = make_dual_operator(
        approach, heat_problem_2d, machine_config=small_machine_config
    )
    operator.prepare()
    operator.preprocess()
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(heat_problem_2d.n_lambda)
        assert np.allclose(operator.apply(x), reference_F @ x, atol=1e-8)


@pytest.mark.parametrize(
    "approach",
    [
        DualOperatorApproach.IMPLICIT_MKL,
        DualOperatorApproach.EXPLICIT_MKL,
        DualOperatorApproach.EXPLICIT_GPU_LEGACY,
        DualOperatorApproach.EXPLICIT_HYBRID,
    ],
)
def test_operator_is_symmetric_positive_semidefinite(
    heat_problem_2d, approach, small_machine_config
):
    operator = make_dual_operator(
        approach, heat_problem_2d, machine_config=small_machine_config
    )
    operator.preprocess()
    n = heat_problem_2d.n_lambda
    F = np.column_stack([operator.apply(np.eye(n)[:, j]) for j in range(n)])
    assert np.allclose(F, F.T, atol=1e-8)
    assert np.linalg.eigvalsh(F).min() > -1e-8


@pytest.mark.parametrize("path", [Path.SYRK, Path.TRSM])
@pytest.mark.parametrize("storage", [FactorStorage.SPARSE, FactorStorage.DENSE])
@pytest.mark.parametrize(
    "scatter", [ScatterGatherDevice.CPU, ScatterGatherDevice.GPU]
)
def test_explicit_gpu_all_assembly_configurations_agree(
    heat_problem_2d, reference_F, small_machine_config, path, storage, scatter
):
    """Every Table-I configuration assembles the same F̃ᵢ (only timing differs)."""
    config = AssemblyConfig(
        path=path,
        forward_factor_storage=storage,
        backward_factor_storage=storage,
        rhs_order=RhsOrder.ROW_MAJOR,
        scatter_gather=scatter,
    )
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
        heat_problem_2d,
        machine_config=small_machine_config,
        assembly_config=config,
    )
    operator.preprocess()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(heat_problem_2d.n_lambda)
    assert np.allclose(operator.apply(x), reference_F @ x, atol=1e-8)


def test_explicit_cpu_local_operators_match_schur(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_MKL,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    assert operator.approach is DualOperatorApproach.EXPLICIT_MKL and operator.explicit
    operator.preprocess()
    assert isinstance(priced_replay(operator, small_machine_config), CpuExplicitReplay)
    sub = heat_problem_2d.subdomains[0]
    F_local = operator.local_F[sub.index]
    expected = sub.B @ spla.spsolve(sub.K_reg.tocsc(), sub.B.T.toarray())
    assert np.allclose(F_local, expected, atol=1e-8)


def test_apply_requires_preprocess(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.IMPLICIT_MKL,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    with pytest.raises(RuntimeError):
        operator.apply(np.zeros(heat_problem_2d.n_lambda))
    operator.preprocess()
    with pytest.raises(ValueError):
        operator.apply(np.zeros(3))


def test_dual_rhs_and_kplus(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.IMPLICIT_CHOLMOD,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    operator.preprocess()
    d = operator.dual_rhs()
    # reference: d = B K+ f - c
    expected = -heat_problem_2d.c.copy()
    for sub in heat_problem_2d.subdomains:
        z = spla.spsolve(sub.K_reg.tocsc(), sub.f)
        np.add.at(expected, sub.lambda_ids, sub.B @ z)
    assert np.allclose(d, expected, atol=1e-8)
    sub = heat_problem_2d.subdomains[0]
    z = kplus_solve(operator, sub.index, sub.f)
    assert np.allclose(sub.K_reg @ z, sub.f, atol=1e-8)


def test_timing_ledger_records_phases(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    operator.prepare()
    operator.preprocess()
    operator.apply(np.zeros(heat_problem_2d.n_lambda))
    operator.apply(np.zeros(heat_problem_2d.n_lambda))
    assert operator.preparation_time > 0
    assert operator.preprocessing_time > 0
    assert operator.application_time > 0
    assert operator.ledger.count("apply") == 2
    breakdown = operator.ledger.last("preprocessing").breakdown
    assert "trsm" in breakdown and breakdown["trsm"] > 0


def test_gpu_memory_is_actually_used(heat_problem_2d, small_machine_config):
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
        heat_problem_2d,
        machine_config=small_machine_config,
    )
    operator.preprocess()
    replay = priced_replay(operator, small_machine_config)
    for cluster, subs in iter_clusters(operator, replay.machine):
        if not subs:
            continue
        assert cluster.device.memory.used_bytes > 0
        arena = cluster.device.require_temporary()
        assert arena.allocation_count > 0
        assert arena.used_bytes == 0  # everything released after preprocessing


@pytest.mark.parametrize("approach", ["expl modern", "expl hybrid"])
def test_symmetric_apply_stores_one_triangle_of_each_device_F(
    approach, heat_problem_2d, small_machine_config
):
    """SYMV reads one triangle of ``F̃ᵢ``: its persistent device buffer is half the size."""
    nbytes = {}
    for symmetric in (False, True):
        replay = replay_for(
            DualOperatorApproach(approach),
            heat_problem_2d,
            small_machine_config,
            AssemblyConfig(apply_symmetric=symmetric),
        )
        replay.prepare()
        states = replay.device_state
        nbytes[symmetric] = {i: state.F.nbytes for i, state in states.items()}

    def pool_bytes(n):  # the device pool allocates in 256-byte granules
        return -(-n // 256) * 256

    for sub in heat_problem_2d.subdomains:
        full = 8 * sub.n_lambda * sub.n_lambda
        assert nbytes[False][sub.index] == pool_bytes(full)
        assert nbytes[True][sub.index] == pool_bytes(full // 2)


def test_explicit_approaches_apply_faster_than_implicit_on_gpu(
    heat_problem_3d, small_machine_config
):
    """Sanity of the cost model: explicit GPU application beats implicit GPU."""
    implicit = make_dual_operator(
        DualOperatorApproach.IMPLICIT_GPU_MODERN,
        heat_problem_3d,
        machine_config=small_machine_config,
    )
    explicit = make_dual_operator(
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
        heat_problem_3d,
        machine_config=small_machine_config,
    )
    implicit.preprocess()
    explicit.preprocess()
    x = np.zeros(heat_problem_3d.n_lambda)
    implicit.apply(x)
    explicit.apply(x)
    assert explicit.application_time < implicit.application_time
    # and the explicit preprocessing is the more expensive phase
    assert explicit.preprocessing_time > implicit.preprocessing_time


def _one_preparation_pool(approach, problem, config: MachineConfig) -> MachineConfig:
    """``config`` with device memory for one preparation's persistent bytes
    and the arena its preprocessing holds, and no more: a second charge of
    the same pool fails."""
    replay = replay_for(approach, problem, config)
    replay.prepare()
    replay.preprocess()
    need = [
        c.device.memory.used_bytes
        - c.device.temporary.capacity_bytes
        + max(c.device.temporary.peak_bytes, 256)
        for c in replay.machine.clusters
        if c.has_device
    ]
    if not need:
        return config
    tight = replace(config, gpu_memory_bytes=max(need))
    # The tight pool fits one preparation, not two.
    fresh = replay_for(approach, problem, tight)
    fresh.prepare()
    fresh.preprocess()
    with pytest.raises(AllocationError):
        fresh.prepare()
    return tight


@pytest.mark.parametrize("approach", ["expl modern", "impl legacy", "expl hybrid", "expl mkl"])
def test_prepare_is_re_entrant(heat_problem_2d, small_machine_config, approach):
    """A second ``prepare()``, and a ``release()`` followed by ``preprocess()``,
    record the first preparation's phases bit for bit, on a device pool
    too small for two preparations' charges."""
    approach = DualOperatorApproach(approach)
    config = _one_preparation_pool(approach, heat_problem_2d, small_machine_config)
    operator = make_dual_operator(approach, heat_problem_2d, config)
    lam = np.random.default_rng(0).standard_normal(heat_problem_2d.n_lambda)

    def phases():
        operator.preprocess()
        q = operator.apply(lam)
        names = ("preparation", "preprocessing", "apply")
        return q, [
            (phase.simulated_seconds, list(phase.breakdown.items()))
            for phase in map(operator.ledger.last, names)
        ]

    operator.prepare()
    q, first = phases()
    operator.prepare()
    assert not operator.preprocessed  # the old factors went with the old analysis
    again, second = phases()
    operator.release()
    released, third = phases()
    assert second == first and third == first
    assert operator.ledger.count("preparation") == 2
    np.testing.assert_array_equal(again, q)
    np.testing.assert_array_equal(released, q)
