"""The apply's simulated timeline comes from the operator's price list.

An apply is numerics plus the ``(simulated_seconds, breakdown)`` of one
apply, which is a pure function of the subdomain shapes, the machine and
the assembly configuration: ``prepare()`` prices it once, with the other
phases.  These tests pin the contract: what an apply records equals a
fresh replay bit for bit, equals the per-subdomain loop of
``tests/oracles/apply.py`` (which replays on every apply and is the
oracle), survives every ``preprocess()`` and ``release()`` unchanged, and
is the same whichever thread records it.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.topology import MachineConfig
from repro.decomposition import decompose_box
from repro.feti.config import (
    AssemblyConfig,
    DualOperatorApproach,
    ScatterGatherDevice,
)
from repro.feti.operators import BatchedDenseApply, make_dual_operator
from repro.feti.problem import FetiProblem

from tests.oracles.apply import looped_apply, looped_apply_multi
from tests.oracles.clusters import priced_replay

APPROACHES = list(DualOperatorApproach)
#: The CPU approaches' price list sums its cost arrays with NumPy's pairwise
#: ``sum`` while the loop adds one cost at a time: same terms, another order.
_CPU_SUM_RTOL = 1e-12
_CPU_APPROACHES = {
    DualOperatorApproach.IMPLICIT_MKL,
    DualOperatorApproach.IMPLICIT_CHOLMOD,
    DualOperatorApproach.EXPLICIT_MKL,
    DualOperatorApproach.EXPLICIT_CHOLMOD,
}


@pytest.fixture(scope="module")
def problem(heat) -> FetiProblem:
    """4×2 subdomains in 2 clusters: four subdomains share two streams each."""
    dec = decompose_box(2, (4, 2), 3, order=1, n_clusters=2)
    return FetiProblem.from_physics(heat, dec, dirichlet_faces=("xmin",))


@pytest.fixture(scope="module")
def machine_config() -> MachineConfig:
    return MachineConfig(threads_per_cluster=2, streams_per_cluster=2)


def _operator(problem, machine_config, approach, scatter):
    operator = make_dual_operator(
        approach,
        problem,
        machine_config=machine_config,
        assembly_config=AssemblyConfig(scatter_gather=scatter),
    )
    operator.preprocess()
    return operator


def _assert_same_timeline(planned, looped_sim, looped_breakdown, approach):
    """Same simulated seconds, same breakdown keys in the same order."""
    assert planned.simulated_seconds == looped_sim
    assert list(planned.breakdown) == list(looped_breakdown)
    for key, value in looped_breakdown.items():
        if approach in _CPU_APPROACHES:
            assert planned.breakdown[key] == pytest.approx(value, rel=_CPU_SUM_RTOL)
        else:
            assert planned.breakdown[key] == value


@pytest.mark.parametrize("scatter", list(ScatterGatherDevice))
@pytest.mark.parametrize("approach", APPROACHES)
def test_planned_apply_equals_the_replaying_loop(
    problem, machine_config, approach, scatter
):
    planned = _operator(problem, machine_config, approach, scatter)
    replay = priced_replay(planned, machine_config)
    rng = np.random.default_rng(7)
    looped_total = 0.0
    for n in range(1, 11):
        x = rng.standard_normal(problem.n_lambda)
        q_planned = planned.apply(x)
        q_looped, sim, breakdown = looped_apply(planned, x, replay)
        looped_total += sim
        if n in (1, 2, 10):
            np.testing.assert_allclose(q_planned, q_looped, rtol=1e-12, atol=1e-12)
            _assert_same_timeline(planned.ledger.last("apply"), sim, breakdown, approach)
            # The price *is* what a replay returns, bit for bit, and every
            # apply shares its one breakdown mapping.
            assert replay.apply() == planned.prices.applied
            assert planned.ledger.last("apply").breakdown is planned.prices.applied[1]
    assert planned.ledger.total("apply") == looped_total

    block = rng.standard_normal((problem.n_lambda, 3))
    Q_looped, sim, breakdown = looped_apply_multi(planned, block, replay)
    np.testing.assert_allclose(
        planned.apply_multi(block), Q_looped, rtol=1e-12, atol=1e-12
    )
    multi = planned.ledger.last("apply_multi")
    if approach.is_explicit:
        assert multi.simulated_seconds == pytest.approx(sim, rel=_CPU_SUM_RTOL)
        assert list(multi.breakdown) == list(breakdown)
    else:
        _assert_same_timeline(multi, sim, breakdown, approach)


@pytest.mark.parametrize("approach", [a for a in APPROACHES if a.is_explicit])
def test_apply_multi_is_one_pack_gemm(problem, machine_config, approach, monkeypatch):
    """``apply_multi`` runs one batched GEMM on every explicit approach."""
    operator = _operator(problem, machine_config, approach, ScatterGatherDevice.GPU)
    widths = []
    apply_multi = BatchedDenseApply.apply_multi

    def spy(self, lam_block):
        widths.append(lam_block.shape[1])
        return apply_multi(self, lam_block)

    monkeypatch.setattr(BatchedDenseApply, "apply_multi", spy)
    block = np.random.default_rng(11).standard_normal((problem.n_lambda, 3))
    for _ in range(2):
        operator.apply_multi(block)
    assert widths == [3, 3]


@pytest.mark.parametrize("approach", APPROACHES)
def test_preprocess_and_release_keep_the_price_list(problem, machine_config, approach):
    operator = _operator(problem, machine_config, approach, ScatterGatherDevice.GPU)
    prices = operator.prices
    x = np.random.default_rng(3).standard_normal(problem.n_lambda)
    operator.apply(x)
    honest = operator.ledger.last("apply")
    assert honest.breakdown is prices.applied[1]

    # What an apply records is the price list's, read at every apply ...
    poisoned = replace(prices, applied=(-1.0, {"poisoned": 1.0}))
    operator.prices = poisoned
    operator.apply(x)
    assert operator.ledger.last("apply").simulated_seconds == -1.0
    # ... and neither a preprocessing nor a release reprices,
    operator.preprocess()
    operator.release()
    operator.preprocess()
    assert operator.prices is poisoned
    operator.apply(x)
    assert operator.ledger.last("apply").simulated_seconds == -1.0
    # while a preparation prices afresh, bitwise the first list.
    operator.prepare()
    fresh = operator.prices
    assert fresh is not poisoned
    assert (fresh.preparation, fresh.preprocessing, fresh.applied) == (
        prices.preparation,
        prices.preprocessing,
        prices.applied,
    )
    operator.preprocess()
    operator.apply(x)
    rebuilt = operator.ledger.last("apply")
    assert rebuilt.simulated_seconds == honest.simulated_seconds
    assert list(rebuilt.breakdown.items()) == list(honest.breakdown.items())


def test_concurrent_first_applies_record_equal_phases(problem, machine_config, monkeypatch):
    """More threads than cores race to the first apply after a preprocessing:
    every one records the same apply phase, bit for bit."""
    operator = _operator(
        problem,
        machine_config,
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
        ScatterGatherDevice.GPU,
    )
    _, expected_sim, expected_breakdown = looped_apply(
        operator,
        np.zeros(problem.n_lambda),
        priced_replay(operator, machine_config),
    )
    recorded = []
    record = operator.ledger.record

    def keeping_record(phase):
        recorded.append(phase)
        return record(phase)

    monkeypatch.setattr(operator.ledger, "record", keeping_record)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    x = np.random.default_rng(13).standard_normal(problem.n_lambda)

    def worker() -> None:
        barrier.wait(timeout=10)
        operator.apply(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [phase.name for phase in recorded] == ["apply"] * n_threads
    for phase in recorded:
        assert phase.simulated_seconds == expected_sim
        assert list(phase.breakdown.items()) == list(expected_breakdown.items())
