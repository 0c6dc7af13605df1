"""The apply's simulated timeline is planned once per preprocessing.

An apply is numerics plus a *plan* — the ``(simulated_seconds, breakdown)``
the stream/clock replay yields, which is a pure function of the preprocessed
state.  These tests pin the contract: the plan equals a fresh replay bit for
bit, equals the per-subdomain loop of ``tests/oracles/apply.py`` (which
replays on every apply and is the oracle), is rebuilt by every
``preprocess()``, and is computed once even when several threads hit the
first apply together.
"""

from __future__ import annotations

import sys
import threading

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

APPROACHES = list(DualOperatorApproach)
#: The CPU approaches' plan sums its cost arrays with NumPy's pairwise
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
    rng = np.random.default_rng(7)
    looped_total = 0.0
    for n in range(1, 11):
        x = rng.standard_normal(problem.n_lambda)
        q_planned = planned.apply(x)
        q_looped, sim, breakdown = looped_apply(planned, x)
        looped_total += sim
        if n in (1, 2, 10):
            np.testing.assert_allclose(q_planned, q_looped, rtol=1e-12, atol=1e-12)
            _assert_same_timeline(planned.ledger.last("apply"), sim, breakdown, approach)
            # The plan *is* what a replay returns, bit for bit, and every
            # planned apply shares its one breakdown mapping.
            assert planned.replay.apply() == planned._apply_plans[1]
            assert planned.ledger.last("apply").breakdown is planned._apply_plans[1][1]
    assert planned.ledger.total("apply") == looped_total

    block = rng.standard_normal((problem.n_lambda, 3))
    Q_looped, sim, breakdown = looped_apply_multi(planned, block)
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
def test_preprocess_and_release_rebuild_the_plan(problem, machine_config, approach):
    operator = _operator(problem, machine_config, approach, ScatterGatherDevice.GPU)
    x = np.random.default_rng(3).standard_normal(problem.n_lambda)
    operator.apply(x)
    honest = operator.ledger.last("apply")

    def poison():
        operator._apply_plans[1] = (-1.0, {"poisoned": 1.0})

    # The cached plan is what an apply records ...
    poison()
    operator.apply(x)
    assert operator.ledger.last("apply").simulated_seconds == -1.0
    # ... until the next preprocessing drops it,
    operator.preprocess()
    operator.apply(x)
    rebuilt = operator.ledger.last("apply")
    assert rebuilt.simulated_seconds == honest.simulated_seconds
    assert list(rebuilt.breakdown.items()) == list(honest.breakdown.items())
    # and so does a release (followed by the re-preprocessing it forces).
    poison()
    operator.release()
    assert not operator._apply_plans
    operator.preprocess()
    operator.apply(x)
    assert operator.ledger.last("apply").simulated_seconds == honest.simulated_seconds


def test_stream_logs_show_one_apply_after_planned_applies(problem):
    """``keep_stream_logs``: the streams hold the replay of exactly one apply."""
    operator = make_dual_operator(DualOperatorApproach.EXPLICIT_GPU_MODERN, problem)
    operator.prepare()
    streams = [s for c in operator.machine.clusters for s in c.streams]
    for stream in streams:
        stream.keep_log = True
    operator.preprocess()
    x = np.random.default_rng(5).standard_normal(problem.n_lambda)
    for _ in range(3):
        operator.apply(x)
    planned = [(list(s.operations), s.tail) for s in streams]
    assert any(operations for operations, _ in planned)
    looped_apply(operator, x)  # resets the timelines and replays one apply
    assert [(list(s.operations), s.tail) for s in streams] == planned


def test_first_apply_from_many_threads_plans_once(problem, machine_config, monkeypatch):
    """More threads than cores race to the first apply: one uninterleaved replay."""
    operator = _operator(
        problem,
        machine_config,
        DualOperatorApproach.IMPLICIT_GPU_MODERN,
        ScatterGatherDevice.GPU,
    )
    _, expected_sim, expected_breakdown = looped_apply(
        operator, np.zeros(problem.n_lambda)
    )

    replays = []
    plan_apply = operator.replay.apply

    def counting_plan_apply(columns=1):
        replays.append(threading.get_ident())
        return plan_apply(columns)

    monkeypatch.setattr(operator.replay, "apply", counting_plan_apply)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    plans: list = [None] * n_threads

    def worker(slot: int) -> None:
        barrier.wait(timeout=10)
        plans[slot] = operator._planned(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(replays) == 1
    assert all(plan is plans[0] for plan in plans)
    assert plans[0][0] == expected_sim
    assert list(plans[0][1].items()) == list(expected_breakdown.items())
