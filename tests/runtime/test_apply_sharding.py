"""Sharded dual-operator apply: equality with the serial reference.

The apply phase is sharded across runtime executor workers (threads chunk
the packed batched kernels in-process; processes run them on arena-resident
inputs in pool workers).  The contract, per approach:

* ``threads`` — bitwise equal to the serial apply of the same preprocessed
  operator (chunks of a batched ``matmul`` are computed independently along
  the leading axis);
* ``processes`` — ≤1e-12 relative (same kernels on shared-memory views).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.runtime.apply import min_shard_items, sharded_matvec
from repro.runtime.executor import SerialExecutor

APPROACHES = [
    "impl mkl",
    "impl cholmod",
    "impl legacy",
    "impl modern",
    "expl mkl",
    "expl cholmod",
    "expl legacy",
    "expl modern",
    "expl hybrid",
]

HEAT = Workload("heat", 2, (3, 3), 6)


def _applied(approach, execution, lam):
    spec = (
        SolverSpec(approach=approach, execution=execution)
        if execution
        else SolverSpec(approach=approach)
    )
    with Session(spec) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        return operator.apply(lam)


def _lam_for(approach):
    with Session(SolverSpec(approach=approach)) as session:
        n = session.problem(HEAT).n_lambda
    return np.random.default_rng(42).standard_normal(n)


def _threaded_then_serial(approach, apply):
    """``apply(operator)`` sharded on ``threads:2``, then serially, on one operator.

    Both executions read the same preprocessed state: the claim is about the
    apply.  (Preprocessing on ``threads`` assembles ``F̃ᵢ`` with the padded
    batched Schur kernel, which agrees with the serial loop to rounding
    only — see :mod:`repro.runtime.preprocess`.)
    """
    with Session(SolverSpec(approach=approach, execution="threads:2")) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        sharded = apply(operator)
        operator._executor = SerialExecutor()
        serial = apply(operator)
    return serial, sharded


@pytest.mark.parametrize("approach", APPROACHES)
def test_threads_sharded_apply_is_bitwise_equal_to_serial(approach, monkeypatch):
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "1")
    lam = _lam_for(approach)
    serial, sharded = _threaded_then_serial(approach, lambda op: op.apply(lam))
    assert np.array_equal(serial, sharded)


@pytest.mark.parametrize("approach", APPROACHES)
def test_processes_sharded_apply_within_1e12_of_serial(approach, monkeypatch):
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "1")
    lam = _lam_for(approach)
    serial = _applied(approach, None, lam)
    sharded = _applied(approach, "processes:2", lam)
    denom = max(np.linalg.norm(serial), 1e-300)
    assert np.linalg.norm(sharded - serial) / denom <= 1e-12


def test_min_shard_items_gates_tiny_packs(monkeypatch):
    monkeypatch.delenv("REPRO_APPLY_MIN_BATCH", raising=False)
    assert min_shard_items() == 16
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "3")
    assert min_shard_items() == 3
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "0")
    assert min_shard_items() == 1
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "not-a-number")
    assert min_shard_items() == 16


def test_sharded_matvec_serial_fallback_is_the_reference_path():
    """Without an executor the sharded entry point is exactly dense.matvec."""

    class _Map:
        n_items = 4

    class _Dense:
        map = _Map()

        def __init__(self):
            self.calls = []

        def matvec(self, p):
            self.calls.append("matvec")
            return p * 2.0

    dense = _Dense()
    out = sharded_matvec(dense, np.arange(4.0), None)
    assert dense.calls == ["matvec"]
    assert np.array_equal(out, np.arange(4.0) * 2.0)


@pytest.mark.parametrize("approach", ["expl mkl", "expl modern", "expl hybrid"])
def test_apply_multi_default_is_bitwise_k_applies(approach):
    with Session(SolverSpec(approach=approach)) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        n = session.problem(HEAT).n_lambda
        rng = np.random.default_rng(3)
        block = rng.standard_normal((n, 3))
        multi = operator.apply_multi(block)
        for j in range(3):
            col = operator.apply(np.ascontiguousarray(block[:, j]))
            assert np.array_equal(multi[:, j], col)


@pytest.mark.parametrize("approach", ["expl mkl", "expl cholmod", "expl hybrid"])
def test_apply_multi_stacked_within_1e12_of_per_column(approach):
    with Session(SolverSpec(approach=approach)) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        n = session.problem(HEAT).n_lambda
        rng = np.random.default_rng(8)
        block = rng.standard_normal((n, 4))
        plain = operator.apply_multi(block)
        stacked = operator.apply_multi(block, stacked=True)
        denom = max(np.linalg.norm(plain), 1e-300)
        assert np.linalg.norm(stacked - plain) / denom <= 1e-12


def test_apply_multi_requires_preprocessing():
    with Session() as session:
        operator = session.operator_for(HEAT)
        with pytest.raises(RuntimeError):
            operator.apply_multi(np.zeros((3, 2)))


# --------------------------------------------------------------------- #
# Stacked multi-RHS sharding                                             #
# --------------------------------------------------------------------- #
EXPLICIT = ["expl mkl", "expl cholmod", "expl modern", "expl hybrid"]


def _applied_multi(approach, execution, block):
    spec = (
        SolverSpec(approach=approach, execution=execution)
        if execution
        else SolverSpec(approach=approach)
    )
    with Session(spec) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        return operator.apply_multi(block, stacked=True)


def _block_for(approach, k, seed=7):
    with Session(SolverSpec(approach=approach)) as session:
        n = session.problem(HEAT).n_lambda
    return np.random.default_rng(seed).standard_normal((n, k))


@pytest.mark.parametrize("approach", EXPLICIT)
def test_threads_sharded_multi_apply_is_bitwise_equal_to_serial(approach, monkeypatch):
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "1")
    block = _block_for(approach, 3)
    serial, sharded = _threaded_then_serial(
        approach, lambda op: op.apply_multi(block, stacked=True)
    )
    assert np.array_equal(serial, sharded)


@pytest.mark.parametrize("approach", EXPLICIT)
def test_processes_sharded_multi_apply_within_1e12_of_serial(approach, monkeypatch):
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "1")
    block = _block_for(approach, 3)
    serial = _applied_multi(approach, None, block)
    sharded = _applied_multi(approach, "processes:2", block)
    denom = max(np.linalg.norm(serial), 1e-300)
    assert np.linalg.norm(sharded - serial) / denom <= 1e-12


def test_processes_multi_apply_reuses_arena_across_widths(monkeypatch):
    """Fluctuating batch widths slice one wide arena; growth rebuilds it."""
    monkeypatch.setenv("REPRO_APPLY_MIN_BATCH", "1")
    approach = "expl mkl"
    with Session(SolverSpec(approach=approach, execution="processes:2")) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        n = session.problem(HEAT).n_lambda
        rng = np.random.default_rng(11)
        reference = Session(SolverSpec(approach=approach))
        ref_op = reference.operator_for(HEAT)
        ref_op.prepare()
        ref_op.preprocess()
        states = []
        for k in (2, 5, 3):  # within cap, beyond cap (rebuild), shrink (reuse)
            block = rng.standard_normal((n, k))
            got = operator.apply_multi(block, stacked=True)
            want = ref_op.apply_multi(block, stacked=True)
            denom = max(np.linalg.norm(want), 1e-300)
            assert np.linalg.norm(got - want) / denom <= 1e-12
            dense = operator.batch_engine.dense
            states.append(getattr(dense, "_process_multi_state", None))
        reference.close()
    assert states[0] is not None
    assert states[1] is not states[0]  # k=5 exceeded the initial cap of 4
    assert states[2] is states[1]  # k=3 sliced the grown arena in place
