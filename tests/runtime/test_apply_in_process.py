"""The solve phase never dispatches: every apply runs in the caller's process.

The executor parallelizes preprocessing only.  Preprocessing is bitwise
equal across executors (``test_determinism.py``), so an operator
preprocessed on ``threads:2`` or ``processes:2`` applies bitwise like the
serial one, and a warm solve — applies, projector, preconditioner — makes
no executor submit at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload

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
BACKENDS = ["threads:2", "processes:2"]

HEAT = Workload("heat", 2, (3, 3), 6)


def _applies(approach, execution=None):
    """``apply`` and stacked ``apply_multi`` of one freshly preprocessed operator."""
    spec = SolverSpec(approach=approach, execution=execution or "serial")
    with Session(spec) as session:
        operator = session.operator_for(HEAT)
        operator.prepare()
        operator.preprocess()
        rng = np.random.default_rng(42)
        lam = rng.standard_normal(operator.problem.n_lambda)
        block = rng.standard_normal((operator.problem.n_lambda, 3))
        return operator.apply(lam), operator.apply_multi(block, stacked=True)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("approach", APPROACHES)
def test_parallel_apply_is_bitwise_the_serial_apply(approach, backend):
    serial_q, serial_Q = _applies(approach)
    q, Q = _applies(approach, backend)
    assert np.array_equal(q, serial_q)
    assert np.array_equal(Q, serial_Q)


W_WARM = Workload("heat", 2, (8, 8), 8, n_clusters=4)
WARM_SPECS = {
    "expl-modern-table2": dict(approach="expl modern", assembly="table2"),
    "expl-mkl": dict(approach="expl mkl"),
}


def _warm_solve(spec_kwargs, execution, monkeypatch=None):
    """A warm ``Session.solve`` and the executor submits it made."""
    spec = SolverSpec(execution=execution, **spec_kwargs)
    with Session(spec, memory_budget="unlimited") as session:
        session.solve(W_WARM)
        submits = [0]
        if monkeypatch is not None:
            executor = session.executor()
            submit = executor.submit

            def counted(fn, /, *args, **kwargs):
                submits[0] += 1
                return submit(fn, *args, **kwargs)

            monkeypatch.setattr(executor, "submit", counted)
        warm = session.solve(W_WARM)
    return warm, submits[0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spec_name", sorted(WARM_SPECS))
def test_warm_solve_makes_no_executor_submit(spec_name, backend, monkeypatch):
    reference, _ = _warm_solve(WARM_SPECS[spec_name], "serial")
    warm, submits = _warm_solve(WARM_SPECS[spec_name], backend, monkeypatch)
    assert warm.converged and warm.iterations == reference.iterations
    assert submits == 0
    assert warm.lam.tobytes() == reference.lam.tobytes()


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
