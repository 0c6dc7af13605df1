"""A released dual operator holds no numeric bytes until its next preprocessing.

:meth:`~repro.feti.operators.base.DualOperator.release` is the tier's one
step: it drops every pattern group's factor band and every ``F̃ᵢ``, keeps the
structure (groups, analyses, scatters, cost replay) and leaves the operator unusable until a
preprocessing rebuilds the numbers — bitwise the ones it dropped.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload

SPECS = [
    pytest.param(SolverSpec(approach="expl mkl"), id="expl-mkl"),
    pytest.param(SolverSpec(approach="impl mkl"), id="impl-mkl"),
    pytest.param(SolverSpec(approach="expl modern", assembly="table2"), id="expl-modern"),
]
WORKLOAD = Workload("heat", 2, (4, 4), 4, n_clusters=2)


def _device_bytes(operator) -> list[tuple[int, int]]:
    """Used bytes and allocation count of every simulated device pool."""
    return [
        (c.device.memory.used_bytes, c.device.memory.allocation_count)
        for c in operator.machine.clusters
        if c.has_device
    ]


@pytest.mark.parametrize("spec", SPECS)
def test_a_released_operator_holds_nothing_until_it_preprocesses(spec):
    with Session(spec, memory_budget="unlimited") as session:
        solution = session.solve(WORKLOAD)
        operator = session.solver(WORKLOAD).operator
        x = np.random.default_rng(0).standard_normal(operator.problem.n_lambda)
        q, d = operator.apply(x), operator.dual_rhs()
        device = _device_bytes(operator)
        (group,) = operator._groups
        band = weakref.ref(group.band)
        dense = weakref.ref(operator.batch_engine.dense) if operator.explicit else None
        version = operator.storage_version

        operator.release()
        gc.collect()
        assert operator.storage_nbytes() == {"factor": 0, "pack": 0, "arena": 0}
        assert band() is None  # no group, solve or plan keeps the band alive
        assert dense is None or dense() is None  # nor the F̃ᵢ blocks
        assert not operator.preprocessed
        assert operator.storage_version != version
        assert operator.local_F == {}
        with pytest.raises(RuntimeError):
            operator.apply(x)
        with pytest.raises(RuntimeError):
            operator.dual_rhs()
        assert _device_bytes(operator) == device

        # The session sees the stale operator and re-factors; the numbers
        # are bitwise the released ones, the device byte sizes untouched.
        again = session.solve(WORKLOAD)
        assert operator.preprocessed
        assert operator.ledger.count("preprocessing") == 2
        assert operator.ledger.count("preparation") == 1
        assert np.array_equal(operator.apply(x), q)
        assert np.array_equal(operator.dual_rhs(), d)
        assert _device_bytes(operator) == device
    assert np.array_equal(again.lam, solution.lam)


def test_a_closed_session_holds_no_numeric_storage():
    """``Session.close()`` releases every cached solver: factors, ``F̃ᵢ`` and
    the preconditioner's ``M`` — the Dirichlet blocks applied by ``dsymv``
    (heat 3D ``x6`` has blocks of ``SYMV_MIN_ROWS`` rows or more) and the
    assembled CSR (all of lumped's ``M``, the small Dirichlet blocks' part
    on heat 2D), whose ``apply`` then raises.  Its executors are shut, so it
    solves nothing again."""
    heat_2d = Workload("heat", 2, (8, 8), 8, n_clusters=4)
    for workload, approach in [
        (Workload("heat", 3, (2, 2, 1), 6), "expl mkl"),  # Dirichlet, large blocks
        (heat_2d, "expl mkl"),  # Dirichlet, every block in the CSR
        (heat_2d, "impl mkl"),  # lumped
    ]:
        _closing_releases_everything(workload, approach)


def _closing_releases_everything(workload: Workload, approach: str) -> None:
    session = Session(SolverSpec(approach=approach), memory_budget="unlimited")
    session.solve(workload)
    solver = session.solver(workload)
    pre = solver.preconditioner
    (group,) = solver.operator.pattern_groups
    held = [weakref.ref(group.band)]
    if solver.operator.explicit:
        held += [weakref.ref(solver.operator.batch_engine.dense)]
    held += [weakref.ref(S.base) for S in getattr(pre, "_squares", [])]
    held += [weakref.ref(a) for a in (pre.matrix.data, pre.matrix.indices, pre.matrix.indptr)]
    assert (workload.dim == 3) == bool(getattr(pre, "_squares", []))
    session.close()
    gc.collect()
    assert all(ref() is None for ref in held)
    assert not solver.operator.preprocessed
    x = np.ones(solver.problem.n_lambda)
    with pytest.raises(RuntimeError, match="released: refresh\\(\\) first"):
        pre.apply(x)
    with pytest.raises(RuntimeError, match="released: refresh\\(\\) first"):
        pre.apply_block(x[:, None])
    assert session.cache_stats()["released_entries"] == 1
    session.close()  # idempotent: nothing left to release
    assert session.cache_stats()["released_entries"] == 1
    with pytest.raises(RuntimeError, match="closed"):
        session.solve(workload)


def test_a_failing_preprocessing_leaves_the_operator_stale(monkeypatch):
    with Session(SolverSpec(approach="expl mkl"), memory_budget="unlimited") as session:
        session.solve(WORKLOAD)
        operator = session.solver(WORKLOAD).operator
        replay = operator.replay

        def boom():
            raise RuntimeError("injected replay failure")

        monkeypatch.setattr(replay, "preprocess", boom)
        with pytest.raises(RuntimeError, match="injected"):
            operator.preprocess()
        assert not operator.preprocessed
        monkeypatch.undo()
        session.solve(WORKLOAD)
        assert operator.ledger.count("preprocessing") == 2


def test_a_block_solve_refactors_a_released_entry():
    """``solve_many`` reuses a preprocessing only while the operator holds it."""
    with Session(SolverSpec(approach="expl mkl"), memory_budget="unlimited") as session:
        reference = session.solve_many(WORKLOAD, [None, None])
        operator = session.solver(WORKLOAD).operator
        operator.release()
        again = session.solve_many(WORKLOAD, [None, None])
        assert operator.ledger.count("preprocessing") == 2
        session.solve_many(WORKLOAD, [None, None])
        assert operator.ledger.count("preprocessing") == 2
    for a, b in zip(again, reference):
        assert np.array_equal(a.lam, b.lam)
