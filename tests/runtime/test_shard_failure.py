"""A shard that raises on a pool thread fails its round with its own exception.

The executor adds no wrapper: the cold ``Session.solve`` that ran the round
raises the shard's exception type once every other shard has finished, and
the session stays usable — its next solve preprocesses again and answers
bitwise like a serial session.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.runtime.preprocess as preprocess
from repro.api import Session, SolverSpec, Workload

WORKLOAD = Workload("heat", 2, (4, 4), 6, n_clusters=2)


class ShardFailure(Exception):
    """Raised by exactly one shard's Schur assembly."""


@pytest.mark.parametrize("approach", ["expl mkl", "expl modern"])
def test_a_failed_shard_raises_its_own_exception_and_the_session_recovers(
    approach, monkeypatch
):
    with Session(SolverSpec(approach=approach, execution="serial")) as serial:
        reference = serial.solve(WORKLOAD)

    schur_complements = preprocess.schur_complements
    lock = threading.Lock()
    raised, finished = [], []

    def failing_once(solvers, scatters):
        with lock:
            fail = not raised
            raised.append(fail)
        if fail:
            raise ShardFailure("injected")
        time.sleep(0.02)  # the healthy shard is still busy when the other fails
        F = schur_complements(solvers, scatters)
        finished.append(len(solvers))
        return F

    spec = SolverSpec(approach=approach, execution="threads:2")
    with Session(spec, memory_budget="unlimited") as session:
        monkeypatch.setattr(preprocess, "schur_complements", failing_once)
        with pytest.raises(ShardFailure, match="injected"):
            session.solve(WORKLOAD)
        assert raised[0] is True
        assert len(finished) == len(raised) - 1 > 0  # no shard runs on
        monkeypatch.undo()

        solution = session.solve(WORKLOAD)
    assert solution.converged
    assert solution.iterations == reference.iterations
    assert solution.lam.tobytes() == reference.lam.tobytes()
