"""A span that raises on a pool thread fails its round with its own exception.

The pool adds no wrapper: the cold ``Session.solve`` that ran the round
raises the span's exception type once every other span has finished, and
the session stays usable — its next solve preprocesses again and answers
bitwise like a serial session.  A subdomain that is not positive definite
fails its group's factorization with the subdomain and the pivot's column,
and the same solvers factor again once the values are SPD.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.runtime.preprocess as preprocess
from repro.api import Session, SolverSpec, Workload
from repro.decomposition import decompose_box
from repro.fem.elasticity import LinearElasticityProblem
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolver
from repro.sparse.numeric import NotPositiveDefiniteError

WORKLOAD = Workload("heat", 2, (4, 4), 6, n_clusters=2)


class SpanFailure(Exception):
    """Raised by exactly one span's Schur assembly."""


@pytest.mark.parametrize("approach", ["expl mkl", "expl modern"])
def test_a_failed_span_raises_its_own_exception_and_the_session_recovers(
    approach, monkeypatch
):
    with Session(SolverSpec(approach=approach, execution="serial")) as serial:
        reference = serial.solve(WORKLOAD)

    assemble = preprocess.stacked_schur_complement
    lock = threading.Lock()
    raised, finished = [], []

    def failing_once(symbolic, bands, scatters, workspace):
        with lock:
            fail = not raised
            raised.append(fail)
        if fail:
            raise SpanFailure("injected")
        time.sleep(0.02)  # the healthy span is still busy when the other fails
        F = assemble(symbolic, bands, scatters, workspace)
        finished.append(len(bands))
        return F

    spec = SolverSpec(approach=approach, execution="threads:2")
    with Session(spec, memory_budget="unlimited") as session:
        monkeypatch.setattr(preprocess, "stacked_schur_complement", failing_once)
        with pytest.raises(SpanFailure, match="injected"):
            session.solve(WORKLOAD)
        assert raised[0] is True
        assert len(finished) == len(raised) - 1 > 0  # no span runs on
        monkeypatch.undo()

        solution = session.solve(WORKLOAD)
    assert solution.converged
    assert solution.iterations == reference.iterations
    assert solution.lam.tobytes() == reference.lam.tobytes()


def _wide_problem():
    """Three 375-DOF elasticity 3D subdomains in one cluster: one pattern
    group whose band (kd 98) takes LAPACK's blocked ``dpbtrf``."""
    decomposition = decompose_box(3, (3, 1, 1), 4, order=1)
    return FetiProblem.from_physics(LinearElasticityProblem(), decomposition, ("xmin",))


@pytest.mark.parametrize("execution", ["serial", "threads:2"])
def test_an_indefinite_member_is_named_and_the_solvers_refactor(execution):
    reference = FetiSolver(_wide_problem(), SolverSpec(approach="expl mkl")).solve()
    problem = _wide_problem()
    solver = FetiSolver(problem, SolverSpec(approach="expl mkl", execution=execution))
    operator = solver.operator
    operator.prepare()
    bad, column = problem.subdomains[1], 200  # a DOF in the subdomain's own numbering
    K = bad.K_reg
    row = slice(K.indptr[column], K.indptr[column + 1])
    entry = K.indptr[column] + int(np.flatnonzero(K.indices[row] == column)[0])
    values = [group.K_reg.values.copy() for group in problem.groups]
    for group, stack in zip(problem.groups, values):
        stack[group.indices == bad.index, entry] = -1.0
    with pytest.raises(NotPositiveDefiniteError) as failure:
        operator.preprocess(values)
    assert (failure.value.member, failure.value.column) == (bad.index, column)
    assert f"matrix {bad.index} " in str(failure.value)

    solution = solver.solve()  # the same solvers factor the SPD values again
    assert solution.converged and solution.iterations == reference.iterations
    assert solution.lam.tobytes() == reference.lam.tobytes()
