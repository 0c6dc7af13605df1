"""Trace-context propagation into the preprocessing's pool threads.

Worker spans must attribute to the submitting span: a ``threads:n`` round
re-installs the caller's captured ContextVar state around every span task.
"""

import threading

from repro.api import Session, SolverSpec, Workload
from repro.observe.trace import capture_context, trace

WORKLOAD = Workload("heat", 2, (2, 2), 4)


def test_pool_thread_spans_attribute_to_the_preprocessing_span():
    """Both span tasks of a ``threads:2`` round open their ``factorize`` span
    on a pool thread, under the caller's ``preprocessing`` span."""
    with trace() as tracer:
        with Session(SolverSpec(execution="threads:2")) as session:
            assert session.solve(WORKLOAD).converged
    (preprocessing,) = tracer.find("preprocessing")
    workers = tracer.find("factorize")
    assert len(workers) == 2
    assert {s.parent_id for s in workers} == {preprocessing.span_id}
    assert threading.get_ident() not in {s.tid for s in workers}


def test_an_untraced_threads_round_still_works():
    assert capture_context() is None
    with Session(SolverSpec(execution="threads:2")) as session:
        assert session.solve(WORKLOAD).converged


def test_traced_session_solve_with_thread_backend():
    """End to end: a traced solve on the threads backend attributes the
    worker-side factorization spans into the session's span tree."""
    spec = SolverSpec(execution="threads:2")
    with trace() as tracer:
        with Session(spec) as session:
            solution = session.solve(WORKLOAD)
    assert solution.pcpg.converged
    assert tracer.find("factorize"), "expected factorize spans from the preprocessing"
    # the whole tree hangs off session.solve — no orphaned worker spans
    tree = tracer.to_tree()
    roots = [node["name"] for node in tree]
    assert roots == ["session.solve"]
