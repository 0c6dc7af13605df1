"""Trace-context propagation through the runtime executors.

The worker spans of both backends must attribute to the submitting span:
threads re-install the captured ContextVar state, processes run the task
under a worker-local tracer whose spans are shipped back and adopted under
the submitting span's id.
"""

import os

import pytest

from repro.api import Session, SolverSpec, Workload
from repro.observe.trace import capture_context, trace, trace_span
from repro.runtime.executor import ExecutionSpec, ThreadExecutor, make_executor


def test_thread_executor_workers_attribute_to_parent():
    executor = ThreadExecutor(ExecutionSpec("threads", 2))
    try:
        with trace() as tracer:
            with trace_span("submitting"):

                def work(i: int) -> int:
                    with trace_span("worker", i=i):
                        return i * 2

                futures = [executor.submit(work, i) for i in range(4)]
                assert sorted(f.result() for f in futures) == [0, 2, 4, 6]
    finally:
        executor.close()
    submitting = tracer.find("submitting")[0]
    workers = tracer.find("worker")
    assert len(workers) == 4
    assert {s.parent_id for s in workers} == {submitting.span_id}


def test_thread_executor_without_trace_still_works():
    executor = ThreadExecutor(ExecutionSpec("threads", 2))
    try:
        assert capture_context() is None
        assert executor.submit(lambda: 41 + 1).result() == 42
    finally:
        executor.close()


def _traced_task(value: int) -> int:
    with trace_span("process_worker", value=value):
        return value + 10


def test_process_executor_ships_spans_back():
    executor = make_executor(ExecutionSpec("processes", 2))
    try:
        with trace() as tracer:
            with trace_span("parent"):
                futures = [executor.submit(_traced_task, i) for i in range(3)]
                assert sorted(f.result() for f in futures) == [10, 11, 12]
    finally:
        executor.close()
    parent = tracer.find("parent")[0]
    workers = tracer.find("process_worker")
    assert len(workers) == 3
    assert {s.parent_id for s in workers} == {parent.span_id}
    # worker spans come from other processes
    assert any(s.pid != os.getpid() for s in workers)


def test_process_executor_exception_passthrough():
    executor = make_executor(ExecutionSpec("processes", 2))
    try:
        with trace():
            future = executor.submit(_exploding_task)
            with pytest.raises(RuntimeError, match="intentional"):
                future.result()
    finally:
        executor.close()


def _exploding_task() -> None:
    raise RuntimeError("intentional")


def test_traced_session_solve_with_process_backend():
    """End to end: a traced solve on the process backend attributes the
    worker-side factorization spans into the session's span tree."""
    spec = SolverSpec(execution=ExecutionSpec("processes", 2))
    workload = Workload("heat", 2, (2, 2), 4)
    with trace() as tracer:
        with Session(spec) as session:
            solution = session.solve(workload)
    assert solution.pcpg.converged
    factorize = tracer.find("factorize")
    assert factorize, "expected factorize spans from the process workers"
    assert all(s.pid != os.getpid() for s in factorize)
    # the whole tree hangs off session.solve — no orphaned worker spans
    tree = tracer.to_tree()
    roots = [node["name"] for node in tree]
    assert roots == ["session.solve"]
