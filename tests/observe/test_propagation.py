"""Trace-context propagation through the runtime executors.

Worker spans must attribute to the submitting span: the thread executor
re-installs the captured ContextVar state around every task.
"""

from repro.api import Session, SolverSpec, Workload
from repro.observe.trace import capture_context, trace, trace_span
from repro.runtime.executor import ExecutionSpec, ThreadExecutor


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


def test_traced_session_solve_with_thread_backend():
    """End to end: a traced solve on the threads backend attributes the
    worker-side factorization spans into the session's span tree."""
    spec = SolverSpec(execution=ExecutionSpec("threads", 2))
    workload = Workload("heat", 2, (2, 2), 4)
    with trace() as tracer:
        with Session(spec) as session:
            solution = session.solve(workload)
    assert solution.pcpg.converged
    assert tracer.find("factorize"), "expected factorize spans from the shards"
    # the whole tree hangs off session.solve — no orphaned worker spans
    tree = tracer.to_tree()
    roots = [node["name"] for node in tree]
    assert roots == ["session.solve"]
