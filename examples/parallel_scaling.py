"""Parallel runtime: split the preprocessing across workers and serve requests.

The :mod:`repro.runtime` subsystem adds host-side parallelism on top of the
simulated machine: a :class:`~repro.api.SolverSpec` declares an ``execution``
backend (``serial`` | ``threads``) and a worker count, and the session cuts
every FETI preprocessing into one contiguous span of its pattern groups'
members per worker.  The solve phase is not split: the dual-operator apply
is one batched GEMV in the caller's process on every backend, and
concurrent requests (:meth:`~repro.api.Session.solve_request`) run on
their callers' threads against one shared session.

This script drives the two parallel layers and the block-solve path
between them:

1. a worker-count sweep of the preprocessing wall time on the 64-subdomain
   scenario (the data behind the committed ``BENCH_parallel_scaling.json``
   baseline),
2. a multi-RHS block solve via :meth:`Session.solve_many` — one stacked
   PCPG iteration answering many load cases at once, serially (the data
   behind the ``BENCH_apply_phase.json`` baseline), and
3. a burst of concurrent solve requests — the "many users" serving path,
   where :meth:`~repro.api.Session.solve_request` answers every request
   with its own scalar solve.

Run with:  python examples/parallel_scaling.py
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import Session, SolverSpec, Workload

#: The 64-subdomain workload of the ``parallel_scaling`` bench scenario.
WORKLOAD = Workload(physics="heat", dim=2, subdomains=(8, 8), cells=8)

#: The sweep: serial (one task over every pattern group) plus thread pools.
BACKENDS = [None, "threads:2", "threads:4"]


def preprocessing_wall_seconds(execution: str | None) -> float:
    """Preparation + FETI preprocessing wall time under one backend."""
    spec = SolverSpec(
        approach="expl mkl",
        threads_per_cluster=4,
        streams_per_cluster=4,
        execution=execution,
    )
    with Session(spec) as session:
        operator = session.operator_for(WORKLOAD)
        start = time.perf_counter()
        operator.prepare()
        operator.preprocess()
        return time.perf_counter() - start


def sweep_worker_counts() -> None:
    print(f"workload: {WORKLOAD.describe()}")
    # One pattern group: the 4 spans cut its member list like np.array_split.
    spans = [len(span) for span in np.array_split(np.arange(WORKLOAD.n_subdomains), 4)]
    print(f"preprocessing spans at 4 workers: {spans} subdomains\n")

    serial = None
    print(f"{'executor':<12} {'preprocessing':>14} {'speedup':>8}")
    for backend in BACKENDS:
        wall = preprocessing_wall_seconds(backend)
        if serial is None:
            serial = wall
        label = backend or "serial"
        print(f"{label:<12} {wall * 1e3:>11.1f} ms {serial / wall:>7.2f}x")
    print(
        "\n(every executor runs the same stacked kernels; threads run the "
        "spans in-process and\n overlap inside the GIL-free BLAS kernels — "
        "a win only once subdomains\n are large enough, and never beyond "
        "the host's core count)"
    )


def block_solve_many_load_cases() -> None:
    """Session.solve_many: one block-PCPG iteration over stacked RHS columns.

    The applies of all still-active columns are fused into one GEMM per
    iteration — the throughput path measured by ``BENCH_apply_phase.json``;
    the answers agree with solving the cases one by one to rounding.
    """
    factors = [1.0 + 0.5 * k for k in range(6)]
    print(f"\nblock solve: {len(factors)} load cases in one stacked PCPG run:")
    with Session(SolverSpec(approach="expl mkl")) as session:
        base = session.base_loads(WORKLOAD)
        loads_columns = [[f * load for load in base] for f in factors]

        start = time.perf_counter()
        solutions = session.solve_many(WORKLOAD, loads_columns)
        block_wall = time.perf_counter() - start

        for factor, solution in zip(factors, solutions):
            norm = np.linalg.norm(solution.lam)
            print(
                f"  load x{factor:.1f}: |lambda| = {norm:.4e}, "
                f"{solution.iterations} iterations"
            )
        stats = session.cache_stats()
        print(
            f"  one stacked solve ({stats['stacked_solves']} recorded, "
            f"{stats['stacked_columns']} columns) took {block_wall * 1e3:.1f} ms; "
            "per-column convergence masking retires easy cases early"
        )


def serve_a_request_burst() -> None:
    """Many (workload, spec, rhs) requests from caller threads, one session.

    Same-workload requests serialize on the session's workload lock and
    each runs its own scalar solve, so an answer never depends on what
    else was in flight: it is bitwise the answer of the same request alone.
    """
    print("\nconcurrent solve requests (8 requests, 2 caller threads):")
    with Session(SolverSpec(approach="expl mkl", execution="threads:2")) as session:
        # Eight "users": the same model under different load scalings.
        scales = [1.0 + 0.25 * k for k in range(8)]
        with ThreadPoolExecutor(max_workers=2) as users:
            results = list(
                users.map(lambda scale: session.solve_request(WORKLOAD, rhs=scale), scales)
            )
        alone = session.solve_request(WORKLOAD, rhs=1.75)
    reference = np.linalg.norm(results[0].lam)
    for k, result in enumerate(results):
        scale = 1.0 + 0.25 * k
        norm = np.linalg.norm(result.lam)
        print(
            f"  request {k}: load x{scale:.2f} -> |lambda| = {norm:.4e} "
            f"({norm / reference:.2f}x, {result.iterations} iterations)"
        )
    print("  (the dual problem is linear in the loads: |lambda| scales with them)")
    same = np.array_equal(alone.lam, results[3].lam)
    print(f"  request 3 resubmitted alone: bitwise the same answer: {same}")


def main() -> None:
    sweep_worker_counts()
    block_solve_many_load_cases()
    serve_a_request_burst()


if __name__ == "__main__":
    main()
