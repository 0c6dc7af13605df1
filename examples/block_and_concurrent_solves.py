"""Many right-hand sides: one block solve, or a burst of concurrent requests.

Two ways to answer many load cases of one model from one
:class:`~repro.api.Session`:

1. a multi-RHS block solve via :meth:`Session.solve_many` — one stacked
   PCPG iteration answering many load cases at once (its fused apply is
   what the ``BENCH_apply_phase.json`` baseline measures, on heat 3D), and
2. a burst of concurrent solve requests — the "many users" serving path,
   where :meth:`~repro.api.Session.solve_request` answers every request
   with its own scalar solve on its caller's thread, against one shared
   session.

Either way the load cases are arguments of the solves: no solve writes
them into the workload's problem, which every session shares.

Run with:  python examples/block_and_concurrent_solves.py
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import Session, SolverSpec, Workload

#: 64 subdomains of heat 2D.
WORKLOAD = Workload(physics="heat", dim=2, subdomains=(8, 8), cells=8)


def block_solve_many_load_cases() -> None:
    """Session.solve_many: one block-PCPG iteration over stacked RHS columns.

    The applies of all still-active columns are fused into one GEMM per
    iteration — the throughput path whose apply ``BENCH_apply_phase.json``
    measures; the answers agree with solving the cases one by one to
    rounding.
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
    each runs its own scalar solve at its own loads, passed as an argument,
    so an answer never depends on what else was in flight, on this session
    or another: it is bitwise the answer of the same request alone.
    """
    print("\nconcurrent solve requests (8 requests, 2 caller threads):")
    with Session(SolverSpec(approach="expl mkl")) as session:
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
    print(f"workload: {WORKLOAD.describe()}")
    block_solve_many_load_cases()
    serve_a_request_burst()


if __name__ == "__main__":
    main()
