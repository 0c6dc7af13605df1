"""Cold preprocessing on ``threads:2`` against serial, in alternating pairs.

Run from the repository root::

    python benchmarks/threads_verdict.py [--pairs 5]

Every BLAS backend is pinned to one thread, so the only parallelism is the
spec's.  Each measurement builds a fresh ``Session`` with approach
``expl mkl``, prepares the solver (symbolic analysis, untimed) and times one
cold ``FetiSolver.preprocess()``: the stacked factorization of every pattern
group and the Schur assembly of every ``F̃ᵢ``.  The two executions alternate
their order pair by pair, so a drift of the host's speed falls on both.

Prints one line per pair and a summary per rung: the median serial and
threaded seconds and the median speedup (serial / threads) with its range.
The verdict line says whether any rung reaches 1.2x.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.api import Session, SolverSpec, Workload  # noqa: E402

RUNGS = [
    Workload("heat", 3, (2, 2, 2), 12),
    Workload("heat", 3, (2, 2, 2), 16),
    Workload("heat", 3, (2, 2, 2), 20),
    Workload("heat", 2, (32, 32), 8),
]
EXECUTIONS = ("serial", "threads:2")
#: A rung at or above this median speedup keeps the backend worth having.
WIN = 1.2


def cold_preprocess_seconds(workload: Workload, execution: str) -> float:
    """Wall seconds of one cold ``preprocess()`` on a fresh session."""
    with Session(SolverSpec(approach="expl mkl", execution=execution)) as session:
        solver = session.solver(workload)
        solver.prepare()
        start = time.perf_counter()
        solver.preprocess()
        return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs per rung")
    args = parser.parse_args()
    print(f"cpu_count={os.cpu_count()} pairs={args.pairs} approach=expl mkl BLAS threads=1")
    best = 0.0
    for workload in RUNGS:
        dofs = Session().problem(workload).subdomains[0].ndofs
        # One untimed round each: the problem is built, the pages are warm.
        for execution in EXECUTIONS:
            cold_preprocess_seconds(workload, execution)
        seconds: dict[str, list[float]] = {e: [] for e in EXECUTIONS}
        for pair in range(args.pairs):
            order = EXECUTIONS if pair % 2 == 0 else EXECUTIONS[::-1]
            for execution in order:
                seconds[execution].append(cold_preprocess_seconds(workload, execution))
            print(
                f"  {workload.describe()} pair {pair}: serial {seconds['serial'][-1]:.4f} s, "
                f"threads:2 {seconds['threads:2'][-1]:.4f} s"
            )
        serial, threads = (np.array(seconds[e]) for e in EXECUTIONS)
        speedup = serial / threads
        median = float(np.median(speedup))
        best = max(best, median)
        print(
            f"{workload.describe()} ({dofs} DOFs/subdomain): serial {np.median(serial):.4f} s, "
            f"threads:2 {np.median(threads):.4f} s, speedup median {median:.3f}x "
            f"(min {speedup.min():.3f}x, max {speedup.max():.3f}x)"
        )
    verdict = "reaches" if best >= WIN else "does not reach"
    print(f"verdict: the best rung's median speedup {best:.3f}x {verdict} {WIN}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
