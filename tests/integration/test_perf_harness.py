"""The wall-clock harness (``benchmarks/perf``) still runs against the package.

It imports from ``repro`` by name; a rename there breaks the benchmark of
record, so this smoke drives its sparse-layer profile once on a small problem.
"""

from __future__ import annotations

from repro.api import Workload
from repro.api.workload import build_problem


def test_sparse_profile_of_the_perf_harness_runs():
    from benchmarks.perf.gauge import SpeedGauge
    from benchmarks.perf.solve_bench import sparse_facade_profile

    problem = build_problem(Workload("heat", 2, (4, 4), 8))
    metrics, wall = sparse_facade_profile(problem, SpeedGauge(), reps=1)
    assert metrics["sparse.factor_nnz"] > 0
    for name in ("sparse.analyze_s", "sparse.factorize_s", "sparse.schur_s", "sparse.solve_s"):
        assert metrics[name] > 0 and wall[name] > 0, name
