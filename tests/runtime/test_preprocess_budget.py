"""A deterministic call budget for the cold path: one factorization per group.

Every executor runs one preprocessing path.  A cold serial ``Session.solve``
factors each cluster's same-pattern subdomains as one stack — one
``stacked_cholesky`` per ``(cluster, pattern)`` group — and never goes through
the per-subdomain ``SparseSolverBase.factorize``.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.runtime.preprocess as preprocess
import repro.sparse.numeric as numeric

from repro.api import Session, SolverSpec, Workload
from repro.sparse.solvers import SparseSolverBase

#: ``(workload, (cluster, pattern) groups)``: every workload has one pattern.
BUDGETS = {
    "heat2d-8x8x8-c4": (Workload("heat", 2, (8, 8), 8, n_clusters=4), 4),
    "heat3d-2x2x1x12": (Workload("heat", 3, (2, 2, 1), 12), 1),
}


@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_cold_serial_solve_factors_once_per_cluster_and_pattern(
    monkeypatch, name, approach
):
    workload, groups = BUDGETS[name]
    calls: Counter[str] = Counter()
    stacked, factorize = numeric.stacked_cholesky, SparseSolverBase.factorize

    def counted_stacked(*args, **kwargs):
        calls["stacked_cholesky"] += 1
        return stacked(*args, **kwargs)

    def counted_factorize(self, K):
        calls["SparseSolverBase.factorize"] += 1
        return factorize(self, K)

    monkeypatch.setattr(preprocess, "stacked_cholesky", counted_stacked)
    monkeypatch.setattr(numeric, "stacked_cholesky", counted_stacked)
    monkeypatch.setattr(SparseSolverBase, "factorize", counted_factorize)
    spec = SolverSpec(approach=approach, execution="serial")
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
    assert calls == {"stacked_cholesky": groups}
