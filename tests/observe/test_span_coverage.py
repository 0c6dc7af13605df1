"""The span tree of a solve has no holes where the time goes.

A cold solve builds the coarse projector and the dual preconditioner before
PCPG starts, each under its own span (``coarse_build``,
``preconditioner_build``) directly below ``session.solve``, whose children
then cover it; nothing but the iterations runs inside ``pcpg``.  A warm
solve finds both built and opens neither span.
"""

from __future__ import annotations

from repro.api import Session, SolverSpec, Workload
from repro.observe.trace import trace

#: 256 subdomains: the builds are a visible share of a cold solve.
WORKLOAD = Workload("heat", 2, (16, 16), 8, n_clusters=4)
BUILDS = ("coarse_build", "preconditioner_build")


def test_cold_solve_builds_the_coarse_problem_and_preconditioner_before_pcpg():
    with Session(SolverSpec(), memory_budget="unlimited") as session:
        with trace() as cold:
            assert session.solve(WORKLOAD).converged
        with trace() as warm:
            assert session.solve(WORKLOAD).converged

    (solve,) = cold.find("session.solve")
    for name in BUILDS:
        assert [s.parent_id for s in cold.find(name)] == [solve.span_id], name
        assert not warm.find(name), name

    for name, share in (("session.solve", 0.95), ("pcpg", 0.85)):
        (parent,) = cold.find(name)
        covered = sum(s.duration_us for s in cold.spans if s.parent_id == parent.span_id)
        assert covered >= share * parent.duration_us, (name, covered / parent.duration_us)
