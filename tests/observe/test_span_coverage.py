"""The span tree of a solve has no holes where the time goes.

A cold solve builds the coarse projector and the dual preconditioner before
PCPG starts, each under its own span (``coarse_build``,
``preconditioner_build``) directly below ``session.solve``, whose children
then cover it; nothing but the iterations runs inside ``pcpg``.  A warm
solve finds both built and opens neither span.

The coverage shares are wall-time ratios, so another process loading the
machine can open a gap between two child spans of one solve.  They are
asserted on the best of up to three cold solves, each in a fresh
``Session``; the span structure is asserted on every one.
"""

from __future__ import annotations

from repro.api import Session, SolverSpec, Workload
from repro.observe.trace import trace

#: 256 subdomains: the builds are a visible share of a cold solve.
WORKLOAD = Workload("heat", 2, (16, 16), 8, n_clusters=4)
BUILDS = ("coarse_build", "preconditioner_build")
#: Least share of a span's wall time its children cover.
SHARES = {"session.solve": 0.95, "pcpg": 0.85}
#: Cold solves the shares may take to show.
ATTEMPTS = 3


def _cold_and_warm_traces():
    """The traces of a cold and a warm solve in a fresh session."""
    with Session(SolverSpec(), memory_budget="unlimited") as session:
        with trace() as cold:
            assert session.solve(WORKLOAD).converged
        with trace() as warm:
            assert session.solve(WORKLOAD).converged
    return cold, warm


def _covered_shares(cold) -> dict[str, float]:
    """Per span of :data:`SHARES`, the share of its wall time its children cover."""
    shares = {}
    for name in SHARES:
        (parent,) = cold.find(name)
        covered = sum(s.duration_us for s in cold.spans if s.parent_id == parent.span_id)
        shares[name] = covered / parent.duration_us
    return shares


def test_cold_solve_builds_the_coarse_problem_and_preconditioner_before_pcpg():
    best = dict.fromkeys(SHARES, 0.0)
    for _ in range(ATTEMPTS):
        cold, warm = _cold_and_warm_traces()
        (solve,) = cold.find("session.solve")
        for name in BUILDS:
            assert [s.parent_id for s in cold.find(name)] == [solve.span_id], name
            assert not warm.find(name), name
        for name, share in _covered_shares(cold).items():
            best[name] = max(best[name], share)
        if all(best[name] >= share for name, share in SHARES.items()):
            break
    for name, share in SHARES.items():
        assert best[name] >= share, (name, best[name])


def test_the_one_cost_replay_runs_in_the_preparation():
    """The simulated timeline's bookkeeping is one ``cost_replay`` span inside
    the preparation, naming the approach: the operator is priced once, and
    no preprocessing, apply or warm solve opens another."""
    spec = SolverSpec(approach="expl modern", assembly="table2")
    with Session(spec, memory_budget="unlimited") as session:
        with trace() as cold:
            assert session.solve(WORKLOAD).converged
        with trace() as warm:
            assert session.solve(WORKLOAD).converged
    (replay,) = cold.find("cost_replay")
    assert replay.attrs == {"approach": "expl modern"}
    parents = {s.span_id: s.name for s in cold.spans}
    assert parents[replay.parent_id] == "preparation"
    assert not warm.find("cost_replay")


#: The cold Dirichlet build's steps, in order, under ``preconditioner_build``.
DIRICHLET_BUILD = ("scaled_gluing", "dirichlet_inverse", "dirichlet_assemble")


def test_the_cold_preconditioner_build_shows_its_steps():
    """A traced cold solve splits ``preconditioner_build`` into the scaled
    gluing (``B_D`` from the chains), the inverse (gather, Cholesky,
    ``dpotri``, kernel term) and the assembly (the CSR of the small ``Sᵢ``);
    lumped has the first only.  A warm solve opens none."""
    for kind, steps in (("dirichlet", DIRICHLET_BUILD), ("lumped", DIRICHLET_BUILD[:1])):
        spec = SolverSpec(approach="expl mkl", preconditioner=kind)
        with Session(spec, memory_budget="unlimited") as session:
            with trace() as cold:
                assert session.solve(WORKLOAD).converged
            with trace() as warm:
                assert session.solve(WORKLOAD).converged
        (build,) = cold.find("preconditioner_build")
        children = [s for s in cold.spans if s.parent_id == build.span_id]
        assert [s.name for s in children] == list(steps), kind
        assert sum(s.duration_us for s in children) <= build.duration_us
        assert not any(warm.find(name) for name in DIRICHLET_BUILD)
