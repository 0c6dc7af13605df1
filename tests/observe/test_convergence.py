"""Solver telemetry: residual history opt-in, ConvergenceReport, span tree."""

import json

import numpy as np
import pytest

# The operators import the preprocessing runtime on first use; importing it
# here keeps that one-off cost out of the preprocessing spans under test.
import repro.runtime.preprocess  # noqa: F401
from repro.api import Session, SolverSpec, Workload
from repro.observe.convergence import ConvergenceReport
from repro.observe.trace import trace

WORKLOAD = Workload("heat", 2, (2, 2), 4)


def test_history_off_by_default():
    with Session() as session:
        solution = session.solve(WORKLOAD)
    assert solution.pcpg.residual_history == []
    assert solution.residual_history == []
    report = solution.convergence
    assert report is not None
    assert report.residual_history == ()
    assert not report.history_truncated


def test_residual_history_opt_in():
    with Session(SolverSpec(residual_history=200)) as session:
        solution = session.solve(WORKLOAD)
    history = solution.residual_history
    assert len(history) == len(solution.pcpg.residual_norms)
    assert history[0] > history[-1]
    assert solution.pcpg.converged


def test_residual_history_cap_truncates():
    with Session(SolverSpec(residual_history=3)) as session:
        solution = session.solve(WORKLOAD)
    assert len(solution.residual_history) == 3
    report = solution.convergence
    assert report.history_truncated
    assert report.iterations > 2


def test_convergence_report_contents():
    spec = SolverSpec(residual_history=100)
    with Session(spec) as session:
        solution = session.solve(WORKLOAD)
    report = solution.convergence
    assert report.converged is True
    assert report.iterations == solution.pcpg.iterations
    assert report.tolerance == spec.tolerance
    assert report.initial_norm == solution.pcpg.residual_norms[0]
    assert report.final_norm == solution.pcpg.residual_norms[-1]
    assert report.relative_residual == pytest.approx(
        report.final_norm / report.initial_norm
    )
    assert report.columns == 1
    assert report.condition_estimate == solution.pcpg.condition_estimate > 1.0
    assert json.loads(json.dumps(report.to_dict()))["condition_estimate"] == report.condition_estimate


def test_report_describe_lists_history():
    with Session(SolverSpec(residual_history=50)) as session:
        solution = session.solve(WORKLOAD)
    text = solution.convergence.describe()
    assert "converged" in text
    assert "condition estimate" in text
    assert "residual history" in text
    assert "iter   0" in text


def test_fp32_report_matches_the_fp64_history_length():
    """The report of an fp32 solve is one PCPG run, the length of fp64's."""
    reports = {}
    for precision in ("fp64", "fp32"):
        spec = SolverSpec(precision=precision, residual_history=100)
        with Session(spec) as session:
            solution = session.solve(WORKLOAD)
        assert solution.convergence.converged
        assert len(solution.residual_history) == solution.iterations + 1
        reports[precision] = solution.convergence.to_dict()
    assert reports["fp32"]["iterations"] == reports["fp64"]["iterations"]
    assert reports["fp32"].keys() == reports["fp64"].keys()


def test_block_solve_reports_per_column():
    rng = np.random.default_rng(7)
    with Session(SolverSpec(residual_history=100)) as session:
        problem = session.problem(WORKLOAD)
        columns = [
            [rng.standard_normal(sub.ndofs) for sub in problem.subdomains]
            for _ in range(3)
        ]
        solutions = session.solve_many(WORKLOAD, columns)
    assert len(solutions) == 3
    for solution in solutions:
        report = solution.convergence
        assert report is not None
        assert report.columns == 3
        assert len(solution.residual_history) > 0


def test_traced_solve_span_tree_covers_phases():
    """The acceptance-criteria tree: preprocessing -> factorization ->
    coarse setup -> PCPG with per-iteration residual events."""
    with trace() as tracer:
        with Session(SolverSpec(residual_history=50)) as session:
            solution = session.solve(WORKLOAD)
    tree = tracer.to_tree()
    assert [node["name"] for node in tree] == ["session.solve"]
    root = tree[0]
    child_names = [c["name"] for c in root["children"]]
    for expected in ("preparation", "preprocessing", "coarse_setup", "pcpg"):
        assert expected in child_names, f"missing {expected} in {child_names}"
    coarse_setup = next(c for c in root["children"] if c["name"] == "coarse_setup")
    assert coarse_setup["attrs"] == {"n_kernel": 4}  # one kernel mode per subdomain
    preprocessing = next(c for c in root["children"] if c["name"] == "preprocessing")
    assert any(g["name"] == "factorize" for g in preprocessing["children"])
    pcpg = next(c for c in root["children"] if c["name"] == "pcpg")
    iterations = [c for c in pcpg["children"] if c["name"] == "iteration"]
    assert len(iterations) == solution.pcpg.iterations
    # each iteration carries its residual instant event, and its time is
    # covered: the dual-operator apply, both projections, the preconditioner
    for node in iterations:
        events = [e["name"] for e in node["events"]]
        assert "residual" in events
        spans = [c["name"] for c in node["children"]]
        assert spans == ["apply", "project", "precondition", "project"]
    norms = [
        node["events"][0]["attrs"]["norm"]
        for node in iterations
        if node["events"]
    ]
    assert norms == solution.pcpg.residual_norms[1 : len(norms) + 1]
    # the tree loads as a Chrome trace too
    doc = tracer.to_chrome()
    assert doc["traceEvents"], "chrome export must not be empty"
    json.dumps(doc)


def _preprocessing_layers(approach: str) -> tuple[dict, list[dict]]:
    """A traced serial heat 3D solve: its preprocessing span and the layers inside."""
    workload = Workload("heat", 3, (2, 2, 1), 12)
    spec = SolverSpec(approach=approach, execution="serial")
    with trace() as tracer:
        with Session(spec) as session:
            session.solve(workload)
    (root,) = tracer.to_tree()
    (preprocessing,) = [c for c in root["children"] if c["name"] == "preprocessing"]
    return preprocessing, preprocessing["children"]


def test_explicit_preprocessing_names_factorization_and_schur_assembly():
    """One stacked factorization of the pattern group, one assembly per class.

    Every subdomain of this 2 x 2 x 1 grid is an interface class of its own
    (``n_λ`` 481 / 494 / 338 / 325), and the classes run largest ``n_λ``
    first.
    """
    preprocessing, layers = _preprocessing_layers("expl mkl")
    assert [(c["name"], c["attrs"]) for c in layers] == [
        ("factorize", {"subdomains": 4})
    ] + [
        ("schur_assembly", {"subdomains": 1, "n_lambda": n_lambda})
        for n_lambda in (494, 481, 338, 325)
    ]
    covered = sum(c["duration_us"] for c in layers)
    assert covered >= 0.9 * preprocessing["duration_us"]


def test_implicit_preprocessing_assembles_no_schur_complement():
    _, layers = _preprocessing_layers("impl mkl")
    assert [(c["name"], c["attrs"]) for c in layers] == [("factorize", {"subdomains": 4})]


def test_traced_block_solve_covers_project_and_precondition():
    """A block solve names the phases a single solve does, then its block
    iterations cover the apply, both projections and the preconditioner."""
    with trace() as tracer:
        with Session() as session:
            session.solve_many(WORKLOAD, [None, None])
    (root,) = tracer.to_tree()
    assert root["attrs"]["columns"] == 2
    phases = [c["name"] for c in root["children"]]
    for expected in ("dual_rhs", "coarse_setup", "pcpg", "primal_recovery"):
        assert expected in phases, f"missing {expected} in {phases}"
    assert phases.index("dual_rhs") < phases.index("coarse_setup") < phases.index("pcpg")
    assert phases.index("pcpg") < phases.index("primal_recovery")
    pcpg = next(c for c in root["children"] if c["name"] == "pcpg")
    assert pcpg["attrs"] == {"columns": 2}
    iterations = [c for c in pcpg["children"] if c["name"] == "block_iteration"]
    assert iterations
    for node in iterations:
        spans = [c["name"] for c in node["children"]]
        assert spans == ["apply_multi", "project", "precondition", "project"]
