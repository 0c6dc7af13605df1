"""In-process workloads: warm solves, Algorithm-2 steps and the layer profile.

Everything here drives ``repro`` through its public entry points
(``Session.solve``, ``Session.run_steps``, ``SolveQueue.submit``); the
per-layer numbers come from timing calls *into* each layer's public
functions from this file, never from code inside ``src/``.  Operations are
timed in plain wall seconds; the speed gauge is read between them, outside
every timed interval (see :mod:`benchmarks.perf.gauge`).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.observe.trace import trace
from repro.sparse.solvers import PardisoLikeSolver

from . import stats
from .gauge import SpeedGauge, Timed
from .spans import OP_SPAN, Span, SpanRecorder, self_times
from .workloads import BenchWorkload

__all__ = [
    "WARMUP_OPS",
    "ORACLE_TOLERANCE",
    "LayerProfile",
    "Oracle",
    "RawOp",
    "Rig",
    "check_step",
    "layer_profile",
    "load_factors",
    "make_problem",
    "run_ops",
    "setup_rig",
    "sparse_facade_profile",
]

#: Operations discarded before the measured window opens.
WARMUP_OPS = 2
#: Largest accepted relative primal error against the saddle-point oracle.
ORACLE_TOLERANCE = 1e-6
#: Span-derived metrics with these endings are seconds (the rest are counts
#: and shares, which read the same at any machine speed).
TIME_SUFFIXES = ("_s", "_s_per_call")

#: Bound public methods the traced pass shadows, per object -> span name.
_SOLVER_SPANS = {"prepare": "operators.prepare", "preprocess": "operators.preprocess"}
_OPERATOR_SPANS = {
    "apply": "operators.apply",
    "apply_multi": "operators.apply",
    "dual_rhs": "operators.dual_rhs",
    "primal_solution": "operators.primal_recovery",
}
_PROJECTOR_SPANS = {
    "apply": "projector.apply",
    "apply_block": "projector.apply",
    "initial_lambda": "projector.coarse_solve",
    "alpha": "projector.coarse_solve",
}
_PRECONDITIONER_SPANS = {"apply": "preconditioner.apply", "apply_block": "preconditioner.apply"}


def make_problem(bw: BenchWorkload, **spec_overrides: Any) -> tuple[Workload, SolverSpec]:
    """The ``repro.api`` objects a benchmark workload declares."""
    args, kwargs = bw.problem
    return Workload(*args, **kwargs), SolverSpec(**{**bw.spec, **spec_overrides})


def load_factors(seed: int, n: int) -> list[float]:
    """Seeded per-operation load factors (the program only sees the loads)."""
    rng = random.Random(seed)
    return [rng.uniform(0.5, 2.0) for _ in range(n)]


# --------------------------------------------------------------------- #
# Set-up                                                                 #
# --------------------------------------------------------------------- #
@dataclass
class Rig:
    """A fresh session with one prepared, preprocessed solver."""

    session: Session
    workload: Workload
    solver: Any
    #: Each set-up stage, in order; together nothing -> ready.
    setup: dict[str, Timed]

    def setup_total(self) -> Timed:
        wall = sum(stage.seconds for stage in self.setup.values())
        return Timed(wall, wall / sum(stage.at_reference for stage in self.setup.values()))

    def close(self) -> None:
        self.session.close()


def setup_rig(bw: BenchWorkload, gauge: SpeedGauge, **spec_overrides: Any) -> Rig:
    """From nothing to "first operation can start", stage by stage.

    Fresh state: the process-wide problem cache is cleared and a new
    ``Session`` (new pattern cache, new executor) is built.  The gauge is
    read between the stages.
    """
    w, spec = make_problem(bw, **spec_overrides)
    build_problem.cache_clear()
    setup: dict[str, Timed] = {}
    watch = gauge.stopwatch()
    session = Session(spec)
    session.problem(w)
    setup["build_problem"] = watch.stop()
    solver = session.solver(w)
    solver.prepare()
    setup["prepare"] = watch.stop()
    solver.preprocess()
    setup["preprocess"] = watch.stop()
    _ = solver.projector
    setup["projector"] = watch.stop()
    _ = solver.preconditioner
    setup["preconditioner"] = watch.stop()
    return Rig(session, w, solver, setup)


# --------------------------------------------------------------------- #
# Operations                                                             #
# --------------------------------------------------------------------- #
@dataclass
class RawOp(Timed):
    """One executed operation, before it is checked."""

    factor: float
    converged: bool
    iterations: int
    primal: np.ndarray | None = None


def _scale_loads(rig: Rig, factor: float) -> None:
    base = rig.session.base_loads(rig.workload)
    for sub, f0 in zip(rig.session.problem(rig.workload).subdomains, base):
        sub.f = factor * f0


def run_ops(
    rig: Rig,
    kind: str,
    factors: list[float],
    gauge: SpeedGauge,
    recorder: SpanRecorder | None = None,
) -> list[RawOp]:
    """Run one operation per load factor through the real entry point.

    ``kind`` selects the operation: ``"solve"`` = one warm ``Session.solve``;
    ``"step"`` = one Algorithm-2 step of a single ``Session.run_steps`` call,
    timed at the ``update`` callback boundaries; ``"queue"`` = one
    ``SolveQueue.submit(...).result()``, the path a served request takes.
    The gauge is read between operations, outside every timed interval.
    """
    if kind == "step":
        return _run_steps(rig, factors, gauge, recorder)
    session, w = rig.session, rig.workload
    queue = session.queue() if kind == "queue" else None
    ops: list[RawOp] = []
    try:
        watch = gauge.stopwatch()
        for i, factor in enumerate(factors):
            if queue is None:
                _scale_loads(rig, factor)
            watch.start()
            if recorder is not None:
                recorder.begin_op(i)
            sol = session.solve(w) if queue is None else queue.submit(w, None, factor).result()
            if recorder is not None:
                recorder.end_op()
            timed = watch.stop()
            ops.append(
                RawOp(
                    timed.seconds,
                    timed.slowdown,
                    factor,
                    sol.converged,
                    sol.iterations,
                    np.concatenate(sol.primal),
                )
            )
    finally:
        if queue is None:
            _scale_loads(rig, 1.0)
        else:
            queue.close()
    return ops


def _run_steps(
    rig: Rig, factors: list[float], gauge: SpeedGauge, recorder: SpanRecorder | None
) -> list[RawOp]:
    steps: list[Timed] = []
    base = rig.session.base_loads(rig.workload)
    watch = gauge.stopwatch()

    def close_step() -> None:
        if recorder is not None:
            recorder.end_op()
        steps.append(watch.stop())

    def update(step: int, problem: Any) -> None:
        if step:
            close_step()
        watch.start()
        if recorder is not None:
            recorder.begin_op(step)
        # Exactly what the built-in load ramp does, with a seeded factor.
        for sub, f0 in zip(problem.subdomains, base):
            sub.f = factors[step] * f0

    records = rig.session.run_steps(rig.workload, n_steps=len(factors), update=update)
    close_step()
    return [
        RawOp(timed.seconds, timed.slowdown, factor, rec.converged, rec.iterations)
        for timed, factor, rec in zip(steps, factors, records)
    ]


# --------------------------------------------------------------------- #
# Independent oracle                                                     #
# --------------------------------------------------------------------- #
class Oracle:
    """Direct saddle-point solution (scipy SuperLU) at the pristine loads.

    Shares nothing with ``repro.sparse``; solutions scale linearly with the
    load factor, so one direct solve checks every operation.
    """

    def __init__(self, problem: Any) -> None:
        self.u_ref, _ = problem.saddle_point_solution()
        self._norm = float(np.linalg.norm(self.u_ref))

    def rel_error(self, primal: np.ndarray, factor: float) -> float:
        return float(np.linalg.norm(primal - factor * self.u_ref)) / (abs(factor) * self._norm)

    def passes(self, primal: np.ndarray | None, factor: float) -> bool:
        return primal is not None and self.rel_error(primal, factor) <= ORACLE_TOLERANCE


def check_step(rig: Rig, oracle: Oracle, factor: float) -> bool:
    """Oracle check of the step operation, outside the timed window.

    After a schedule with a custom ``update`` the session marks the solver
    stale, so this ``Session.solve`` re-runs the numeric preprocessing: it is
    one full Algorithm-2 step at the scaled loads, with the primal returned.
    """
    _scale_loads(rig, factor)
    try:
        sol = rig.session.solve(rig.workload)
    finally:
        _scale_loads(rig, 1.0)
    return sol.converged and oracle.passes(np.concatenate(sol.primal), factor)


# --------------------------------------------------------------------- #
# Layer profile (traced pass)                                            #
# --------------------------------------------------------------------- #
def _wall_and_reference(timed: dict[str, Timed]) -> tuple[dict[str, float], dict[str, float]]:
    return (
        {name: t.at_reference for name, t in timed.items()},
        {name: t.seconds for name, t in timed.items()},
    )


def sparse_facade_profile(
    problem: Any, gauge: SpeedGauge, reps: int = 3
) -> tuple[dict[str, float], dict[str, float]]:
    """Time the sparse layer through its public facade on subdomain 0.

    Returns the metrics at reference speed and the walls they came from.
    """
    sub = problem.subdomains[0]
    facade = PardisoLikeSolver(pattern_cache=False)

    def timed(fn: Any, arg: Any, reps: int) -> Timed:
        calls = []
        watch = gauge.stopwatch()
        for _ in range(reps):
            watch.start()
            fn(arg)
            calls.append(watch.stop())
        return sorted(calls, key=lambda call: call.at_reference)[len(calls) // 2]

    analyze = timed(facade.analyze, sub.K_reg, 1)
    if analyze.seconds < 0.5:
        # Symbolic analysis of a large 3D subdomain takes ~1 s: time it once.
        analyze = timed(facade.analyze, sub.K_reg, reps)
    metrics, wall = _wall_and_reference(
        {
            "sparse.analyze_s": analyze,
            "sparse.factorize_s": timed(facade.factorize, sub.K_reg, reps),
            "sparse.schur_s": timed(facade.schur_complement, sub.B, reps),
            "sparse.solve_s": timed(facade.solve, sub.f, 2 * reps + 1),
        }
    )
    metrics["sparse.factor_nnz"] = float(facade.factor_nnz)
    return metrics, wall


@dataclass
class LayerProfile:
    """Everything one traced pass of one (workload, spec) produced."""

    #: Per-layer metrics; every time is at reference speed ...
    metrics: dict[str, float]
    #: ... and ``wall`` holds the wall seconds of each of those times.
    wall: dict[str, float]
    op_p50: float
    preprocess_s: float
    iterations_match: bool
    ops: list[RawOp] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)


def _instrument(rig: Rig, recorder: SpanRecorder) -> None:
    solver = rig.solver
    recorder.instrument(solver, _SOLVER_SPANS)
    recorder.instrument(solver.operator, _OPERATOR_SPANS)
    recorder.instrument(solver.projector, _PROJECTOR_SPANS)
    recorder.instrument(solver.preconditioner, _PRECONDITIONER_SPANS)


def _per_op(recorder: SpanRecorder, slowdown: dict[int, float]) -> list[dict[str, Any]]:
    """Per measured operation: its duration, and self seconds / call count by
    span name, each divided by the operation's ``slowdown`` (keyed by id)."""
    selfs = self_times(recorder.spans)
    rows: dict[int, dict[str, Any]] = {}
    for span in recorder.spans:
        if span.op is None or span.op < WARMUP_OPS:
            continue
        row = rows.setdefault(
            span.op, {"seconds": 0.0, "self": defaultdict(float), "calls": defaultdict(int)}
        )
        if span.name == OP_SPAN:
            row["seconds"] = span.duration / slowdown[span.op]
        row["self"][span.name] += selfs[span.id] / slowdown[span.op]
        row["calls"][span.name] += 1
    return [rows[op] for op in sorted(rows)]


def _span_metrics(rows: list[dict[str, Any]]) -> dict[str, float]:
    """Layer times, call counts and shares of the traced operations ``rows``."""

    def per_op(name: str, what: str = "self") -> float:
        return stats.median([row[what].get(name, 0) for row in rows])

    def share(*names: str) -> float:
        return stats.median(
            [sum(row["self"].get(n, 0.0) for n in names) / row["seconds"] for row in rows]
        )

    m = {
        "operators.preprocess_s": per_op("operators.preprocess"),
        "operators.preprocess_share": share("operators.preprocess"),
        "operators.apply_share": share("operators.apply"),
        "projector.share": share("projector.apply", "projector.coarse_solve"),
        "preconditioner.share": share("preconditioner.apply"),
        "operators.dual_rhs_s": per_op("operators.dual_rhs"),
        "operators.primal_recovery_s": per_op("operators.primal_recovery"),
        "pcpg.self_s": per_op(OP_SPAN),
    }
    for layer in ("operators", "projector", "preconditioner"):
        calls = per_op(f"{layer}.apply", "calls")
        if layer != "preconditioner":
            m[f"{layer}.apply_calls"] = calls
        m[f"{layer}.apply_s_per_call"] = per_op(f"{layer}.apply") / max(calls, 1.0)
    return m


def layer_profile(
    rig: Rig, kind: str, factors: list[float], n_traced: int, gauge: SpeedGauge
) -> LayerProfile:
    """Run an untraced, a tracer-enabled and a traced pass on a fresh rig.

    * untraced: ``len(factors)`` operations -> the reference ``op_s.p50`` and
      the drift (last third over first third);
    * ``repro.observe.trace.trace()`` around ``n_traced`` operations ->
      ``observe.tracer_overhead``;
    * harness spans around the same ``n_traced`` load factors -> every
      per-layer time.  It must reproduce the untraced iteration counts.
    """
    operator = rig.solver.operator
    stages = {
        "api.build_problem_s": rig.setup["build_problem"],
        "operators.prepare_s": rig.setup["prepare"],
        "projector.build_s": rig.setup["projector"],
        "preconditioner.build_s": rig.setup["preconditioner"],
    }
    m, wall = _wall_and_reference(stages)
    m["sparse.pattern_cache_hit_rate"] = rig.session.pattern_cache.hit_rate

    plain = run_ops(rig, kind, factors, gauge)[WARMUP_OPS:]
    plain_s = [op.at_reference for op in plain]
    op_p50 = stats.median(plain_s)
    m["api.op_s_drift"] = stats.drift(plain_s)

    traced_factors = factors[: WARMUP_OPS + n_traced]
    with trace("perfbench"):
        with_tracer = run_ops(rig, kind, traced_factors, gauge)[WARMUP_OPS:]
    m["observe.tracer_overhead"] = (
        stats.median([op.at_reference for op in with_tracer]) / op_p50 - 1.0
    )

    recorder = SpanRecorder()
    _instrument(rig, recorder)
    all_traced = run_ops(rig, kind, traced_factors, gauge, recorder)
    traced = all_traced[WARMUP_OPS:]
    iterations_match = [op.iterations for op in traced] == [
        op.iterations for op in plain[: len(traced)]
    ]

    rows = _per_op(recorder, {i: op.slowdown for i, op in enumerate(all_traced)})
    m["observe.trace_overhead"] = stats.median([row["seconds"] for row in rows]) / op_p50 - 1.0
    m.update(_span_metrics(rows))
    wall_rows = _per_op(recorder, dict.fromkeys(range(len(all_traced)), 1.0))
    wall.update(
        {name: v for name, v in _span_metrics(wall_rows).items() if name.endswith(TIME_SUFFIXES)}
    )
    if not m["operators.preprocess_s"]:
        # A warm solve never preprocesses: the set-up stage is the number.
        m["operators.preprocess_s"] = rig.setup["preprocess"].at_reference
        wall["operators.preprocess_s"] = rig.setup["preprocess"].seconds
    m["pcpg.iterations"] = stats.median([op.iterations for op in traced])

    # Simulated cost-model seconds: the paper reproduction.  They repeat
    # exactly and a wall-clock optimisation must leave them unchanged.
    m["operators.sim_preprocess_s"] = operator.ledger.last("preprocessing").simulated_seconds
    last_apply = operator.ledger.last("apply") or operator.ledger.last("apply_multi")
    m["operators.sim_apply_s"] = last_apply.simulated_seconds
    m["memory.resident_bytes"] = float(rig.session.cache_stats()["resident_bytes"])
    m["memory.factor_bytes"] = float(operator.storage_nbytes()["factor"])
    return LayerProfile(
        m,
        wall,
        op_p50,
        m["operators.preprocess_s"],
        iterations_match,
        ops=plain + traced,
        spans=recorder.spans,
    )
