"""Scenario runner: execute a registered workload and emit a benchmark record.

The runner executes a scenario's cartesian grid with
:func:`repro.analysis.sweep.sweep_configurations`, measures each grid point
once (simulated preprocessing/application time from the operator's
:class:`~repro.analysis.timing.TimingLedger`, wall-clock time around the real
numerics), verifies the scenario's invariants (declared problem shape, and
that every approach of a grid point computes the same operator), and emits a
schema-versioned, environment-stamped ``BENCH_<scenario>.json`` record that
the baseline comparator can diff across runs and machines.

Point measurements are cached per (workload, approach, n_applies, ...),
so scenarios that share grid points — e.g. the Figure-5 sweep feeding
Figures 6 and 7 — never re-measure.

Every measurement is constructed through :mod:`repro.api`: one
:class:`~repro.api.session.Session` per grid point, so each point owns a
private pattern cache (it pays its own symbolic-analysis cost) while the
built problems stay shared through the workload-level problem cache.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np

from repro._version import __version__
from repro.analysis.sweep import SweepResult, sweep_configurations
from repro.api.session import Session
from repro.api.spec import SolverSpec
from repro.api.workload import Workload
from repro.bench.registry import Scenario
from repro.cluster.topology import MachineConfig
from repro.feti.config import DualOperatorApproach
from repro.feti.projector import build_projector
from repro.observe.log import get_logger
from repro.observe.trace import Tracer, capture_context, run_with_context, trace
from repro.runtime.executor import ExecutionSpec

__all__ = [
    "SCHEMA_VERSION",
    "RUNNER_MACHINE",
    "InvariantViolation",
    "PointTimeout",
    "PointMeasurement",
    "ScenarioResult",
    "measure_point",
    "run_scenario",
    "point_key",
    "record_filename",
    "write_record",
    "load_record",
    "environment_stamp",
]

#: Version of the ``BENCH_*.json`` record layout.  Bump on breaking changes;
#: the comparator refuses to diff records of different schema versions.
SCHEMA_VERSION = 2

#: Machine used by every scenario: 4 threads / 4 streams per cluster keeps
#: the wall-clock cost of the Python numerics low while exercising the same
#: concurrency structure as the paper's 16/16 configuration.
RUNNER_MACHINE = MachineConfig(threads_per_cluster=4, streams_per_cluster=4)

#: Seed of the deterministic dual vector applied at every grid point.
_APPLY_SEED = 20250729

_log = get_logger("repro.bench")


class InvariantViolation(AssertionError):
    """A scenario invariant failed (shape mismatch or operator divergence)."""


class PointTimeout(RuntimeError):
    """One grid point exceeded the per-point wall-clock budget.

    Raised by :func:`run_scenario` when ``point_timeout`` is set — a hung
    pool worker then fails the run fast instead of stalling CI until the
    job-level timeout.
    """


@dataclass
class PointMeasurement:
    """Measurements of one grid point (one operator on one workload)."""

    n_subdomains: int
    n_lambda: int
    dofs_per_subdomain: int
    kernel_dim: int
    sim_preparation_seconds: float
    sim_preprocessing_seconds: float
    sim_apply_seconds: float
    wall_preprocessing_seconds: float
    wall_apply_seconds: float
    wall_coarse_factor_seconds: float
    wall_coarse_apply_seconds: float
    q: np.ndarray


@lru_cache(maxsize=None)
def measure_point(
    spec: Workload,
    approach: DualOperatorApproach,
    n_applies: int = 3,
    execution: ExecutionSpec | None = None,
    precision: str = "fp64",
) -> PointMeasurement:
    """Measure one (workload, approach, execution, precision) point.

    Simulated times come from the operator's timing ledger; wall-clock times
    wrap the real execution of prepare+preprocess and of the ``n_applies``
    application loop (mean per apply, after one untimed warm-up apply that
    pays the once-per-preprocessing timeline plan).  Each point runs in its own
    :class:`~repro.api.session.Session` with a private pattern cache, so it
    pays its own symbolic-analysis cost.  ``execution`` selects the runtime
    backend of the point (``None`` = the serial reference); the session
    warms the worker pool at construction — before the timed region — and
    shuts it down when the measurement is done.  The coarse problem is
    benchmarked alongside the operator: the projector build (G^T G
    factorization) and ``n_applies`` projector applications are timed on the
    same workload.  ``precision`` selects the factor-storage policy
    (``fp64`` / ``fp32`` / ``fp32_ir``).
    """
    session = Session(
        SolverSpec(
            approach=approach,
            threads_per_cluster=RUNNER_MACHINE.threads_per_cluster,
            streams_per_cluster=RUNNER_MACHINE.streams_per_cluster,
            execution=execution if execution is not None else ExecutionSpec(),
            precision=precision,
        )
    )
    try:
        problem = session.problem(spec)
        operator = session.operator_for(spec)
        wall0 = time.perf_counter()
        operator.prepare()
        operator.preprocess()
        wall_preprocessing = time.perf_counter() - wall0

        rng = np.random.default_rng(_APPLY_SEED)
        x = rng.standard_normal(problem.n_lambda)
        # Untimed warm-up: the first apply of a round plans the simulated
        # timeline.  The mark keeps it out of the simulated mean as well, so
        # that stays the left-to-right sum of exactly ``n_applies`` applies.
        operator.apply(x)
        operator.ledger.mark("apply")
        wall0 = time.perf_counter()
        for _ in range(max(1, n_applies)):
            q = operator.apply(x)
        wall_apply = (time.perf_counter() - wall0) / max(1, n_applies)
        sim_apply = operator.ledger.since_mark() / max(1, n_applies)

        wall0 = time.perf_counter()
        projector = build_projector(problem)
        wall_coarse_factor = time.perf_counter() - wall0
        projector.apply(x)  # untimed warm-up
        wall0 = time.perf_counter()
        for _ in range(max(1, n_applies)):
            projector.apply(x)
        wall_coarse_apply = (time.perf_counter() - wall0) / max(1, n_applies)
    finally:
        session.close()

    return PointMeasurement(
        n_subdomains=problem.n_subdomains,
        n_lambda=problem.n_lambda,
        dofs_per_subdomain=problem.subdomains[0].ndofs,
        kernel_dim=problem.subdomains[0].kernel_dim,
        sim_preparation_seconds=operator.preparation_time,
        sim_preprocessing_seconds=operator.preprocessing_time,
        sim_apply_seconds=sim_apply,
        wall_preprocessing_seconds=wall_preprocessing,
        wall_apply_seconds=wall_apply,
        wall_coarse_factor_seconds=wall_coarse_factor,
        wall_coarse_apply_seconds=wall_coarse_apply,
        q=q,
    )


def point_key(
    subdomains: tuple[int, ...],
    cells: int,
    approach: DualOperatorApproach,
    execution: ExecutionSpec | None = None,
    precision: str = "fp64",
) -> str:
    """Stable human-readable identity of a grid point (used for pairing).

    The ``/batched`` segment is a fixed part of the stem: it dates from the
    removed ``batched`` sweep axis and stays so every committed baseline
    keeps pairing by key.  The ``execution=None`` / ``precision="fp64"``
    defaults add nothing; sharded runtime points are suffixed with the
    executor short form (e.g. ``/processes4``) and reduced-precision points
    with the policy name (e.g. ``/fp32_ir``).
    """
    grid = "x".join(str(s) for s in subdomains)
    key = f"{grid}/c{cells}/{approach.value}/batched"
    if execution is not None and execution.parallel:
        key += f"/{execution.describe()}"
    if precision != "fp64":
        key += f"/{precision}"
    return key


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    sweep: SweepResult
    record: dict[str, Any]


def run_scenario(
    scenario: Scenario,
    check_invariants: bool = True,
    point_timeout: float | None = None,
    trace_sink: dict[str, Tracer] | None = None,
) -> ScenarioResult:
    """Execute a scenario's full grid and build its benchmark record.

    ``point_timeout`` bounds every grid point's wall-clock time: a point
    that does not finish (e.g. a hung pool worker) raises
    :class:`PointTimeout` instead of stalling the run — CI's benchmark gate
    sets it so a wedged runtime worker fails fast.

    ``trace_sink`` (a mutable mapping) opts into per-point tracing: every
    *freshly measured* grid point runs under its own
    :class:`~repro.observe.trace.Tracer` which lands in the sink keyed by
    the point's :func:`point_key` string.  Points answered from the
    measurement cache produce no spans and are skipped, so the sink holds
    exactly the work this run actually did.

    Scenarios that measure something other than the operator grid (e.g. the
    ``serve_load`` service scenario) provide their own ``run_record`` hook;
    the runner delegates to it and wraps the record unchanged.
    """
    run_record = getattr(scenario, "run_record", None)
    if run_record is not None:
        record = run_record(
            check_invariants=check_invariants, point_timeout=point_timeout
        )
        empty = SweepResult(parameters=list(scenario.grid()))
        return ScenarioResult(scenario=scenario, sweep=empty, record=record)

    _log.info(
        "scenario_start", scenario=scenario.name, points=scenario.n_points()
    )
    qs: dict[tuple[Any, ...], np.ndarray] = {}

    def measure(
        subdomains: tuple[int, ...],
        cells: int,
        approach: DualOperatorApproach,
        execution: ExecutionSpec | None,
        precision: str,
    ) -> dict[str, Any]:
        spec = scenario.spec_with(subdomains, cells)
        args = (spec, approach, scenario.n_applies, execution, precision)
        key = point_key(subdomains, cells, approach, execution, precision)

        def run() -> PointMeasurement:
            if point_timeout is not None:
                return _measure_with_timeout(args, point_timeout, key)
            return measure_point(*args)

        if trace_sink is not None:
            with trace(f"bench:{key}") as tracer:
                m = run()
            # A cached point re-runs nothing, so its tracer stays empty —
            # keep only tracers that actually saw the measured numerics.
            if len(tracer):
                trace_sink[key] = tracer
        else:
            m = run()
        _log.debug(
            "point_measured",
            scenario=scenario.name,
            key=key,
            wall_preprocessing_seconds=m.wall_preprocessing_seconds,
            wall_apply_seconds=m.wall_apply_seconds,
        )
        qs[(subdomains, cells, approach, execution, precision)] = m.q
        return {
            "key": key,
            "n_subdomains": m.n_subdomains,
            "n_lambda": m.n_lambda,
            "dofs_per_subdomain": m.dofs_per_subdomain,
            "kernel_dim": m.kernel_dim,
            "sim_preparation_seconds": m.sim_preparation_seconds,
            "sim_preprocessing_seconds": m.sim_preprocessing_seconds,
            "sim_apply_seconds": m.sim_apply_seconds,
            "wall_preprocessing_seconds": m.wall_preprocessing_seconds,
            "wall_apply_seconds": m.wall_apply_seconds,
            "wall_coarse_factor_seconds": m.wall_coarse_factor_seconds,
            "wall_coarse_apply_seconds": m.wall_coarse_apply_seconds,
        }

    sweep = sweep_configurations(scenario.grid(), measure)
    if check_invariants:
        _check_operator_consistency(scenario, qs)
        _check_expected(scenario)
    record = _build_record(scenario, sweep)
    _log.info(
        "scenario_done", scenario=scenario.name, measured=len(sweep.records)
    )
    return ScenarioResult(scenario=scenario, sweep=sweep, record=record)


def _measure_with_timeout(args: tuple, timeout: float, key: str) -> PointMeasurement:
    """Run one point measurement under a wall-clock budget.

    The measurement runs on a watchdog thread so the caller can give up
    after ``timeout`` seconds.  The abandoned measurement (and any pool it
    started) is left to the interpreter's cleanup — the point of the budget
    is to fail the CI job fast, not to recover.
    """
    from concurrent.futures import ThreadPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout

    watchdog = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bench-watchdog")
    # Hand the active trace context (if any) to the watchdog thread so a
    # traced budgeted run attributes its spans like an untimed one.
    state = capture_context()
    if state is not None:
        future = watchdog.submit(run_with_context, state, measure_point, *args)
    else:
        future = watchdog.submit(measure_point, *args)
    try:
        result = future.result(timeout=timeout)
    except FutureTimeout:
        future.cancel()
        # wait=False: never block on the wedged measurement thread — the
        # budget exists to fail the job fast.
        watchdog.shutdown(wait=False)
        raise PointTimeout(
            f"grid point {key} exceeded the per-point timeout of "
            f"{timeout:g} s (hung worker?)"
        ) from None
    watchdog.shutdown(wait=True)
    return result


def _check_operator_consistency(
    scenario: Scenario, qs: dict[tuple[Any, ...], np.ndarray]
) -> None:
    """Every approach — and every runtime backend — of one workload must
    compute the same dual operator (parallel results identical to serial).

    Reduced-precision points intentionally round the stored operator, so
    they are held to a looser tolerance against the workload's fp64
    reference instead of the tight cross-approach bound.
    """
    reference: dict[tuple[Any, ...], tuple[Any, ...]] = {}
    for (subdomains, cells, *point), _q in qs.items():
        workload = (subdomains, cells)
        # Prefer an fp64 point as the workload's reference operator.
        if point[-1] == "fp64" and (
            workload not in reference or reference[workload][-1] != "fp64"
        ):
            reference[workload] = tuple(point)
    for (subdomains, cells, *point), q in qs.items():
        workload = (subdomains, cells)
        if workload not in reference:
            reference[workload] = tuple(point)
            continue
        ref_point = reference[workload]
        if tuple(point) == ref_point:
            continue
        ref_q = qs[(*workload, *ref_point)]
        precision = point[-1]
        rtol, atol = (1e-7, 1e-8) if precision == "fp64" else (1e-4, 1e-6)
        if not np.allclose(q, ref_q, rtol=rtol, atol=atol):
            raise InvariantViolation(
                f"scenario {scenario.name!r}: "
                f"{point_key(subdomains, cells, *point)} diverges from "
                f"{point_key(subdomains, cells, *ref_point)} "
                f"(max |Δ| = {np.max(np.abs(q - ref_q)):.3e})"
            )


def _check_expected(scenario: Scenario) -> None:
    """Check the scenario's declared invariants against the base problem."""
    if not scenario.expected:
        return
    problem = scenario.build_problem()
    actual = {
        "n_subdomains": problem.n_subdomains,
        "n_lambda": problem.n_lambda,
        "dofs_per_subdomain": problem.subdomains[0].ndofs,
        "kernel_dim": problem.subdomains[0].kernel_dim,
    }
    for key, expected in scenario.expected.items():
        if key not in actual:
            raise InvariantViolation(
                f"scenario {scenario.name!r}: unknown invariant {key!r} "
                f"(known: {sorted(actual)})"
            )
        if actual[key] != expected:
            raise InvariantViolation(
                f"scenario {scenario.name!r}: invariant {key}={actual[key]} "
                f"does not match the declared {expected}"
            )


def _build_record(scenario: Scenario, sweep: SweepResult) -> dict[str, Any]:
    points = []
    for r in sweep.records:
        execution = r["execution"]
        points.append(
            {
                "key": r["key"],
                "subdomains": list(r["subdomains"]),
                "cells": int(r["cells"]),
                "approach": r["approach"].value,
                "execution": None if execution is None else execution.to_dict(),
                "precision": str(r["precision"]),
                "invariants": {
                    "n_subdomains": r["n_subdomains"],
                    "n_lambda": r["n_lambda"],
                    "dofs_per_subdomain": r["dofs_per_subdomain"],
                    "kernel_dim": r["kernel_dim"],
                },
                "simulated": {
                    "preparation_seconds": r["sim_preparation_seconds"],
                    "preprocessing_seconds": r["sim_preprocessing_seconds"],
                    "apply_seconds": r["sim_apply_seconds"],
                },
                "wall": {
                    "preprocessing_seconds": r["wall_preprocessing_seconds"],
                    "apply_seconds": r["wall_apply_seconds"],
                    "coarse_factor_seconds": r["wall_coarse_factor_seconds"],
                    "coarse_apply_seconds": r["wall_coarse_apply_seconds"],
                },
            }
        )
    record: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": scenario.name,
        "scenario": {
            "description": scenario.description,
            "physics": scenario.base.physics,
            "dim": scenario.base.dim,
            "order": scenario.base.order,
            "n_clusters": scenario.base.n_clusters,
            "tags": sorted(scenario.tags),
            "n_applies": scenario.n_applies,
        },
        "environment": environment_stamp(),
        "points": points,
    }
    derived = _derived_metrics(sweep)
    if derived:
        record["derived"] = derived
    return record


def _derived_metrics(sweep: SweepResult) -> dict[str, float]:
    """Wall-clock speedups a scenario's own axes pair up.

    ``wall_preprocessing_speedup[.../<executor>]`` compares every sharded
    execution backend against the serial point of the same workload on the
    preparation+preprocessing wall-clock time.
    """
    derived: dict[str, float] = {}
    by_execution: dict[str, dict[Any, float]] = {}
    for r in sweep.records:
        if r["precision"] != "fp64":
            # Reduced-precision points never pair with the fp64 reference:
            # their own comparisons live in the precision_phase scenario's
            # dedicated record sections.
            continue
        execution = r["execution"]
        if execution is not None and not execution.parallel:
            execution = None
        stem = (
            "x".join(str(s) for s in r["subdomains"])
            + f"/c{r['cells']}/{r['approach'].value}"
        )
        by_execution.setdefault(stem, {})[execution] = r["wall_preprocessing_seconds"]
    for stem, walls in by_execution.items():
        serial_wall = walls.get(None)
        if serial_wall is None:
            continue
        for execution, wall in walls.items():
            if execution is None or wall <= 0.0:
                continue
            key = f"wall_preprocessing_speedup[{stem}/{execution.describe()}]"
            derived[key] = serial_wall / wall
    return derived


# --------------------------------------------------------------------- #
# Record I/O                                                             #
# --------------------------------------------------------------------- #
def environment_stamp() -> dict[str, Any]:
    """Provenance of a record: code, interpreter and machine identity."""
    import scipy

    return {
        "git_sha": _git_sha(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def record_filename(name: str) -> str:
    """``BENCH_<scenario>.json`` with a filesystem-safe scenario stem."""
    return f"BENCH_{re.sub(r'[^A-Za-z0-9_.-]+', '_', name)}.json"


def write_record(record: dict[str, Any], output_dir: str | Path) -> Path:
    """Serialize a record into ``output_dir`` (created if missing)."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / record_filename(record["benchmark"])
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path


def load_record(path: str | Path) -> dict[str, Any]:
    """Read one ``BENCH_*.json`` record."""
    return json.loads(Path(path).read_text())
