"""Scenario runner: measure a registered scenario and emit its benchmark record.

A scenario is a list of measurement units (``Scenario.units``), each
measured by one method (``Scenario.measure``) into record rows.
:func:`run_scenario` is the one loop over them for every scenario: it logs
each unit, runs it under the optional per-unit watchdog and tracer, then
runs the scenario's ``check`` and builds the one schema-versioned,
environment-stamped ``BENCH_<scenario>.json`` record that the baseline
comparator can diff across runs and machines.

The base :class:`~repro.bench.registry.Scenario` measures the operator grid:
one unit per grid point, measured once by :func:`measure_point` (simulated
preprocessing/application time from the operator's
:class:`~repro.analysis.timing.TimingLedger`, wall-clock time around the
real numerics).  Point measurements are cached per (workload, approach,
n_applies, ...), so scenarios that share grid points — e.g. the Figure-5
sweep feeding Figures 6 and 7 — never re-measure.

Every measurement is constructed through :mod:`repro.api`: one
:class:`~repro.api.session.Session` per grid point, so each point owns a
private pattern cache (it pays its own symbolic-analysis cost) while the
built problems stay shared through the workload-level problem cache.
"""

from __future__ import annotations

import contextvars
import json
import os
import platform
import re
import subprocess
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._version import __version__
from repro.analysis.sweep import SweepResult
from repro.api.session import Session
from repro.api.spec import SolverSpec
from repro.api.workload import Workload
from repro.cluster.topology import MachineConfig
from repro.feti.config import DualOperatorApproach
from repro.feti.projector import build_projector
from repro.observe.log import get_logger
from repro.observe.trace import Tracer, trace

if TYPE_CHECKING:
    from repro.bench.registry import Scenario

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

#: The fields of a measured row that its record point keeps, in record order.
#: A row may carry more — the grid's flat sweep columns and operator output,
#: a phase scenario's gate inputs — for ``check``, ``derived`` and the sweep.
_POINT_FIELDS = (
    "key", "subdomains", "cells", "approach", "precision",
    "invariants", "simulated", "wall",
)

#: Seed of the deterministic dual vector applied at every grid point.
_APPLY_SEED = 20250729

_log = get_logger("repro.bench")


class InvariantViolation(AssertionError):
    """A scenario invariant failed (shape mismatch or operator divergence)."""


class PointTimeout(RuntimeError):
    """One measurement unit exceeded the per-unit wall-clock budget.

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
    precision: str = "fp64",
) -> PointMeasurement:
    """Measure one (workload, approach, precision) point.

    Simulated times come from the operator's timing ledger; wall-clock times
    wrap the real execution of prepare+preprocess and of the ``n_applies``
    application loop (mean per apply, after one untimed warm-up apply that
    pays the once-per-preprocessing timeline plan).  Each point runs in its own
    :class:`~repro.api.session.Session` with a private pattern cache, so it
    pays its own symbolic-analysis cost.  The coarse problem is
    benchmarked alongside the operator: the projector build (G^T G
    factorization) and ``n_applies`` projector applications are timed on the
    same workload.  ``precision`` selects the factor-storage policy
    (``fp64`` / ``fp32``).
    """
    session = Session(
        SolverSpec(
            approach=approach,
            threads_per_cluster=RUNNER_MACHINE.threads_per_cluster,
            streams_per_cluster=RUNNER_MACHINE.streams_per_cluster,
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
        # Untimed warm-up: the first apply after a preprocessing reads the
        # freshly assembled blocks and factors cold.  The mark keeps it out
        # of the simulated mean as well, so that stays the left-to-right sum
        # of exactly ``n_applies`` applies.
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
    precision: str = "fp64",
) -> str:
    """Stable human-readable identity of a grid point (used for pairing).

    The ``/batched`` segment is a fixed part of the stem: it dates from the
    removed ``batched`` sweep axis and stays so every committed baseline
    keeps pairing by key.  The ``precision="fp64"`` default adds nothing;
    reduced-precision points are suffixed with the policy name (e.g.
    ``/fp32``).
    """
    grid = "x".join(str(s) for s in subdomains)
    key = f"{grid}/c{cells}/{approach.value}/batched"
    if precision != "fp64":
        key += f"/{precision}"
    return key


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``sweep`` holds the measured rows (for the grid: the axis values plus
    every :class:`PointMeasurement` field), ``record`` the JSON record.
    """

    scenario: Scenario
    sweep: SweepResult
    record: dict[str, Any]


def run_scenario(
    scenario: Scenario,
    check_invariants: bool = True,
    point_timeout: float | None = None,
    trace_sink: dict[str, Tracer] | None = None,
) -> ScenarioResult:
    """Measure every unit of a scenario and build its benchmark record.

    ``point_timeout`` bounds every unit's wall-clock time: a unit that does
    not finish (e.g. a hung pool worker) raises :class:`PointTimeout`
    instead of stalling the run — CI's benchmark gate sets it so a wedged
    runtime worker fails fast.

    ``trace_sink`` (a mutable mapping) opts into per-unit tracing: every
    unit runs under its own :class:`~repro.observe.trace.Tracer`, which
    lands in the sink keyed ``<scenario>:<unit>`` (a grid unit is named by
    its :func:`point_key`).  Grid points answered from the measurement
    cache produce no spans and are skipped, so the sink holds exactly the
    work this run actually did.

    ``check_invariants`` checks the declared ``expected`` shape of the base
    problem and runs the scenario's own ``check`` after the last unit.
    """
    units = scenario.units()
    _log.info("scenario_start", scenario=scenario.name, units=len(units))
    rows: list[dict[str, Any]] = []
    for unit_key, unit in units.items():
        name = f"{scenario.name}:{unit_key}"
        start = time.perf_counter()
        if trace_sink is None:
            measured = _measure_unit(scenario, unit, name, point_timeout)
        else:
            with trace(f"bench:{name}") as tracer:
                measured = _measure_unit(scenario, unit, name, point_timeout)
            # A cached grid point re-runs nothing, so its tracer stays
            # empty — keep only tracers that actually saw measured work.
            if len(tracer):
                trace_sink[name] = tracer
        _log.debug(
            "unit_measured",
            scenario=scenario.name,
            unit=unit_key,
            points=len(measured),
            wall_seconds=time.perf_counter() - start,
        )
        rows += measured
    if check_invariants:
        _check_expected(scenario)
        scenario.check(rows)
    record: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": scenario.name,
        "scenario": _scenario_block(scenario),
        "environment": environment_stamp(),
        "points": [{k: row[k] for k in _POINT_FIELDS if k in row} for row in rows],
    }
    derived = scenario.derived(rows)
    if derived:
        record["derived"] = derived
    _log.info("scenario_done", scenario=scenario.name, measured=len(rows))
    sweep = SweepResult(parameters=list(scenario.grid()), records=rows)
    record = json.loads(json.dumps(record, default=_plain))
    return ScenarioResult(scenario=scenario, sweep=sweep, record=record)


def _measure_unit(
    scenario: Scenario, unit: Any, name: str, timeout: float | None
) -> list[dict[str, Any]]:
    """Measure one unit, under a wall-clock budget when ``timeout`` is set.

    The budgeted measurement runs on a daemon watchdog thread, in a copy
    of the caller's context (a traced run attributes its spans like an
    untimed one), so the caller can give up after ``timeout`` seconds.  The
    abandoned measurement (and any pool or server it started) is left
    behind, and being a daemon it never holds up the interpreter's exit —
    the point of the budget is to fail the CI job fast, not to recover.
    """
    if timeout is None:
        return scenario.measure(unit)
    future: Future = Future()
    context = contextvars.copy_context()

    def measure() -> None:
        try:
            future.set_result(context.run(scenario.measure, unit))
        except BaseException as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)

    threading.Thread(target=measure, name="bench-watchdog", daemon=True).start()
    try:
        return future.result(timeout=timeout)
    except FutureTimeout:
        raise PointTimeout(
            f"unit {name} exceeded the per-unit timeout of "
            f"{timeout:g} s (hung worker?)"
        ) from None


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


def _scenario_block(scenario: Scenario) -> dict[str, Any]:
    """The record's ``scenario`` section: the base workload, plus every
    field a scenario subclass declares (its sizes and gate thresholds)."""
    from repro.bench.registry import Scenario

    base_fields = {f.name for f in fields(Scenario)}
    return {
        "description": scenario.description,
        "physics": scenario.base.physics,
        "dim": scenario.base.dim,
        "order": scenario.base.order,
        "n_clusters": scenario.base.n_clusters,
        "tags": sorted(scenario.tags),
        "n_applies": scenario.n_applies,
        **{
            f.name: getattr(scenario, f.name)
            for f in fields(scenario)
            if f.name not in base_fields
        },
    }


def _plain(value: Any) -> Any:
    """JSON form of the Python labels a row carries (``json.dumps`` default)."""
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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
