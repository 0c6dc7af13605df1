"""Benchmark subsystem: scenario registry, runner, baselines, CLI.

* :mod:`repro.bench.registry` — named, parameterized workloads (heat /
  elasticity × 2D / 3D × subdomain grids × dual-operator approaches);
* :mod:`repro.bench.runner` — executes a scenario's sweep grid and emits a
  schema-versioned, environment-stamped ``BENCH_<scenario>.json`` record;
* :mod:`repro.bench.baseline` — diffs fresh records against committed
  baselines with configurable tolerances and CI exit-code semantics;
* :mod:`repro.bench.cli` — the ``repro-bench`` console script
  (``list`` / ``run`` / ``compare``).

The pytest benchmark suite under ``benchmarks/`` and the CLI share this
package as the single source of scenario truth.
"""

from repro.bench.baseline import (
    ComparisonReport,
    Difference,
    Tolerances,
    compare_directories,
    compare_records,
)
from repro.bench.registry import (
    Scenario,
    Workload,
    build_feti_problem,
    get,
    names,
    register,
    scenarios,
)
from repro.bench.runner import (
    RUNNER_MACHINE,
    SCHEMA_VERSION,
    InvariantViolation,
    PointMeasurement,
    ScenarioResult,
    load_record,
    measure_point,
    record_filename,
    run_scenario,
    write_record,
)
from repro.bench.apply_phase import ApplyPhaseScenario
from repro.bench.precision_phase import PrecisionPhaseScenario
from repro.bench.serve_load import ServeScenario

__all__ = [
    "Scenario",
    "ApplyPhaseScenario",
    "PrecisionPhaseScenario",
    "ServeScenario",
    "Workload",
    "build_feti_problem",
    "register",
    "get",
    "names",
    "scenarios",
    "SCHEMA_VERSION",
    "RUNNER_MACHINE",
    "InvariantViolation",
    "PointMeasurement",
    "ScenarioResult",
    "measure_point",
    "run_scenario",
    "record_filename",
    "write_record",
    "load_record",
    "Tolerances",
    "Difference",
    "ComparisonReport",
    "compare_records",
    "compare_directories",
]
