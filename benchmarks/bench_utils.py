"""Shared helpers of the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The figures
plot *simulated* per-subdomain times (the substitution documented in
DESIGN.md); pytest-benchmark additionally records the wall-clock time of one
representative execution so regressions in the Python implementation itself
are visible.

Since PR 2 the scenarios themselves live in :mod:`repro.bench.registry` —
the same definitions the ``repro-bench`` CLI enumerates, runs and gates in
CI — and this module is a thin adapter that exposes them in the shape the
figure tests consume.  Point measurements are cached inside
:func:`repro.bench.runner.measure_point`, so the Figure-5 sweep (the most
expensive measurement) is shared by Figures 6 and 7 for free.
"""

from __future__ import annotations

from repro.analysis.amortization import ApproachTiming
from repro.bench import registry
from repro.bench.runner import RUNNER_MACHINE, measure_point
from repro.feti.config import DualOperatorApproach
from repro.feti.problem import FetiProblem

__all__ = [
    "BENCH_MACHINE",
    "SIZES_SCENARIOS",
    "SUBDOMAIN_SIZES",
    "build_problem",
    "measure_approach",
    "measure_all_approaches",
    "approach_timings",
]

#: Machine used by all benchmarks (shared with the ``repro-bench`` runner).
BENCH_MACHINE = RUNNER_MACHINE

#: The registered subdomain-size-sweep scenario per dimensionality.
SIZES_SCENARIOS: dict[int, str] = {2: "heat_2d_sizes", 3: "heat_3d_sizes"}

#: Cells per subdomain edge for the size sweeps (per dimensionality), taken
#: from the registered scenarios so the figures and the CLI agree.
SUBDOMAIN_SIZES: dict[int, tuple[int, ...]] = {
    dim: tuple(registry.get(name).cells_grid) for dim, name in SIZES_SCENARIOS.items()
}


def build_problem(dim: int, cells_per_subdomain: int) -> FetiProblem:
    """The (cached) heat-transfer benchmark problem of one sweep point."""
    return registry.get(SIZES_SCENARIOS[dim]).build_problem(cells=cells_per_subdomain)


def measure_approach(
    dim: int, cells_per_subdomain: int, approach: DualOperatorApproach
) -> tuple[float, float]:
    """Simulated (preprocessing, application) seconds per subdomain."""
    scenario = registry.get(SIZES_SCENARIOS[dim])
    m = measure_point(
        scenario.spec_with(cells=cells_per_subdomain),
        approach,
        n_applies=scenario.n_applies,
    )
    return (
        m.sim_preprocessing_seconds / m.n_subdomains,
        m.sim_apply_seconds / m.n_subdomains,
    )


def measure_all_approaches(
    dim: int, cells_per_subdomain: int
) -> dict[DualOperatorApproach, tuple[float, float]]:
    """Measurements of all nine Table-III approaches for one problem size."""
    return {
        approach: measure_approach(dim, cells_per_subdomain, approach)
        for approach in DualOperatorApproach
    }


def approach_timings(dim: int, cells_per_subdomain: int) -> list[ApproachTiming]:
    """The Figure-6/7 input: per-approach ApproachTiming records."""
    return [
        ApproachTiming(
            name=approach.value,
            preprocessing_seconds=pre,
            application_seconds=app,
        )
        for approach, (pre, app) in measure_all_approaches(
            dim, cells_per_subdomain
        ).items()
    ]
