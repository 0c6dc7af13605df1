"""The scenario registry: named, parameterized benchmark workloads.

Every paper figure/table and every performance gate is a *scenario*: a
physics (heat transfer or linear elasticity), a dimensionality, a subdomain
grid, and a sweep over dual-operator approaches and/or problem sizes.  The
registry makes the workloads first-class — enumerable (``repro-bench list``),
runnable (``repro-bench run``), and regression-gated against committed
baselines (``repro-bench compare``) — and gives the pytest benchmark suite
and the CLI one shared source of scenario truth.

A scenario's sweep grid always has four axes (``subdomains``, ``cells``,
``approach``, ``precision``); axes not explicitly swept are
pinned to the base workload values.  A scenario is a list of measurement
units, each measured by one method, and :func:`repro.bench.runner.
run_scenario` is the one loop over them.  The base :class:`Scenario`
measures the operator grid, one unit per grid point; the phase and service
scenarios (:mod:`repro.bench.apply_phase`, :mod:`repro.bench.precision_phase`,
:mod:`repro.bench.serve_load`) override ``units`` / ``measure`` / ``check``
/ ``derived`` and nothing else.

A scenario's base workload *is* a :class:`repro.api.Workload` — the same
declarative, JSON-serializable object the Session API and
``repro-bench run --workload`` consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.api.workload import PHYSICS, Workload
from repro.api.workload import build_problem as build_feti_problem
from repro.bench.runner import InvariantViolation, measure_point, point_key
from repro.feti.config import DualOperatorApproach
from repro.feti.problem import FetiProblem

__all__ = [
    "PHYSICS",
    "Workload",
    "Scenario",
    "build_feti_problem",
    "register",
    "get",
    "names",
    "scenarios",
    "all_tags",
]

_ALL_APPROACHES = tuple(DualOperatorApproach)


@dataclass
class Scenario:
    """A named benchmark workload with its sweep grid and invariants.

    Attributes
    ----------
    name:
        Registry key; also the stem of the ``BENCH_<name>.json`` record.
    description:
        One-line human description shown by ``repro-bench list``.
    base:
        The base workload; grid axes not swept are pinned to its values.
    approaches:
        Dual-operator approaches to sweep (the ``approach`` axis).
    precision:
        Factor-storage precisions to sweep (the ``precision`` axis):
        ``"fp64"`` is the reference, ``"fp32"`` stores factors and packed
        dual-operator blocks in single precision.
    subdomain_grid:
        Optional sweep axis over subdomain grids (``base.subdomains`` if
        unset).
    cells_grid:
        Optional sweep axis over cells-per-subdomain (``base.cells`` if
        unset).
    n_applies:
        Dual-operator applications measured per grid point.
    tags:
        Free-form labels; ``quick`` marks the CI regression-gate set.
    expected:
        Invariants of the *base* problem checked on every run (keys:
        ``n_subdomains``, ``n_lambda``, ``dofs_per_subdomain``,
        ``kernel_dim``).
    """

    name: str
    description: str
    base: Workload
    approaches: tuple[DualOperatorApproach, ...] = (DualOperatorApproach.EXPLICIT_MKL,)
    precision: tuple[str, ...] = ("fp64",)
    subdomain_grid: tuple[tuple[int, ...], ...] | None = None
    cells_grid: tuple[int, ...] | None = None
    n_applies: int = 3
    tags: frozenset[str] = frozenset()
    expected: dict[str, int] = field(default_factory=dict)

    def grid(self) -> dict[str, list[Any]]:
        """The cartesian sweep grid of the scenario (four fixed axes)."""
        return {
            "subdomains": list(self.subdomain_grid or (self.base.subdomains,)),
            "cells": list(self.cells_grid or (self.base.cells,)),
            "approach": list(self.approaches),
            "precision": list(self.precision),
        }

    def axes(self) -> dict[str, list[str]]:
        """Human-readable sweep-axis values (``repro-bench list`` output).

        Every grid axis maps to the strings a reader would recognise from
        point keys: approaches by enum value, grids as ``AxB``.
        """
        grid = self.grid()
        return {
            "subdomains": ["x".join(str(v) for v in s) for s in grid["subdomains"]],
            "cells": [str(c) for c in grid["cells"]],
            "approach": [a.value for a in grid["approach"]],
            "precision": [str(p) for p in grid["precision"]],
        }

    def n_points(self) -> int:
        """Number of grid points the scenario executes."""
        n = 1
        for values in self.grid().values():
            n *= len(values)
        return n

    def units(self) -> dict[str, Any]:
        """The measurement units of one run, keyed by a stable unit name.

        The operator grid has one unit per grid point — the axis values by
        name — keyed by its :func:`~repro.bench.runner.point_key`.
        """
        grid = self.grid()
        points = (dict(zip(grid, values)) for values in itertools.product(*grid.values()))
        return {point_key(**point): point for point in points}

    def measure(self, unit: dict[str, Any]) -> list[dict[str, Any]]:
        """The record rows of one unit: here the one point of a grid point.

        The row carries the record point (``key``, axis labels,
        ``invariants`` / ``simulated`` / ``wall``) and, for the sweep and
        the checks, every :class:`~repro.bench.runner.PointMeasurement`
        field flat — the applied operator ``q`` included.
        """
        m = measure_point(
            self.spec_with(unit["subdomains"], unit["cells"]),
            unit["approach"],
            self.n_applies,
            unit["precision"],
        )
        return [
            {
                "key": point_key(**unit),
                **unit,
                **vars(m),
                "invariants": {
                    "n_subdomains": m.n_subdomains,
                    "n_lambda": m.n_lambda,
                    "dofs_per_subdomain": m.dofs_per_subdomain,
                    "kernel_dim": m.kernel_dim,
                },
                "simulated": {
                    "preparation_seconds": m.sim_preparation_seconds,
                    "preprocessing_seconds": m.sim_preprocessing_seconds,
                    "apply_seconds": m.sim_apply_seconds,
                },
                "wall": {
                    "preprocessing_seconds": m.wall_preprocessing_seconds,
                    "apply_seconds": m.wall_apply_seconds,
                    "coarse_factor_seconds": m.wall_coarse_factor_seconds,
                    "coarse_apply_seconds": m.wall_coarse_apply_seconds,
                },
            }
        ]

    def check(self, rows: list[dict[str, Any]]) -> None:
        """Every approach of one workload must compute the same dual
        operator.

        Reduced-precision points intentionally round the stored operator, so
        they are held to a looser tolerance against the workload's fp64
        reference instead of the tight cross-approach bound.
        """
        workloads: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        for row in rows:
            workloads.setdefault((row["subdomains"], row["cells"]), []).append(row)
        for group in workloads.values():
            # Prefer an fp64 point as the workload's reference operator.
            ref = next((r for r in group if r["precision"] == "fp64"), group[0])
            for row in group:
                rtol, atol = (1e-7, 1e-8) if row["precision"] == "fp64" else (1e-4, 1e-6)
                if not np.allclose(row["q"], ref["q"], rtol=rtol, atol=atol):
                    raise InvariantViolation(
                        f"scenario {self.name!r}: {row['key']} diverges from "
                        f"{ref['key']} (max |Δ| = "
                        f"{np.max(np.abs(row['q'] - ref['q'])):.3e})"
                    )

    def derived(self, rows: list[dict[str, Any]]) -> dict[str, float]:
        """Record-level ratios of the rows: none on the operator grid (the
        phase scenarios derive their own)."""
        return {}

    def spec_with(
        self, subdomains: tuple[int, ...] | None = None, cells: int | None = None
    ) -> Workload:
        """The workload spec of one grid point."""
        spec = self.base
        if subdomains is not None:
            spec = replace(spec, subdomains=tuple(subdomains))
        if cells is not None:
            spec = replace(spec, cells=int(cells))
        return spec

    def build_problem(
        self, subdomains: tuple[int, ...] | None = None, cells: int | None = None
    ) -> FetiProblem:
        """Build (cached) the FETI problem of one grid point."""
        return build_feti_problem(self.spec_with(subdomains, cells))


# --------------------------------------------------------------------- #
# Registry                                                               #
# --------------------------------------------------------------------- #
_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (names must be unique)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


def names(tag: str | None = None) -> list[str]:
    """All registered scenario names, optionally restricted to one tag."""
    return [s.name for s in scenarios(tag)]


def scenarios(tag: str | None = None) -> list[Scenario]:
    """All registered scenarios (registration order), optionally by tag."""
    return [s for s in _REGISTRY.values() if tag is None or tag in s.tags]


def all_tags() -> list[str]:
    """Every tag used by at least one registered scenario."""
    tags: set[str] = set()
    for scenario in _REGISTRY.values():
        tags |= scenario.tags
    return sorted(tags)


# --------------------------------------------------------------------- #
# The default scenario set                                               #
# --------------------------------------------------------------------- #
def _register_defaults() -> None:
    register(
        Scenario(
            name="smoke_heat_2d",
            description="Smallest end-to-end workload: heat 2D, 2 subdomains, CPU approaches",
            base=Workload("heat", 2, (2, 1), 2),
            approaches=(
                DualOperatorApproach.IMPLICIT_MKL,
                DualOperatorApproach.EXPLICIT_MKL,
            ),
            n_applies=2,
            tags=frozenset({"quick", "smoke"}),
            expected={"n_subdomains": 2, "kernel_dim": 1},
        )
    )
    register(
        Scenario(
            name="heat_2d_approaches",
            description="Table III quick gate: all nine approaches, heat 2D, 2x2 subdomains",
            base=Workload("heat", 2, (2, 2), 4),
            approaches=_ALL_APPROACHES,
            tags=frozenset({"quick", "table3"}),
            expected={"n_subdomains": 4, "dofs_per_subdomain": 25, "kernel_dim": 1},
        )
    )
    register(
        Scenario(
            name="heat_3d_approaches",
            description="All nine approaches, heat 3D, 2x2x1 subdomains",
            base=Workload("heat", 3, (2, 2, 1), 2, dirichlet_faces=("zmin",)),
            approaches=_ALL_APPROACHES,
            tags=frozenset({"quick", "table3"}),
            expected={"n_subdomains": 4, "dofs_per_subdomain": 27, "kernel_dim": 1},
        )
    )
    register(
        Scenario(
            name="elasticity_2d_approaches",
            description="Linear elasticity 2D: implicit/explicit CPU, GPU and hybrid",
            base=Workload("elasticity", 2, (2, 1), 3),
            approaches=(
                DualOperatorApproach.IMPLICIT_MKL,
                DualOperatorApproach.IMPLICIT_CHOLMOD,
                DualOperatorApproach.EXPLICIT_MKL,
                DualOperatorApproach.EXPLICIT_GPU_MODERN,
                DualOperatorApproach.EXPLICIT_HYBRID,
            ),
            tags=frozenset({"quick"}),
            expected={"n_subdomains": 2, "kernel_dim": 3},
        )
    )
    register(
        Scenario(
            name="elasticity_3d_implicit",
            description="Linear elasticity 3D: implicit CPU/GPU vs explicit CPU",
            base=Workload("elasticity", 3, (2, 1, 1), 2),
            approaches=(
                DualOperatorApproach.IMPLICIT_MKL,
                DualOperatorApproach.IMPLICIT_GPU_MODERN,
                DualOperatorApproach.EXPLICIT_MKL,
            ),
            tags=frozenset({"quick"}),
            expected={"n_subdomains": 2, "kernel_dim": 6},
        )
    )
    register(
        Scenario(
            name="elasticity_2d_quadratic",
            description="Quadratic elements: elasticity 2D, order 2, CPU approaches",
            base=Workload("elasticity", 2, (2, 1), 2, order=2),
            approaches=(
                DualOperatorApproach.IMPLICIT_MKL,
                DualOperatorApproach.EXPLICIT_MKL,
            ),
            tags=frozenset({"quick"}),
            expected={"n_subdomains": 2, "kernel_dim": 3},
        )
    )
    register(
        Scenario(
            name="heat_2d_scaling",
            description="Subdomain-count scaling: heat 2D, 2x2 vs 4x4 subdomains",
            base=Workload("heat", 2, (2, 2), 4),
            approaches=(
                DualOperatorApproach.IMPLICIT_MKL,
                DualOperatorApproach.EXPLICIT_GPU_MODERN,
            ),
            subdomain_grid=((2, 2), (4, 4)),
            tags=frozenset({"quick", "scaling"}),
            expected={"n_subdomains": 4, "kernel_dim": 1},
        )
    )
    register(
        Scenario(
            name="multicluster_heat_2d",
            description="Multi-cluster cost model: heat 2D, 4x4 subdomains in 4 clusters",
            base=Workload("heat", 2, (4, 4), 4, n_clusters=4),
            approaches=(
                DualOperatorApproach.IMPLICIT_MKL,
                DualOperatorApproach.EXPLICIT_MKL,
            ),
            tags=frozenset({"quick", "cluster"}),
            expected={"n_subdomains": 16, "kernel_dim": 1},
        )
    )
    register(
        Scenario(
            name="heat_2d_sizes",
            description="Figure 5/6/7 sweep: heat 2D, subdomain-size grid, all approaches",
            base=Workload("heat", 2, (2, 2), 7),
            approaches=_ALL_APPROACHES,
            cells_grid=(7, 15, 31),
            n_applies=1,
            tags=frozenset({"paper", "fig5"}),
            expected={"n_subdomains": 4, "kernel_dim": 1},
        )
    )
    register(
        Scenario(
            name="heat_3d_sizes",
            description="Figure 5/6/7 sweep: heat 3D, subdomain-size grid, all approaches",
            base=Workload("heat", 3, (2, 2, 2), 3),
            approaches=_ALL_APPROACHES,
            cells_grid=(3, 5, 8),
            n_applies=1,
            tags=frozenset({"paper", "fig5"}),
            expected={"n_subdomains": 8, "kernel_dim": 1},
        )
    )


_register_defaults()
