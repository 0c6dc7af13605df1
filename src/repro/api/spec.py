"""The consolidated :class:`SolverSpec`: *how* to solve a workload.

One frozen, validated object absorbs everything that was previously spread
over the legacy solver/PCPG option objects (approach, preconditioner,
tolerances), ``MachineConfig`` (per-cluster threads/streams) and
``AssemblyConfig`` (the Table-I explicit-assembly parameters).  There is one
apply path and one sparse path: the per-subdomain / per-column reference
loops are test oracles (``tests/oracles/``), not options.

Incompatible combinations are rejected at *construction* time with
actionable errors instead of being silently ignored deep inside
``make_dual_operator`` — e.g. explicit-assembly parameters on an approach
that never assembles ``F̃ᵢ`` on the GPU, or the Dirichlet preconditioner,
whose ``Sᵢ`` are gathered from ``F̃ᵢ``, on one that never assembles it.

The Table-I parameters can be given three ways:

* ``assembly=None`` — the library-default parameters (what the bench runner
  and the raw operator constructors always used);
* ``assembly="table2"`` — resolve the paper's Table-II recommendation for
  the problem at hand (dimension, DOFs per subdomain, CUDA generation);
* an :class:`~repro.feti.config.AssemblyConfig` (or a plain dict of its
  fields with string enum values, see :func:`assembly_config`).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any

from repro.api.workload import SCHEMA_VERSION, ApiError, check_schema_version, whole_int
from repro.cluster.topology import MachineConfig
from repro.feti.config import (
    AssemblyConfig,
    DualOperatorApproach,
    FactorOrder,
    FactorStorage,
    Path,
    RhsOrder,
    ScatterGatherDevice,
)
from repro.feti.preconditioner import DirichletPreconditioner, PreconditionerKind
from repro.feti.problem import FetiProblem
from repro.runtime.executor import ExecutionError, ExecutionSpec

__all__ = [
    "SpecError",
    "SolverSpec",
    "assembly_config",
    "solver_presets",
    "TABLE2",
]


class SpecError(ApiError):
    """A solver spec failed validation or deserialization."""


#: Sentinel value of ``SolverSpec.assembly`` selecting the paper's Table-II
#: recommended explicit-assembly parameters (resolved per problem).
TABLE2 = "table2"

#: The approaches whose operators consume the Table-I assembly parameters.
_EXPLICIT_GPU_APPROACHES = tuple(
    a for a in DualOperatorApproach if a.is_explicit and a.uses_gpu
)

_ASSEMBLY_FIELD_TYPES: dict[str, type] = {
    "path": Path,
    "forward_factor_storage": FactorStorage,
    "backward_factor_storage": FactorStorage,
    "forward_factor_order": FactorOrder,
    "backward_factor_order": FactorOrder,
    "rhs_order": RhsOrder,
    "scatter_gather": ScatterGatherDevice,
    "apply_symmetric": bool,
}


def _coerce_enum(kind: type, value: Any, what: str) -> Any:
    """Coerce a string to an enum member with an actionable error."""
    if isinstance(value, kind):
        return value
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(repr(m.value) for m in kind)  # type: ignore[var-annotated]
        raise SpecError(f"unknown {what} {value!r}; expected one of: {valid}") from None


def assembly_config(**kwargs: Any) -> AssemblyConfig:
    """Build an :class:`AssemblyConfig` from string-friendly field values.

    ``assembly_config(path="trsm", rhs_order="col-major")`` accepts the
    serialized enum values used by :meth:`SolverSpec.to_dict`, so scripts
    and JSON files never touch the enum classes directly.
    """
    unknown = sorted(set(kwargs) - set(_ASSEMBLY_FIELD_TYPES))
    if unknown:
        raise SpecError(
            f"unknown assembly parameter(s) {unknown}; "
            f"valid parameters: {sorted(_ASSEMBLY_FIELD_TYPES)}"
        )
    coerced: dict[str, Any] = {}
    for name, value in kwargs.items():
        kind = _ASSEMBLY_FIELD_TYPES[name]
        if kind is bool:
            coerced[name] = bool(value)
        else:
            coerced[name] = _coerce_enum(kind, value, f"assembly {name}")
    return AssemblyConfig(**coerced)


def _whole_int(name: str, value: Any) -> int:
    """Coerce to int, rejecting fractional values instead of truncating."""
    return whole_int(name, value, exc=SpecError)


def _assembly_to_dict(config: AssemblyConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(AssemblyConfig):
        value = getattr(config, f.name)
        out[f.name] = value.value if isinstance(value, enum.Enum) else value
    return out


@dataclass(frozen=True)
class SolverSpec:
    """One consolidated, validated solver configuration.

    Attributes
    ----------
    approach:
        Table-III dual-operator approach (enum member or its string value,
        e.g. ``"expl modern"``).
    preconditioner:
        Dual preconditioner of the PCPG iteration (``"none"``, ``"lumped"``
        or ``"dirichlet"``).  ``None`` (the default) resolves by approach
        family at construction: ``"dirichlet"`` for every explicit approach,
        whose assembled ``F̃ᵢ`` make each Dirichlet ``Sᵢ`` a gather and a
        small dense inverse, ``"lumped"`` for the implicit ones, which hold
        no ``F̃ᵢ``.  The resolved kind is what the spec holds and
        serializes; ``"dirichlet"`` on an implicit approach raises
        :class:`SpecError`.
    tolerance, max_iterations, absolute_tolerance:
        PCPG stopping criteria.
    threads_per_cluster, streams_per_cluster:
        Per-cluster resources; ``None`` keeps the library default (16/16,
        one NUMA domain of the paper's Karolina node).
    assembly:
        Table-I explicit-assembly parameters: ``None`` (library default),
        ``"table2"`` (paper recommendation, resolved per problem), an
        :class:`AssemblyConfig`, or a dict of its fields.  Only valid for
        approaches that assemble ``F̃ᵢ`` on the GPU.
    execution:
        Where the preprocessing runs: ``None`` (serial, inline), or
        ``threads:n`` (a backend string such as ``"threads:2"``, a
        ``{"backend", "workers"}`` dict or an
        :class:`~repro.runtime.executor.ExecutionSpec`), which cuts it into
        at most ``n`` spans on a private thread pool, bitwise the serial
        result.  The wall-clock harness's threaded rig
        (``benchmarks/perf/bench.py:242``) is built with it;
        ``benchmarks/threads_verdict.py`` measures where it pays.  A served
        request may not ask for more than one worker.
    precision:
        Factor storage policy (see :mod:`repro.memory.precision`):
        ``"fp64"`` (the double-precision reference), ``"fp32"``
        (half-size factor and pack storage, solves carry the storage
        rounding).
    residual_history:
        Number of per-iteration PCPG residual norms to retain on the
        result (``PcpgResult.residual_history`` and the
        ``ConvergenceReport`` on ``FetiSolution``).  ``0`` (the default)
        keeps none; ``N`` keeps the first ``N`` norms (iteration 0 = the
        initial residual), so long solves stay memory-bounded.
    machine:
        Advanced escape hatch: a full :class:`MachineConfig` (custom cost
        models).  Mutually exclusive with ``threads_per_cluster`` /
        ``streams_per_cluster`` and not JSON-serializable.
    """

    approach: DualOperatorApproach = DualOperatorApproach.IMPLICIT_MKL
    preconditioner: PreconditionerKind | None = None
    tolerance: float = 1e-9
    max_iterations: int = 500
    absolute_tolerance: float = 1e-300
    threads_per_cluster: int | None = None
    streams_per_cluster: int | None = None
    assembly: AssemblyConfig | str | None = None
    execution: ExecutionSpec | str | None = None
    precision: str = "fp64"
    residual_history: int = 0
    machine: MachineConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "approach", _coerce_enum(DualOperatorApproach, self.approach, "approach")
        )
        if self.preconditioner is None:
            object.__setattr__(
                self,
                "preconditioner",
                PreconditionerKind.DIRICHLET
                if self.approach.is_explicit
                else PreconditionerKind.LUMPED,
            )
        object.__setattr__(
            self,
            "preconditioner",
            _coerce_enum(PreconditionerKind, self.preconditioner, "preconditioner"),
        )
        if self.preconditioner is PreconditionerKind.DIRICHLET:
            DirichletPreconditioner.require_explicit(self.approach)
        for name in ("tolerance", "absolute_tolerance"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except (TypeError, ValueError):
                raise SpecError(
                    f"{name} must be a number, got {getattr(self, name)!r}"
                ) from None
        if not 0.0 < self.tolerance < 1.0:
            raise SpecError(f"tolerance must lie in (0, 1), got {self.tolerance!r}")
        if not self.absolute_tolerance >= 0.0:
            raise SpecError(
                f"absolute_tolerance must be >= 0, got {self.absolute_tolerance!r}"
            )
        object.__setattr__(
            self, "max_iterations", _whole_int("max_iterations", self.max_iterations)
        )
        if self.max_iterations < 1:
            raise SpecError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        for name in ("threads_per_cluster", "streams_per_cluster"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _whole_int(name, value))
                if getattr(self, name) < 1:
                    raise SpecError(f"{name} must be >= 1, got {value!r}")
        if self.execution is not None:
            try:
                object.__setattr__(self, "execution", ExecutionSpec.of(self.execution))
            except ExecutionError as exc:
                raise SpecError(str(exc)) from None
        from repro.memory.precision import PRECISION_NAMES

        if self.precision not in PRECISION_NAMES:
            raise SpecError(
                f"unknown precision {self.precision!r}; expected one of: "
                f"{', '.join(repr(p) for p in PRECISION_NAMES)} "
                "('fp32' stores factors in single precision)"
            )
        object.__setattr__(
            self, "residual_history", _whole_int("residual_history", self.residual_history)
        )
        if self.residual_history < 0:
            raise SpecError(
                f"residual_history must be >= 0, got {self.residual_history!r} "
                "(0 disables residual-history capture, N keeps the first N norms)"
            )
        if self.machine is not None and (
            self.threads_per_cluster is not None or self.streams_per_cluster is not None
        ):
            raise SpecError(
                "give either a full `machine` MachineConfig or "
                "`threads_per_cluster`/`streams_per_cluster`, not both"
            )
        if isinstance(self.assembly, Mapping):
            object.__setattr__(self, "assembly", assembly_config(**self.assembly))
        if isinstance(self.assembly, str) and self.assembly != TABLE2:
            raise SpecError(
                f"assembly={self.assembly!r} is not understood; use None, "
                f"{TABLE2!r}, an AssemblyConfig or a dict of its fields"
            )
        if self.assembly is not None and self.approach not in _EXPLICIT_GPU_APPROACHES:
            accepted = ", ".join(a.value for a in _EXPLICIT_GPU_APPROACHES)
            raise SpecError(
                f"approach {self.approach.value!r} never assembles the dual "
                "operator on the GPU, so the Table-I assembly parameters "
                "would be silently ignored; drop `assembly` or pick one of: "
                f"{accepted}"
            )

    # ------------------------------------------------------------------ #
    # Wiring helpers (consumed by FetiSolver / Session)                   #
    # ------------------------------------------------------------------ #
    def machine_config(self) -> MachineConfig | None:
        """The per-cluster resource description (``None`` = library default)."""
        if self.machine is not None:
            return self.machine
        if self.threads_per_cluster is None and self.streams_per_cluster is None:
            return None
        defaults = MachineConfig()
        return MachineConfig(
            threads_per_cluster=self.threads_per_cluster or defaults.threads_per_cluster,
            streams_per_cluster=self.streams_per_cluster or defaults.streams_per_cluster,
        )

    def resolve_assembly(self, problem: FetiProblem) -> AssemblyConfig | None:
        """The concrete Table-I parameters for one problem.

        ``"table2"`` resolves the paper's recommendation from the approach's
        CUDA generation, the problem dimension and the subdomain size;
        ``None`` stays ``None`` (the operator uses its default parameters).
        """
        if isinstance(self.assembly, AssemblyConfig):
            return self.assembly
        if self.assembly == TABLE2:
            from repro.feti.autotune import recommend_assembly_config

            return recommend_assembly_config(
                cuda_library=self.approach.cuda_library,
                dim=problem.decomposition.dim,
                dofs_per_subdomain=problem.subdomains[0].ndofs,
            )
        return None

    # ------------------------------------------------------------------ #
    # Serialization                                                       #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        if self.machine is not None:
            raise SpecError(
                "a spec carrying a full `machine` MachineConfig (custom cost "
                "models) is not JSON-serializable; use "
                "threads_per_cluster/streams_per_cluster instead"
            )
        assembly: Any = self.assembly
        if isinstance(assembly, AssemblyConfig):
            assembly = _assembly_to_dict(assembly)
        return {
            "schema_version": SCHEMA_VERSION,
            "approach": self.approach.value,
            "preconditioner": self.preconditioner.value,
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "absolute_tolerance": self.absolute_tolerance,
            "threads_per_cluster": self.threads_per_cluster,
            "streams_per_cluster": self.streams_per_cluster,
            "assembly": assembly,
            "execution": None if self.execution is None else self.execution.to_dict(),
            "precision": self.precision,
            "residual_history": self.residual_history,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverSpec":
        """Build a spec from :meth:`to_dict` output (validated)."""
        if not isinstance(data, Mapping):
            raise SpecError(
                f"a solver spec must deserialize from a mapping, got {type(data).__name__}"
            )
        payload = dict(data)
        check_schema_version(payload.pop("schema_version", None), "solver spec", SpecError)
        known = {f.name for f in fields(cls)} - {"machine"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                f"unknown solver-spec field(s) {unknown}; known fields: {sorted(known)}"
            )
        return cls(**payload)

    # ------------------------------------------------------------------ #
    # Presets                                                             #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_preset(cls, name: str, **overrides: Any) -> "SolverSpec":
        """A named configuration mirroring the paper's recommendations.

        ``overrides`` replace individual fields of the preset (e.g.
        ``SolverSpec.from_preset("gpu-modern", tolerance=1e-8)``).
        """
        try:
            base = dict(_SPEC_PRESETS[name])
        except KeyError:
            known = ", ".join(sorted(_SPEC_PRESETS))
            raise KeyError(
                f"unknown solver preset {name!r}; registered presets: {known}"
            ) from None
        base.update(overrides)
        return cls(**base)

    @classmethod
    def of(cls, value: "SolverSpec | str | None") -> "SolverSpec":
        """Normalize ``None`` (defaults), a preset name or a spec."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_preset(value)
        raise TypeError(
            f"expected a SolverSpec, a preset name or None, got {type(value).__name__}"
        )


#: The named spec presets; the GPU entries resolve the Table-II assembly
#: recommendation per problem via ``assembly="table2"``.
_SPEC_PRESETS: dict[str, dict[str, Any]] = {
    "cpu-implicit": {},
    "cpu-explicit": {"approach": DualOperatorApproach.EXPLICIT_MKL},
    "gpu-legacy": {
        "approach": DualOperatorApproach.EXPLICIT_GPU_LEGACY,
        "assembly": TABLE2,
    },
    "gpu-modern": {
        "approach": DualOperatorApproach.EXPLICIT_GPU_MODERN,
        "assembly": TABLE2,
    },
    "hybrid": {
        "approach": DualOperatorApproach.EXPLICIT_HYBRID,
        "assembly": TABLE2,
    },
}


def solver_presets() -> list[str]:
    """All registered solver-spec preset names."""
    return list(_SPEC_PRESETS)
