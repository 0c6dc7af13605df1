"""The declarative :class:`Workload`: *what* to solve, as data.

A workload is a frozen, hashable value object describing one complete run —
physics and material, the structured box decomposition, the Dirichlet faces
and the time-stepping schedule.  It round-trips through plain JSON
(``to_dict``/``from_dict``), validates eagerly with actionable errors, and a
small registry of named presets gives benches, CI and scripts one shared
vocabulary (``repro-bench run --workload heat-2d-quick`` consumes exactly
this serialization).

Problem assembly is cached per workload (:func:`build_problem`), so every
consumer — :class:`~repro.api.session.Session`, the bench runner, the figure
benchmarks — shares one :class:`~repro.feti.problem.FetiProblem` instance
per distinct workload.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Any

from repro.feti.problem import FetiProblem
from repro.observe.trace import trace_span

__all__ = [
    "ApiError",
    "WorkloadError",
    "Material",
    "Workload",
    "build_problem",
    "register_workload_preset",
    "workload_preset",
    "workload_presets",
    "PHYSICS",
    "SCHEMA_VERSION",
    "check_schema_version",
]


class ApiError(ValueError):
    """Base class of the actionable validation errors raised by repro.api."""


class WorkloadError(ApiError):
    """A workload failed validation or deserialization."""


#: Version stamped into every serialized ``Workload``/``SolverSpec`` dict
#: (and the serve wire envelope).  Bump when a serialized field changes
#: meaning; ``from_dict`` keeps accepting version-less legacy dicts.
SCHEMA_VERSION = 1


def check_schema_version(
    version: Any, what: str, exc: type[ApiError] = WorkloadError
) -> None:
    """Validate a serialized dict's ``schema_version`` field.

    ``None`` (a version-less legacy dict) and the current version are
    accepted; anything else is rejected with an actionable error.
    """
    if version is None or version == SCHEMA_VERSION:
        return
    raise exc(
        f"{what} has schema_version {version!r} but this library speaks "
        f"version {SCHEMA_VERSION}; re-serialize with a matching library "
        "version or drop the field to opt into legacy parsing"
    )


#: Physics identifiers accepted by :class:`Workload`.
PHYSICS = ("heat", "elasticity")

_FACES_PER_DIM = {
    2: ("xmin", "xmax", "ymin", "ymax"),
    3: ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"),
}


@dataclass(frozen=True)
class Material:
    """Material / load parameters of a workload's physics.

    Heat transfer reads ``conductivity`` and ``source``; linear elasticity
    reads ``young``, ``poisson`` and ``body_force`` (``None`` keeps the
    physics default).  Irrelevant fields are ignored by the other physics,
    so one material can be shared across a heat/elasticity sweep.
    """

    conductivity: float = 1.0
    source: float = 1.0
    young: float = 1.0
    poisson: float = 0.3
    body_force: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.body_force is not None:
            object.__setattr__(self, "body_force", tuple(float(c) for c in self.body_force))
            if len(self.body_force) not in (2, 3):
                raise WorkloadError(
                    f"material.body_force must have 2 or 3 components, got "
                    f"{len(self.body_force)}; use e.g. (0.0, -1.0) for 2D"
                )
        for name in ("conductivity", "source", "young"):
            value = getattr(self, name)
            if not value > 0.0:
                raise WorkloadError(f"material.{name} must be positive, got {value!r}")
        if not 0.0 <= self.poisson < 0.5:
            raise WorkloadError(
                f"material.poisson must lie in [0, 0.5), got {self.poisson!r} "
                "(0.5 is incompressible and makes the stiffness singular)"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation."""
        return {
            "conductivity": self.conductivity,
            "source": self.source,
            "young": self.young,
            "poisson": self.poisson,
            "body_force": None if self.body_force is None else list(self.body_force),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Material":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        return cls(**_checked_kwargs(cls, data, "material"))


def whole_int(name: str, value: Any, exc: type[ApiError] = WorkloadError) -> int:
    """Coerce to int, rejecting fractional values instead of truncating."""
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise exc(f"{name} must be an integer, got {value!r}") from None
    if as_int != value:
        raise exc(f"{name} must be a whole number, got {value!r}")
    return as_int


def _checked_kwargs(cls: type, data: Mapping[str, Any], what: str) -> dict[str, Any]:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise WorkloadError(
            f"unknown {what} field(s) {unknown}; known fields: {sorted(known)}"
        )
    return dict(data)


@dataclass(frozen=True)
class Workload:
    """One declarative, frozen run description.

    Attributes
    ----------
    physics:
        ``"heat"`` or ``"elasticity"``.
    dim:
        Spatial dimension (2 or 3).
    subdomains:
        Subdomain grid, one entry per dimension (e.g. ``(4, 4)``).
    cells:
        Grid cells per direction inside each subdomain.
    order:
        Finite-element order (1 or 2).
    n_clusters:
        Clusters (simulated MPI processes / GPUs) the subdomains are
        grouped into.
    dirichlet_faces:
        Global box faces with homogeneous Dirichlet conditions.
    steps:
        Time steps of the multi-step schedule (Algorithm 2);
        ``Session.run`` executes them with per-step FETI preprocessing.
    load_ramp:
        Per-step load scaling of the schedule: step ``s`` solves with loads
        ``(1 + load_ramp * s) * f``.  The sparsity pattern stays fixed, as
        in the paper's use case.
    material:
        Material / load parameters (see :class:`Material`).
    """

    physics: str
    dim: int
    subdomains: tuple[int, ...]
    cells: int
    order: int = 1
    n_clusters: int = 1
    dirichlet_faces: tuple[str, ...] = ("xmin",)
    steps: int = 1
    load_ramp: float = 0.0
    material: Material = field(default_factory=Material)

    def __post_init__(self) -> None:
        if self.physics not in PHYSICS:
            raise WorkloadError(
                f"unknown physics {self.physics!r}; expected one of {PHYSICS}"
            )
        if self.dim not in (2, 3):
            raise WorkloadError(f"dim must be 2 or 3, got {self.dim!r}")
        if isinstance(self.subdomains, str):
            raise WorkloadError(
                f"subdomains must be a sequence of integers like (4, 4), got "
                f"the string {self.subdomains!r}"
            )
        try:
            object.__setattr__(
                self, "subdomains", tuple(whole_int("subdomains", s) for s in self.subdomains)
            )
        except TypeError:
            raise WorkloadError(
                f"subdomains must be a sequence of integers like (4, 4), got "
                f"{self.subdomains!r}"
            ) from None
        if len(self.subdomains) != self.dim:
            raise WorkloadError(
                f"subdomain grid {self.subdomains} has {len(self.subdomains)} "
                f"entries but dim={self.dim}; give one grid extent per dimension"
            )
        if any(s < 1 for s in self.subdomains):
            raise WorkloadError(f"subdomain grid entries must be >= 1, got {self.subdomains}")
        object.__setattr__(self, "cells", whole_int("cells", self.cells))
        if self.cells < 1:
            raise WorkloadError(f"cells must be >= 1, got {self.cells!r}")
        if self.order not in (1, 2):
            raise WorkloadError(f"order must be 1 (linear) or 2 (quadratic), got {self.order!r}")
        object.__setattr__(self, "n_clusters", whole_int("n_clusters", self.n_clusters))
        if not 1 <= self.n_clusters <= self.n_subdomains:
            raise WorkloadError(
                f"n_clusters must lie in [1, n_subdomains={self.n_subdomains}], "
                f"got {self.n_clusters!r}"
            )
        if self.n_subdomains % self.n_clusters != 0:
            raise WorkloadError(
                f"n_clusters={self.n_clusters} must divide the subdomain count "
                f"({self.n_subdomains} for grid {self.subdomains}); pick a "
                "divisor or adjust the grid"
            )
        if isinstance(self.dirichlet_faces, str):
            raise WorkloadError(
                f"dirichlet_faces must be a sequence of faces like ('xmin',), "
                f"got the string {self.dirichlet_faces!r}"
            )
        object.__setattr__(self, "dirichlet_faces", tuple(self.dirichlet_faces))
        valid_faces = _FACES_PER_DIM[self.dim]
        if not self.dirichlet_faces:
            raise WorkloadError(
                "dirichlet_faces must name at least one box face "
                f"(one of {valid_faces}); a fully floating domain has no "
                "unique solution"
            )
        for face in self.dirichlet_faces:
            if face not in valid_faces:
                raise WorkloadError(
                    f"unknown Dirichlet face {face!r} for dim={self.dim}; "
                    f"valid faces: {valid_faces}"
                )
        object.__setattr__(self, "steps", whole_int("steps", self.steps))
        if self.steps < 1:
            raise WorkloadError(f"steps must be >= 1, got {self.steps!r}")
        object.__setattr__(self, "load_ramp", float(self.load_ramp))
        if self.load_ramp != self.load_ramp or self.load_ramp in (float("inf"), float("-inf")):
            raise WorkloadError(f"load_ramp must be finite, got {self.load_ramp!r}")
        if isinstance(self.material, Mapping):
            object.__setattr__(self, "material", Material.from_dict(self.material))
        elif not isinstance(self.material, Material):
            raise WorkloadError(
                f"material must be a Material or a mapping, got {type(self.material).__name__}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities                                                  #
    # ------------------------------------------------------------------ #
    @property
    def n_subdomains(self) -> int:
        """Total subdomain count of the grid."""
        n = 1
        for s in self.subdomains:
            n *= s
        return n

    def describe(self) -> str:
        """Short human-readable description."""
        grid = "x".join(str(s) for s in self.subdomains)
        text = f"{self.physics} {self.dim}D, {grid} subdomains of {self.cells} cells, order {self.order}"
        if self.steps > 1:
            text += f", {self.steps} steps"
        return text

    # ------------------------------------------------------------------ #
    # Serialization                                                       #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "physics": self.physics,
            "dim": self.dim,
            "subdomains": list(self.subdomains),
            "cells": self.cells,
            "order": self.order,
            "n_clusters": self.n_clusters,
            "dirichlet_faces": list(self.dirichlet_faces),
            "steps": self.steps,
            "load_ramp": self.load_ramp,
            "material": self.material.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Workload":
        """Build a workload from :meth:`to_dict` output (validated)."""
        if not isinstance(data, Mapping):
            raise WorkloadError(
                f"a workload must deserialize from a mapping, got {type(data).__name__}"
            )
        payload = dict(data)
        check_schema_version(payload.pop("schema_version", None), "workload")
        kwargs = _checked_kwargs(cls, payload, "workload")
        for required in ("physics", "dim", "subdomains", "cells"):
            if required not in kwargs:
                raise WorkloadError(
                    f"workload is missing the required field {required!r} "
                    "(required: physics, dim, subdomains, cells)"
                )
        return cls(**kwargs)

    def to_json(self) -> str:
        """JSON text of :meth:`to_dict`."""
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        """Inverse of :meth:`to_json`."""
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"workload JSON is not parseable: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_preset(cls, name: str) -> "Workload":
        """Look a registered preset up by name."""
        return workload_preset(name)

    def with_(self, **changes: Any) -> "Workload":
        """A validated copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Problem construction                                                #
    # ------------------------------------------------------------------ #
    def build_problem(self) -> FetiProblem:
        """The (cached) torn FETI problem of this workload."""
        return build_problem(self)


def _make_physics(workload: Workload) -> Any:
    m = workload.material
    if workload.physics == "heat":
        from repro.fem.heat import HeatTransferProblem

        return HeatTransferProblem(conductivity=m.conductivity, source=m.source)
    from repro.fem.elasticity import LinearElasticityProblem

    if m.body_force is None:
        return LinearElasticityProblem(young=m.young, poisson=m.poisson)
    return LinearElasticityProblem(young=m.young, poisson=m.poisson, body_force=m.body_force)


@lru_cache(maxsize=None)
def build_problem(workload: Workload) -> FetiProblem:
    """Assemble (and cache per workload) the torn FETI problem.

    The cache is shared process-wide: every Session, bench scenario and
    figure benchmark asking for the same workload gets the same problem
    instance.  Callers that mutate load vectors (the multi-step schedule)
    must restore them — :meth:`repro.api.session.Session.run` does.  A
    build is one ``problem_build`` span (``subdomains``, ``shapes``) around
    the decomposition and the ``gluing`` / ``assembly`` spans.
    """
    from repro.decomposition import decompose_box

    with trace_span("problem_build", subdomains=workload.n_subdomains) as span:
        decomposition = decompose_box(
            workload.dim,
            workload.subdomains,
            workload.cells,
            order=workload.order,
            n_clusters=workload.n_clusters,
        )
        if span is not None:
            span.attrs["shapes"] = len(decomposition.shape_groups())
        return FetiProblem.from_physics(
            _make_physics(workload),
            decomposition,
            dirichlet_faces=workload.dirichlet_faces,
        )


# --------------------------------------------------------------------- #
# Preset registry                                                        #
# --------------------------------------------------------------------- #
_PRESETS: dict[str, Workload] = {}


def register_workload_preset(name: str, workload: Workload) -> Workload:
    """Register a named workload preset (names must be unique)."""
    if name in _PRESETS:
        raise ValueError(f"workload preset {name!r} is already registered")
    _PRESETS[name] = workload
    return workload


def workload_preset(name: str) -> Workload:
    """Look a preset up by name (raises with the known names)."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise KeyError(
            f"unknown workload preset {name!r}; registered presets: {known}"
        ) from None


def workload_presets() -> list[str]:
    """All registered preset names (registration order)."""
    return list(_PRESETS)


def _register_defaults() -> None:
    register_workload_preset(
        "heat-2d-quick", Workload("heat", 2, (2, 2), 4)
    )
    register_workload_preset(
        "heat-3d-quick", Workload("heat", 3, (2, 2, 1), 2, dirichlet_faces=("zmin",))
    )
    register_workload_preset(
        "elasticity-2d-quick", Workload("elasticity", 2, (2, 1), 3)
    )
    register_workload_preset(
        "elasticity-3d-table2", Workload("elasticity", 3, (2, 1, 1), 2)
    )
    register_workload_preset(
        "heat-2d-multistep", Workload("heat", 2, (2, 2), 4, steps=3, load_ramp=0.5)
    )
    register_workload_preset(
        "elasticity-2d-multistep",
        Workload(
            "elasticity",
            2,
            (4, 1),
            6,
            order=2,
            steps=4,
            load_ramp=0.5,
            material=Material(young=200.0, poisson=0.3, body_force=(0.0, -1.0)),
        ),
    )


_register_defaults()
