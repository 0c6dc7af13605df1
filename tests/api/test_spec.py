"""Tests of the consolidated SolverSpec: coercion, validation, round-trip."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import SolverSpec, SpecError, assembly_config, solver_presets
from repro.api.workload import workload_preset
from repro.cluster.topology import MachineConfig
from repro.feti.autotune import recommend_assembly_config
from repro.feti.config import (
    AssemblyConfig,
    CudaLibraryVersion,
    DualOperatorApproach,
    FactorStorage,
    Path,
)
from repro.feti.preconditioner import PreconditionerKind

# --------------------------------------------------------------------- #
# Coercion and validation                                                #
# --------------------------------------------------------------------- #


def test_string_values_coerce_to_enums():
    spec = SolverSpec(approach="expl modern", preconditioner="dirichlet", assembly="table2")
    assert spec.approach is DualOperatorApproach.EXPLICIT_GPU_MODERN
    assert spec.preconditioner is PreconditionerKind.DIRICHLET


def test_unknown_approach_lists_valid_values():
    with pytest.raises(SpecError, match="'impl mkl'"):
        SolverSpec(approach="tpu")


def test_precision_defaults_validates_and_round_trips():
    assert SolverSpec().precision == "fp64"
    spec = SolverSpec(approach="expl mkl", precision="fp32")
    assert SolverSpec.from_dict(spec.to_dict()) == spec
    assert spec.to_dict()["precision"] == "fp32"
    with pytest.raises(SpecError, match="unknown precision"):
        SolverSpec(precision="fp16")


def test_the_deleted_refinement_policy_is_rejected_by_name():
    # Spelled in two parts: the policy's name appears nowhere in the tree
    # since its code was deleted.
    with pytest.raises(SpecError, match="expected one of: 'fp64', 'fp32'"):
        SolverSpec(precision="fp32" + "_ir")


def test_a_serialized_spec_naming_the_deleted_policy_is_rejected():
    data = SolverSpec(approach="expl mkl", precision="fp32").to_dict()
    data["precision"] = "fp32" + "_ir"
    with pytest.raises(SpecError, match="expected one of: 'fp64', 'fp32'"):
        SolverSpec.from_dict(data)


def test_precision_participates_in_spec_identity():
    base = SolverSpec(approach="expl mkl")
    fp32 = SolverSpec(approach="expl mkl", precision="fp32")
    assert base != fp32
    assert len({base, fp32, SolverSpec(approach="expl mkl")}) == 2


def test_assembly_rejected_on_approaches_that_ignore_it():
    with pytest.raises(SpecError, match="never assembles the dual"):
        SolverSpec(approach="impl mkl", assembly=AssemblyConfig())
    with pytest.raises(SpecError, match="expl legacy, expl modern, expl hybrid"):
        SolverSpec(approach="impl modern", assembly="table2")
    # Explicit CPU approaches ignore the Table-I parameters too.
    with pytest.raises(SpecError, match="silently ignored"):
        SolverSpec(approach="expl mkl", assembly="table2")


@pytest.mark.parametrize(
    ("changes", "match"),
    [
        ({"tolerance": 0.0}, "tolerance"),
        ({"max_iterations": 0}, "max_iterations"),
        ({"absolute_tolerance": -1.0}, "absolute_tolerance"),
        ({"threads_per_cluster": 0}, "threads_per_cluster"),
        ({"assembly": "table-two", "approach": "expl modern"}, "not understood"),
    ],
)
def test_numeric_validation(changes, match):
    with pytest.raises(SpecError, match=match):
        SolverSpec(**changes)


def test_numeric_fields_are_normalized_not_truncated():
    # String/float inputs normalize so equal-valued specs compare and hash
    # equal (they are Session cache keys) and round-trip through JSON.
    spec = SolverSpec(tolerance="1e-8", max_iterations=10.0, threads_per_cluster=4.0)
    assert spec.tolerance == 1e-8 and isinstance(spec.tolerance, float)
    assert spec.max_iterations == 10 and isinstance(spec.max_iterations, int)
    assert spec == SolverSpec(tolerance=1e-8, max_iterations=10, threads_per_cluster=4)
    assert SolverSpec.from_dict(spec.to_dict()) == spec
    # Fractional iteration counts are rejected, not silently truncated.
    with pytest.raises(SpecError, match="whole number"):
        SolverSpec(max_iterations=2.9)
    with pytest.raises(SpecError, match="tolerance must be a number"):
        SolverSpec(tolerance="fast")


def test_machine_and_flat_resources_are_mutually_exclusive():
    with pytest.raises(SpecError, match="not both"):
        SolverSpec(machine=MachineConfig(), threads_per_cluster=4)


def test_assembly_accepts_dict_of_string_fields():
    spec = SolverSpec(
        approach="expl modern",
        assembly={"path": "trsm", "forward_factor_storage": "sparse"},
    )
    assert isinstance(spec.assembly, AssemblyConfig)
    assert spec.assembly.path is Path.TRSM
    assert spec.assembly.forward_factor_storage is FactorStorage.SPARSE


def test_assembly_config_helper_rejects_unknown_fields():
    with pytest.raises(SpecError, match=r"unknown assembly parameter\(s\) \['pathh'\]"):
        assembly_config(pathh="trsm")
    with pytest.raises(SpecError, match="'trsm', 'syrk'"):
        assembly_config(path="cholesky")


# --------------------------------------------------------------------- #
# Wiring helpers                                                         #
# --------------------------------------------------------------------- #


def test_machine_config_resolution():
    assert SolverSpec().machine_config() is None
    cfg = SolverSpec(threads_per_cluster=4).machine_config()
    assert cfg.threads_per_cluster == 4
    assert cfg.streams_per_cluster == MachineConfig().streams_per_cluster
    machine = MachineConfig(threads_per_cluster=2, streams_per_cluster=2)
    assert SolverSpec(machine=machine).machine_config() is machine


def test_spec_carries_all_pcpg_tolerances():
    spec = SolverSpec(tolerance=1e-7, max_iterations=42, absolute_tolerance=1e-20)
    assert spec.tolerance == 1e-7
    assert spec.max_iterations == 42
    assert spec.absolute_tolerance == 1e-20


def test_table2_assembly_resolves_per_problem():
    problem = workload_preset("heat-2d-quick").build_problem()
    spec = SolverSpec(approach="expl legacy", assembly="table2")
    resolved = spec.resolve_assembly(problem)
    expected = recommend_assembly_config(
        cuda_library=CudaLibraryVersion.LEGACY,
        dim=2,
        dofs_per_subdomain=problem.subdomains[0].ndofs,
    )
    assert resolved == expected
    # None stays None: the operator's default parameters.
    assert SolverSpec(approach="expl legacy").resolve_assembly(problem) is None


# --------------------------------------------------------------------- #
# Serialization and presets                                              #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", solver_presets())
def test_every_spec_preset_round_trips(name):
    spec = SolverSpec.from_preset(name)
    assert SolverSpec.from_dict(spec.to_dict()) == spec


def test_round_trip_with_explicit_assembly_config():
    spec = SolverSpec(
        approach="expl modern",
        assembly=assembly_config(path="trsm", rhs_order="col-major"),
        tolerance=1e-8,
        threads_per_cluster=4,
    )
    assert SolverSpec.from_dict(spec.to_dict()) == spec


def test_machine_escape_hatch_is_not_serializable():
    with pytest.raises(SpecError, match="not JSON-serializable"):
        SolverSpec(machine=MachineConfig()).to_dict()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(SpecError, match=r"unknown solver-spec field\(s\)"):
        SolverSpec.from_dict({"approachh": "impl mkl"})


@pytest.mark.parametrize(
    "field, value", [("batched", False), ("blocked", True), ("coarse", "dense")]
)
def test_removed_options_are_unknown_fields(field, value):
    """One apply path, one sparse path, one coarse problem: 12 fields."""
    with pytest.raises(SpecError, match=rf"unknown solver-spec field\(s\) \['{field}'\]"):
        SolverSpec.from_dict({"approach": "expl mkl", field: value})
    with pytest.raises(TypeError, match=field):
        SolverSpec(**{field: value})
    assert field not in SolverSpec().to_dict()
    assert len(dataclasses.fields(SolverSpec)) == 12


def test_spec_serialization_is_schema_versioned():
    from repro.api import SCHEMA_VERSION

    data = SolverSpec().to_dict()
    assert data["schema_version"] == SCHEMA_VERSION
    # Versionless legacy dicts stay accepted.
    del data["schema_version"]
    assert SolverSpec.from_dict(data) == SolverSpec()
    # Unknown versions are rejected with an actionable error.
    data["schema_version"] = 999
    with pytest.raises(SpecError, match="schema_version 999.*this library speaks"):
        SolverSpec.from_dict(data)


def test_unknown_preset_lists_known_names():
    with pytest.raises(KeyError, match="gpu-modern"):
        SolverSpec.from_preset("warp-drive")


def test_preset_overrides():
    spec = SolverSpec.from_preset("gpu-modern", tolerance=1e-6)
    assert spec.approach is DualOperatorApproach.EXPLICIT_GPU_MODERN
    assert spec.assembly == "table2"
    assert spec.tolerance == 1e-6


def test_of_normalizes_none_presets_and_specs():
    assert SolverSpec.of(None) == SolverSpec()
    assert SolverSpec.of("cpu-explicit").approach is DualOperatorApproach.EXPLICIT_MKL
    spec = SolverSpec(tolerance=1e-7)
    assert SolverSpec.of(spec) is spec
    with pytest.raises(TypeError, match="expected a SolverSpec"):
        SolverSpec.of(42)  # type: ignore[arg-type]


# --------------------------------------------------------------------- #
# Legacy shim removal (PR 6)                                             #
# --------------------------------------------------------------------- #


def test_legacy_option_shims_are_gone():
    """The PR-4 deprecation timeline removed the shims in PR 6."""
    import repro
    import repro.feti.pcpg
    import repro.feti.solver

    with pytest.raises(ImportError):
        from repro.feti.solver import FetiSolverOptions  # noqa: F401
    with pytest.raises(ImportError):
        from repro.feti.pcpg import PcpgOptions  # noqa: F401
    with pytest.raises(AttributeError):
        repro.FetiSolverOptions
    with pytest.raises(AttributeError):
        repro.PcpgOptions


def test_feti_solver_accepts_spec_and_preset_names():
    from repro.feti.solver import FetiSolver

    problem = workload_preset("heat-2d-quick").build_problem()
    solver = FetiSolver(problem, SolverSpec(approach="expl mkl"))
    assert solver.spec.approach is DualOperatorApproach.EXPLICIT_MKL
    by_name = FetiSolver(problem, "cpu-explicit")
    assert by_name.spec.approach is DualOperatorApproach.EXPLICIT_MKL
    with pytest.raises(TypeError, match="expected a SolverSpec"):
        FetiSolver(problem, 3.14)  # type: ignore[arg-type]


class TestExecutionField:
    """The runtime execution backend carried by the spec (PR 5)."""

    def test_default_is_unset_and_means_serial(self):
        from repro.feti.solver import FetiSolver

        problem = workload_preset("heat-2d-quick").build_problem()
        assert SolverSpec().execution is None
        assert FetiSolver(problem, SolverSpec()).operator.workers == 1
        assert FetiSolver(problem, SolverSpec(execution="threads:3")).operator.workers == 3

    def test_strings_and_dicts_coerce(self):
        from repro.runtime.executor import ExecutionSpec

        assert SolverSpec(execution="threads:4").execution == ExecutionSpec(
            "threads", 4
        )
        assert SolverSpec(
            execution={"backend": "threads", "workers": 2}
        ).execution == ExecutionSpec("threads", 2)

    def test_invalid_worker_counts_fail_at_construction(self):
        with pytest.raises(SpecError, match="zero or negative"):
            SolverSpec(execution="threads:0")
        with pytest.raises(SpecError, match="zero or negative"):
            SolverSpec(execution={"backend": "threads", "workers": -2})

    @pytest.mark.parametrize("execution", ["gpu:2", "processes", "processes:2"])
    def test_unknown_backend_fails_actionably(self, execution):
        with pytest.raises(SpecError, match="serial, threads"):
            SolverSpec(execution=execution)
        with pytest.raises(SpecError, match="serial, threads"):
            SolverSpec.from_dict({"execution": execution})

    def test_json_round_trip_preserves_execution(self):
        spec = SolverSpec(execution="threads:2")
        data = spec.to_dict()
        assert data["execution"] == {"backend": "threads", "workers": 2}
        assert SolverSpec.from_dict(data) == spec
        assert SolverSpec.from_dict(SolverSpec().to_dict()).execution is None

    def test_execution_participates_in_spec_identity(self):
        assert SolverSpec(execution="threads:2") != SolverSpec()
        assert hash(SolverSpec(execution="threads:2")) == hash(
            SolverSpec(execution="threads:2")
        )
