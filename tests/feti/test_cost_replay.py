"""Every simulated second and device byte of the nine approaches, pinned bitwise.

``cost_replay.json`` holds, for all nine Table-III approaches on two small
problems (plus the GPU-explicit approaches under a second Table-I setting):
the simulated seconds and breakdowns of ``prepare``, ``preprocess``,
``apply``, three one-column applies summed in column order and one
three-column ``apply_multi``, each device's pool and arena counters,
``storage_nbytes()`` and the PCPG iteration count — and the whole :func:`exhaustive_parameter_search` of both
CUDA generations on one problem.  Every value is compared with ``==``
(JSON keeps a float's ``repr``, which round-trips exactly).

The second half evaluates the cost replays alone, on a
:class:`~repro.feti.operators.replay.ShapeTable` built from the symbolic
analysis only (no factorization, no Schur assembly), and must reproduce the
same records: what an approach is charged does not depend on its numbers.

The fixture is regenerated only by a change that means to move simulated
numbers (and says so)::

    PYTHONPATH=src python -m tests.feti.test_cost_replay
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import SolverSpec
from repro.cluster.topology import MachineConfig
from repro.decomposition import decompose_box
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.feti.autotune import exhaustive_parameter_search
from repro.feti.config import (
    AssemblyConfig,
    CudaLibraryVersion,
    DualOperatorApproach,
    FactorOrder,
    FactorStorage,
    Path as AssemblyPath,
    RhsOrder,
    ScatterGatherDevice,
)
from repro.feti.operators import replay_for
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolver

FIXTURE = Path(__file__).with_name("cost_replay.json")
MACHINE = MachineConfig(threads_per_cluster=2, streams_per_cluster=2)
#: A Table-I point far from the default: both sparse triangular solves, CSC
#: factors, column-major right-hand sides, CPU scatter/gather, GEMV apply.
TRSM_SPARSE = AssemblyConfig(
    path=AssemblyPath.TRSM,
    forward_factor_storage=FactorStorage.SPARSE,
    backward_factor_storage=FactorStorage.SPARSE,
    forward_factor_order=FactorOrder.ROW_MAJOR,
    backward_factor_order=FactorOrder.COL_MAJOR,
    rhs_order=RhsOrder.COL_MAJOR,
    scatter_gather=ScatterGatherDevice.CPU,
    apply_symmetric=False,
)
GPU_EXPLICIT = (
    DualOperatorApproach.EXPLICIT_GPU_LEGACY,
    DualOperatorApproach.EXPLICIT_GPU_MODERN,
    DualOperatorApproach.EXPLICIT_HYBRID,
)
VARIANTS = [(approach, None) for approach in DualOperatorApproach] + [
    (approach, TRSM_SPARSE) for approach in GPU_EXPLICIT
]


def _problems() -> dict[str, FetiProblem]:
    heat = HeatTransferProblem(conductivity=1.0, source=1.0)
    elasticity = LinearElasticityProblem(young=1.0, poisson=0.3)
    return {
        "heat-2d": FetiProblem.from_physics(
            heat, decompose_box(2, (4, 2), 3, order=1, n_clusters=2), ("xmin",)
        ),
        "elasticity-3d": FetiProblem.from_physics(
            elasticity, decompose_box(3, (2, 1, 1), 3, order=1, n_clusters=1), ("xmin",)
        ),
    }


def _key(approach: DualOperatorApproach, assembly: AssemblyConfig | None) -> str:
    return approach.value + ("" if assembly is None else " trsm-sparse")


def _phase(phase) -> dict:
    return {"seconds": phase.simulated_seconds, "breakdown": list(phase.breakdown.items())}


def _timeline(seconds: float, breakdown: dict[str, float]) -> dict:
    return {"seconds": seconds, "breakdown": list(breakdown.items())}


def _devices(machine) -> list[dict]:
    """Pool and arena counters of every instantiated device."""
    records = []
    for cluster in machine.clusters:
        if not cluster.has_device:
            continue
        device = cluster.device
        record = {
            "pool": [
                device.memory.used_bytes,
                device.memory.peak_bytes,
                device.memory.allocation_count,
            ]
        }
        if device.temporary is not None:
            arena = device.temporary
            record["arena"] = [
                arena.capacity_bytes,
                arena.used_bytes,
                arena.peak_bytes,
                arena.allocation_count,
                arena.blocking_waits,
            ]
        records.append(record)
    return records


def operator_record(problem: FetiProblem, approach, assembly) -> dict:
    """Prepare, preprocess, solve, then one apply and a three-column block
    applied column by column (``stacked=False``) and as one ``apply_multi``.

    The preconditioner is pinned to ``lumped``: the fixture holds replay
    timings and the iteration counts they were recorded with, not the
    default preconditioner of an approach family.  The operator holds no
    machine: the device counters are those of the same problem's replay,
    driven through the phases the operator was priced from.
    """
    solver = FetiSolver(
        problem,
        SolverSpec(
            approach=approach, assembly=assembly, machine=MACHINE, preconditioner="lumped"
        ),
    )
    record = {"prepare": _phase(solver.prepare()), "preprocess": _phase(solver.preprocess())}
    solution = solver.solve(reuse_preprocessing=True)
    operator = solver.operator
    rng = np.random.default_rng(0)
    operator.apply(rng.standard_normal(problem.n_lambda))
    record["apply"] = _phase(operator.ledger.last("apply"))
    block = rng.standard_normal((problem.n_lambda, 3))
    seconds, breakdown = 0.0, {}
    for j in range(3):
        operator.apply(np.ascontiguousarray(block[:, j]))
        phase = operator.ledger.last("apply")
        seconds += phase.simulated_seconds
        for key, value in phase.breakdown.items():
            breakdown[key] = breakdown.get(key, 0.0) + value
    record["apply_multi_stacked=False"] = _timeline(seconds, breakdown)
    operator.apply_multi(block)
    record["apply_multi_stacked=True"] = _phase(operator.ledger.last("apply_multi"))
    replay = replay_for(approach, problem, MACHINE, assembly)
    replay.prepare()
    replay.preprocess()
    replay.apply()
    record["devices"] = _devices(replay.machine)
    record["storage_nbytes"] = operator.storage_nbytes()
    record["iterations"] = solution.iterations
    return record


def search_record(problem: FetiProblem) -> dict:
    """The exhaustive Table-I sweep of both CUDA generations, in ranked order."""
    return {
        library.value: [
            [m.config.describe(), m.preprocessing_seconds, m.application_seconds]
            for m in exhaustive_parameter_search(problem, library, machine_config=MACHINE)
        ]
        for library in CudaLibraryVersion
    }


def build_records() -> dict:
    problems = _problems()
    return {
        "operators": {
            name: {
                _key(approach, assembly): operator_record(problem, approach, assembly)
                for approach, assembly in VARIANTS
            }
            for name, problem in problems.items()
        },
        "exhaustive_parameter_search": search_record(problems["heat-2d"]),
    }


def _normalized(value):
    """``value`` as the fixture's JSON holds it (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def problems() -> dict[str, FetiProblem]:
    return _problems()


@pytest.mark.parametrize("name", ["heat-2d", "elasticity-3d"])
@pytest.mark.parametrize(
    "approach, assembly", VARIANTS, ids=[_key(a, c) for a, c in VARIANTS]
)
def test_operator_records_are_the_fixture(fixture, problems, name, approach, assembly):
    record = operator_record(problems[name], approach, assembly)
    assert _normalized(record) == fixture["operators"][name][_key(approach, assembly)]


def test_exhaustive_parameter_search_is_the_fixture(fixture, problems):
    record = search_record(problems["heat-2d"])
    assert _normalized(record) == fixture["exhaustive_parameter_search"]


@pytest.mark.parametrize("name", ["heat-2d", "elasticity-3d"])
@pytest.mark.parametrize(
    "approach, assembly", VARIANTS, ids=[_key(a, c) for a, c in VARIANTS]
)
def test_replays_on_the_symbolic_analysis_alone_are_the_fixture(
    fixture, problems, name, approach, assembly
):
    problem = problems[name]
    replay = replay_for(approach, problem, MACHINE, assembly)
    want = fixture["operators"][name][_key(approach, assembly)]
    assert _normalized(_timeline(*replay.prepare())) == want["prepare"]
    assert _normalized(_timeline(*replay.preprocess())) == want["preprocess"]
    assert _normalized(_timeline(*replay.apply())) == want["apply"]
    if approach.is_explicit:
        assert _normalized(_timeline(*replay.apply(3))) == want["apply_multi_stacked=True"]
    # The device holds byte sizes only: its counters are the replay's alone
    # (every arena buffer is back, so `used` is the fixture's too).
    assert _normalized(_devices(replay.machine)) == want["devices"]


def _imports(module) -> set[str]:
    """Every module and name ``module``'s source imports (at any depth)."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
            found.update(alias.name for alias in node.names)
    return found


def test_numbers_and_simulated_seconds_live_in_separate_modules():
    """The operator advances no simulated clock; the replays compute no number."""
    from repro.feti.operators import base, replay

    numeric = ("repro.sparse.solvers", "repro.runtime")
    assert not any(name.startswith(numeric) for name in _imports(replay))
    base_imports = _imports(base)
    assert not any(name.startswith("repro.gpu") for name in base_imports)
    assert "ThreadClocks" not in base_imports


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build_records(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
