"""The cost replays at size are bitwise their per-subdomain oracle.

``test_cost_replay.py`` pins every simulated number of two small problems.
Here the shape groups have many members, and every one of its variants
(the nine approaches plus the GPU-explicit ones on a TRSM/sparse/CPU-scatter
config) runs through both the production replay, which prices each shape
group once and replays the subdomain loop on plain floats, and
``tests/oracles/replay.py``, which submits one stream operation and takes
one allocation per subdomain and kernel.  They must agree bitwise on the
seconds and the breakdown items (in order) of ``prepare``, ``preprocess``,
``apply(1)`` and ``apply(3)``, on each device's pool and arena counters
after each phase, on every subdomain's device-state byte sizes and — with
every stream keeping its log — on every stream's operations.

Three setups: heat 2D ``(8,8)x8`` on four clusters under the default
machine (16 threads, 16 streams), the same problem on three threads and two
streams (deep chains, threads ≠ streams), and elasticity 3D ``(3,3,3)x4``
(several patterns).  The whole ``exhaustive_parameter_search`` of the heat
problem is compared too, and a pool too small for a problem still fails its
preparation with :class:`~repro.gpu.memory.AllocationError`.
"""

from __future__ import annotations

import dataclasses
from functools import cache

import pytest

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.cluster.topology import MachineConfig
from repro.feti.autotune import _iter_configs, exhaustive_parameter_search
from repro.feti.config import CudaLibraryVersion, DualOperatorApproach
from repro.feti.operators import replay_for
from repro.gpu.memory import AllocationError

from tests.feti.test_cost_replay import VARIANTS, _devices, _key
from tests.oracles.replay import oracle_replay_for

HEAT = Workload("heat", 2, (8, 8), 8, n_clusters=4)
SETUPS = {
    "heat2d-8x8x8-c4": (HEAT, MachineConfig()),
    "heat2d-8x8x8-c4-t3s2": (HEAT, MachineConfig(threads_per_cluster=3, streams_per_cluster=2)),
    "elasticity3d-3x3x3x4": (Workload("elasticity", 3, (3, 3, 3), 4), MachineConfig()),
}


@cache
def _problem(workload: Workload):
    return build_problem(workload)


def _bytes(value):
    """The byte sizes of one device structure (a matrix, a plan or a buffer)."""
    if value is None or isinstance(value, int | bool | str | tuple):
        return value
    if hasattr(value, "value"):  # an enum
        return value.value
    return {
        f.name: _bytes(getattr(value, f.name))
        for f in dataclasses.fields(value)
        if f.name not in ("label", "pool", "released")
    }


def _device_states(replay) -> list:
    states = getattr(replay, "device_state", None)
    if states is None:
        return []
    return [(index, _bytes(state)) for index, state in sorted(states.items())]


def _streams(replay) -> list:
    return [
        (list(stream.operations), stream.tail)
        for cluster in replay.machine.clusters
        if cluster.has_device
        for stream in cluster.streams
    ]


def _record(replay, logs: bool) -> dict:
    """Every phase's timeline and counters (and stream logs), then the device states."""
    if logs:
        for cluster in replay.machine.clusters:
            for stream in cluster.streams:
                stream.keep_log = True
    record = {}
    for phase, run in (
        ("prepare", replay.prepare),
        ("preprocess", replay.preprocess),
        ("apply", replay.apply),
        ("apply(3)", lambda: replay.apply(3)),
    ):
        seconds, breakdown = run()
        record[phase] = (seconds, list(breakdown.items()), _devices(replay.machine))
        if logs:
            record[phase + " streams"] = _streams(replay)
    record["device_state"] = _device_states(replay)
    return record


@pytest.mark.parametrize("logs", [False, True], ids=["counters", "stream-logs"])
@pytest.mark.parametrize("approach, assembly", VARIANTS, ids=[_key(a, c) for a, c in VARIANTS])
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_replays_are_bitwise_the_per_subdomain_oracle(setup, approach, assembly, logs):
    workload, machine = SETUPS[setup]
    problem = _problem(workload)
    replay = replay_for(approach, problem, machine, assembly)
    oracle = oracle_replay_for(approach, problem, machine, assembly)
    got, want = _record(replay, logs), _record(oracle, logs)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def test_the_setups_price_groups_of_many_members():
    """Each setup has fewer shape groups than subdomains per cluster."""
    for workload, machine in SETUPS.values():
        problem = _problem(workload)
        replay = replay_for(DualOperatorApproach.EXPLICIT_GPU_MODERN, problem, machine)
        shapes = replay.shapes
        assert len(shapes.shapes) < len(shapes.members(0)) // 2


@pytest.mark.parametrize("library", list(CudaLibraryVersion), ids=lambda v: v.value)
def test_exhaustive_parameter_search_is_the_oracles(library):
    problem = _problem(HEAT)
    approach = (
        DualOperatorApproach.EXPLICIT_GPU_LEGACY
        if library is CudaLibraryVersion.LEGACY
        else DualOperatorApproach.EXPLICIT_GPU_MODERN
    )
    got = {
        m.config.describe(): (m.preprocessing_seconds, m.application_seconds)
        for m in exhaustive_parameter_search(problem, library)
    }
    want = {}
    shapes = None
    for config in _iter_configs():
        oracle = oracle_replay_for(approach, problem, None, config, shapes)
        shapes = oracle.shapes
        oracle.prepare()
        want[config.describe()] = (oracle.preprocess()[0], oracle.apply()[0])
    assert got == want


def test_a_pool_too_small_fails_the_preparation_and_the_session_goes_on():
    small = Workload("heat", 2, (2, 2), 4)
    machine = MachineConfig(gpu_memory_bytes=64 * 1024)
    spec = SolverSpec(approach="expl modern", assembly="table2", machine=machine)
    with Session(spec, memory_budget="unlimited") as session:
        with pytest.raises(AllocationError):
            session.solve(HEAT)
        solution = session.solve(small)
    assert solution.converged
    with Session(spec, memory_budget="unlimited") as fresh:
        reference = fresh.solve(small)
    assert solution.iterations == reference.iterations
    assert (solution.lam == reference.lam).all()
