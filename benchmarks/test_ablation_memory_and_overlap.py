"""Ablation benchmarks for the design choices called out in DESIGN.md.

* **Temporary-memory arena** — the blocking allocator reuses a bounded pool
  of device memory for the kernel-lifetime buffers; the ablation compares
  the peak temporary footprint against what unbounded per-subdomain
  allocations would need.
* **CPU–GPU overlap** — the preprocessing pipeline submits GPU work
  asynchronously while the CPU factorizes the next subdomain; the ablation
  compares the simulated elapsed time against a fully serialized execution
  (the sum of all per-operation durations).
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_utils import BENCH_MACHINE, SUBDOMAIN_SIZES, build_problem
from repro.analysis.reporting import format_table
from repro.feti.config import DualOperatorApproach
from repro.feti.operators import make_dual_operator, replay_for


def _preprocessed_operator(dim: int, cells: int):
    problem = build_problem(dim, cells)
    operator = make_dual_operator(
        DualOperatorApproach.EXPLICIT_GPU_MODERN, problem, machine_config=BENCH_MACHINE
    )
    operator.prepare()
    operator.preprocess()
    return problem, operator


def test_ablation_temporary_memory_arena(benchmark, capsys):
    rows = []
    for cells in SUBDOMAIN_SIZES[3]:
        # The arena of the replay an operator is priced from, driven
        # through its preparation and preprocessing.
        problem = build_problem(3, cells)
        replay = replay_for(
            DualOperatorApproach.EXPLICIT_GPU_MODERN, problem, BENCH_MACHINE
        )
        replay.prepare()
        replay.preprocess()
        arena = replay.machine.cluster(0).device.require_temporary()
        # Unbounded alternative: every subdomain keeps its dense RHS and dense
        # factor copy alive for the whole preprocessing phase.
        unbounded = sum(
            8 * s.ndofs * s.n_lambda + 8 * s.ndofs * s.ndofs for s in problem.subdomains
        )
        rows.append(
            [
                problem.subdomains[0].ndofs,
                f"{arena.peak_bytes / 1024:.1f} KiB",
                f"{unbounded / 1024:.1f} KiB",
                f"{unbounded / max(arena.peak_bytes, 1):.2f}x",
                arena.blocking_waits,
            ]
        )
        assert arena.peak_bytes <= unbounded
        assert arena.used_bytes == 0  # everything returned after preprocessing
    print()
    print(
        format_table(
            ["DOFs/subdomain", "arena peak", "unbounded need", "saving", "blocking waits"],
            rows,
            title="Ablation: blocking temporary-memory arena (heat 3D)",
        )
    )
    benchmark.pedantic(
        lambda: _preprocessed_operator(3, SUBDOMAIN_SIZES[3][0]), rounds=1, iterations=1
    )


def test_ablation_cpu_gpu_overlap(benchmark, capsys):
    rows = []
    for cells in SUBDOMAIN_SIZES[3]:
        problem, operator = _preprocessed_operator(3, cells)
        phase = operator.ledger.last("preprocessing")
        serialized = sum(phase.breakdown.values())
        overlap_gain = serialized / phase.simulated_seconds
        rows.append(
            [
                problem.subdomains[0].ndofs,
                f"{phase.simulated_seconds * 1e3:.3f} ms",
                f"{serialized * 1e3:.3f} ms",
                f"{overlap_gain:.2f}x",
            ]
        )
        # the pipelined execution is never slower than the serialized sum
        assert phase.simulated_seconds <= serialized * (1.0 + 1e-9)
    print()
    print(
        format_table(
            ["DOFs/subdomain", "pipelined (simulated)", "serialized sum", "overlap gain"],
            rows,
            title="Ablation: CPU-GPU overlap in the explicit assembly (heat 3D)",
        )
    )
    benchmark.pedantic(
        lambda: _preprocessed_operator(3, SUBDOMAIN_SIZES[3][0]), rounds=1, iterations=1
    )
