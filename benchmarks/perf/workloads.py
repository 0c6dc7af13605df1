"""The workloads of record.

Names and configurations are fixed: later issues quote them verbatim.  The
reason for each workload is recorded in ``BENCHMARK.json`` and the README.
Every workload uses the default tolerance (1e-9), the lumped preconditioner
and fp64 — the configuration users get.

``ops`` is the number of measured operations of a run of record, that is a
run at ``BENCHMARK.json``'s ``run_seconds``.  The count is *deterministic*
(it scales with ``--seconds`` and never with how fast the box is), so that two
runs of one commit measure the same work and ``op_s.tail`` is the same
percentile in both.  Every count of record is at least 30: below that the
tail percentile is p50 by its rule and would gate the median twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["BenchWorkload", "WORKLOADS", "MIN_OPS", "op_count"]

#: Fewest measured operations of any run (``--quick``; the tail is then p50).
MIN_OPS = 20


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark workload: a problem, a solver spec and an operation."""

    name: str
    #: ``"solve"`` (warm ``Session.solve``), ``"step"`` (one Algorithm-2 step
    #: of ``Session.run_steps``) or ``"serve"`` (one ``POST /v1/solve``).
    kind: str
    #: ``repro.api.Workload`` positional + keyword arguments.
    problem: tuple[tuple[Any, ...], dict[str, Any]]
    #: ``repro.api.SolverSpec`` keyword arguments.
    spec: dict[str, Any]
    #: Measured operations of a run of record.
    ops: int
    #: Fresh-state repetitions behind ``setup_s``.
    setup_reps: int = 3
    #: Most threads or connections the workload keeps busy at once; a box
    #: with fewer CPUs skips it (``run.py`` exits ``SKIPPED_EXIT_CODE``).
    workers: int = 1
    #: The traced pass repeats its profile on ``execution="threads:<n>"`` and
    #: reports ``runtime.*`` against the serial profile (0 = it does not).
    threaded_workers: int = 0
    #: ``repro-serve`` arguments of a ``"serve"`` workload.
    server_args: tuple[str, ...] = ()


_HEAT3D = (("heat", 3, (2, 2, 1), 12), {})

# The issue's fifth workload, ``heat3d_explicit_step_threads`` (this step on
# ``execution="threads:2"``), is left out: with it the 114 runs of the
# acceptance procedure did not fit its 3420 s on the noisy box (README,
# "Time budget").  The runtime layer keeps its per-layer numbers: the traced
# pass of ``heat3d_explicit_step`` runs the threaded profile beside the serial.

WORKLOADS: dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            name="heat2d_warm_solve",
            kind="solve",
            problem=(("heat", 2, (8, 8), 8), {"n_clusters": 4}),
            spec={"approach": "expl modern", "assembly": "table2"},
            ops=40,
            setup_reps=5,
        ),
        BenchWorkload(
            name="heat3d_explicit_step",
            kind="step",
            problem=_HEAT3D,
            spec={"approach": "expl mkl"},
            ops=40,
            threaded_workers=2,
        ),
        BenchWorkload(
            name="heat3d_implicit_step",
            kind="step",
            problem=_HEAT3D,
            spec={"approach": "impl mkl"},
            ops=30,
        ),
        BenchWorkload(
            name="serve_closed_loop",
            kind="serve",
            problem=(("heat", 2, (4, 4), 8), {"n_clusters": 2}),
            spec={"approach": "expl mkl"},
            ops=120,
            setup_reps=5,
            workers=2,
            server_args=("--port", "0", "--cache-size", "0", "--concurrency", "2"),
        ),
    )
}


def op_count(workload: BenchWorkload, seconds: float, run_seconds: float) -> int:
    """Measured operations of a ``--seconds`` run; ``workload.ops`` at ``run_seconds``."""
    return max(MIN_OPS, round(workload.ops * seconds / run_seconds))
