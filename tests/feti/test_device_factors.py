"""The GPU approaches solve with the CPU factors the paper copies to the device.

Like the paper, which factors ``Kᵢ`` with CHOLMOD on the CPU and copies that
``L`` to the device, the simulated GPU operators never re-derive a factor:
their device copy of ``L`` is a byte size, and the implicit GPU apply is the
CPU implicit apply's stacked ``K⁺`` sweep over the very same factors — so
its results are bitwise those of ``impl cholmod``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload

WORKLOADS = [
    pytest.param(Workload("heat", 2, (4, 4), 8), id="heat-2d"),
    pytest.param(Workload("heat", 3, (2, 2, 1), 4), id="heat-3d"),
]


@pytest.mark.parametrize("approach", ["impl legacy", "impl modern"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_gpu_implicit_apply_is_the_cpu_implicit_apply_bitwise(workload, approach):
    session = Session()
    x = np.random.default_rng(3).standard_normal(session.problem(workload).n_lambda)
    # The reference apply runs before the second solve: a memory budget may
    # release the cold entry once the GPU one is active.
    reference = session.solve(workload, SolverSpec(approach="impl cholmod"))
    q_reference = session.operator_for(workload, SolverSpec(approach="impl cholmod")).apply(x)
    solution = session.solve(workload, SolverSpec(approach=approach))
    q = session.operator_for(workload, SolverSpec(approach=approach)).apply(x)
    assert np.array_equal(q, q_reference)
    assert solution.iterations == reference.iterations
    assert np.array_equal(solution.lam, reference.lam)
