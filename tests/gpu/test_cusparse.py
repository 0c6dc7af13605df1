"""Tests of the simulated cuSPARSE triangular-solve analysis and its workspaces."""

from __future__ import annotations

import pytest

from repro.api import Session, SolverSpec, Workload
from repro.feti.config import FactorStorage
from repro.gpu import CudaVersion, Device, DeviceProperties, MatrixOrder, cusparse


@pytest.fixture(params=[CudaVersion.LEGACY, CudaVersion.MODERN])
def device(request):
    dev = Device(
        properties=DeviceProperties(memory_capacity_bytes=64 * 1024**2),
        cuda_version=request.param,
    )
    dev.create_streams(2)
    return dev


def test_trsm_analysis_sizes_and_allocates_the_workspaces(device):
    stream = device.streams[0]
    dL, _ = device.upload_sparse((30, 30), 120, stream, 0.0, label="L")
    used = device.memory.used_bytes
    plan, op = cusparse.trsm_analysis(device, stream, dL, nrhs=5, submit_time=0.0)
    model = device.cost_model
    assert op.name == "cusparse.trsm_analysis"
    assert op.duration > 0
    assert (plan.factor_nnz, plan.n, plan.nrhs) == (120, 30, 5)
    for persistent, nbytes in ((True, plan.persistent_bytes), (False, plan.temporary_bytes)):
        assert nbytes == model.sparse_trsm_buffer_bytes(
            120, 30, 5, device.cuda_version, False, False, persistent=persistent
        )
    if device.cuda_version is CudaVersion.MODERN:
        assert plan.persistent_bytes > 0
        assert device.memory.used_bytes == used + plan.persistent_buffer.nbytes
        plan.persistent_buffer.release()
    else:
        assert plan.persistent_buffer is None
    assert device.memory.used_bytes == used


def test_csc_factor_order_changes_plan_requirements():
    device = Device(cuda_version=CudaVersion.LEGACY)
    stream = device.create_streams(1)[0]
    d_csr, _ = device.upload_sparse((30, 30), 150, stream, 0.0, order=MatrixOrder.ROW_MAJOR)
    d_csc, _ = device.upload_sparse((30, 30), 150, stream, 0.0, order=MatrixOrder.COL_MAJOR)
    plan_csr, _ = cusparse.trsm_analysis(device, stream, d_csr, 8, 0.0)
    plan_csc, _ = cusparse.trsm_analysis(device, stream, d_csc, 8, 0.0)
    assert plan_csc.temporary_bytes > plan_csr.temporary_bytes
    plan_col_rhs, _ = cusparse.trsm_analysis(
        device, stream, d_csr, 8, 0.0, rhs_order=MatrixOrder.COL_MAJOR
    )
    assert plan_col_rhs.temporary_bytes > plan_csr.temporary_bytes


def test_the_sparse_assembly_holds_its_trsm_workspace_only_while_it_runs():
    """Each TRSM takes its plan's temporary bytes from the arena and returns them."""
    spec = SolverSpec(approach="expl legacy", assembly="table2", execution="serial")
    workload = Workload("heat", 2, (2, 2), 4)
    with Session(spec, memory_budget="unlimited") as session:
        assert session.solve(workload).converged
        operator = session.operator_for(workload)
    # 2-D table2 under the legacy API assembles through the sparse TRSMs.
    assert operator.config.forward_factor_storage is FactorStorage.SPARSE
    for cluster, subs in operator.iter_clusters():
        arena = cluster.device.require_temporary()
        assert arena.used_bytes == 0
        assert arena.peak_bytes >= max(
            8 * s.ndofs * s.n_lambda
            + operator.replay.device_state[s.index].forward_plan.temporary_bytes
            for s in subs
        )
