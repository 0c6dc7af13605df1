"""The simulated cuSPARSE sparse triangular solve: analysis and workspaces.

The module sizes the sparse-TRSM workspaces of both cuSPARSE generations the
paper compares:

* the **legacy** API (CUDA 11.7) with its block triangular-solve algorithm,
  whose workspace grows when the factor is supplied in CSC order or the
  right-hand side is column-major, and
* the **modern** generic API (CUDA 12.4), whose sparse TRSM is much slower
  and requires very large persistent buffers.

The solves themselves are stream submissions with the cost model's
durations (:meth:`repro.gpu.costmodel.GpuCostModel.sparse_trsm`), each
holding :attr:`SparseTrsmPlan.temporary_bytes` of the arena while it runs.
:func:`trsm_plan` sizes a plan without allocating or submitting anything
(a cost replay sizes one per subdomain shape); :func:`trsm_analysis` runs
the analysis on a device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.arrays import DeviceCsrMatrix, MatrixOrder
from repro.gpu.costmodel import CudaVersion, GpuCostModel
from repro.gpu.device import Device
from repro.gpu.memory import Allocation, MemoryPool
from repro.gpu.stream import Stream, StreamOperation

__all__ = ["SparseTrsmPlan", "trsm_plan", "trsm_analysis"]


@dataclass
class SparseTrsmPlan:
    """Result of the sparse-TRSM analysis phase.

    Holds the persistent workspace allocation whose size depends on the CUDA
    generation and on the factor/RHS memory orders (Table I parameters).
    """

    factor_nnz: int
    n: int
    nrhs: int
    version: CudaVersion
    csc_factor: bool
    col_major_rhs: bool
    persistent_buffer: Allocation | None = None
    persistent_bytes: int = 0
    temporary_bytes: int = 0


def trsm_plan(
    model: GpuCostModel,
    version: CudaVersion,
    factor: DeviceCsrMatrix,
    nrhs: int,
    rhs_order: MatrixOrder = MatrixOrder.ROW_MAJOR,
) -> SparseTrsmPlan:
    """The plan of a sparse TRSM with ``factor`` and ``nrhs`` right-hand sides.

    Its workspace sizes only: no buffer is allocated
    (``persistent_buffer`` stays ``None``) and no analysis is submitted.
    """
    n = factor.shape[0]
    csc_factor = factor.order is MatrixOrder.COL_MAJOR
    col_major_rhs = rhs_order is MatrixOrder.COL_MAJOR
    return SparseTrsmPlan(
        factor_nnz=factor.nnz,
        n=n,
        nrhs=nrhs,
        version=version,
        csc_factor=csc_factor,
        col_major_rhs=col_major_rhs,
        persistent_bytes=model.sparse_trsm_buffer_bytes(
            factor.nnz, n, nrhs, version, csc_factor, col_major_rhs, persistent=True
        ),
        temporary_bytes=model.sparse_trsm_buffer_bytes(
            factor.nnz, n, nrhs, version, csc_factor, col_major_rhs, persistent=False
        ),
    )


def trsm_analysis(
    device: Device,
    stream: Stream,
    factor: DeviceCsrMatrix,
    nrhs: int,
    submit_time: float,
    rhs_order: MatrixOrder = MatrixOrder.ROW_MAJOR,
    pool: MemoryPool | None = None,
) -> tuple[SparseTrsmPlan, StreamOperation]:
    """Analysis phase of the sparse triangular solve (run in preparation).

    Allocates the persistent workspace the kernel needs for its lifetime.
    """
    model = device.cost_model
    plan = trsm_plan(model, device.cuda_version, factor, nrhs, rhs_order)
    if plan.persistent_bytes > 0:
        plan.persistent_buffer = (pool or device.memory).allocate(
            plan.persistent_bytes, label="cusparse-trsm-workspace"
        )
    duration = model.sparse_trsm_analysis(factor.nnz, device.cuda_version)
    op = stream.submit("cusparse.trsm_analysis", duration, submit_time)
    return plan, op
