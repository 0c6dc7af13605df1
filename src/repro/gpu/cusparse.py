"""Simulated cuSPARSE kernels (sparse BLAS on the device).

The module models both cuSPARSE generations the paper compares:

* the **legacy** API (CUDA 11.7) with its block triangular-solve algorithm,
  whose workspace grows when the factor is supplied in CSC order or the
  right-hand side is column-major, and
* the **modern** generic API (CUDA 12.4), whose sparse TRSM is much slower
  and requires very large persistent buffers.

As with :mod:`repro.gpu.cublas`, every function computes exact numerics and
submits one operation with an analytic duration to the given stream.  The
sparse triangular solves do not re-derive the factor from the device copy's
CSR values: like the paper, which copies CHOLMOD's ``L`` to the device, they
solve with the host :class:`~repro.sparse.numeric.CholeskyFactor` the copy
mirrors (``DeviceCsrMatrix.factor``), on its supernode panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.arrays import DeviceCsrMatrix, DeviceDenseMatrix, DeviceVector, MatrixOrder
from repro.gpu.costmodel import CudaVersion
from repro.gpu.device import Device
from repro.gpu.memory import Allocation, MemoryPool, TemporaryArena
from repro.gpu.stream import Stream, StreamOperation
from repro.sparse.triangular import sparse_trsm_lower, sparse_trsm_upper

__all__ = [
    "SparseTrsmPlan",
    "trsm_analysis",
    "trsm",
    "spmm",
    "spmv",
    "sparse_to_dense",
    "scatter",
    "gather",
]


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

    def release(self) -> None:
        """Release the persistent workspace."""
        if self.persistent_buffer is not None:
            self.persistent_buffer.release()


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
    version = device.cuda_version
    n = factor.shape[0]
    csc_factor = factor.order is MatrixOrder.COL_MAJOR
    col_major_rhs = rhs_order is MatrixOrder.COL_MAJOR
    persistent_bytes = model.sparse_trsm_buffer_bytes(
        factor.nnz, n, nrhs, version, csc_factor, col_major_rhs, persistent=True
    )
    temporary_bytes = model.sparse_trsm_buffer_bytes(
        factor.nnz, n, nrhs, version, csc_factor, col_major_rhs, persistent=False
    )
    allocation = None
    if persistent_bytes > 0:
        allocation = (pool or device.memory).allocate(
            persistent_bytes, label="cusparse-trsm-workspace"
        )
    duration = model.sparse_trsm_analysis(factor.nnz, version)
    op = stream.submit("cusparse.trsm_analysis", duration, submit_time)
    plan = SparseTrsmPlan(
        factor_nnz=factor.nnz,
        n=n,
        nrhs=nrhs,
        version=version,
        csc_factor=csc_factor,
        col_major_rhs=col_major_rhs,
        persistent_buffer=allocation,
        persistent_bytes=persistent_bytes,
        temporary_bytes=temporary_bytes,
    )
    return plan, op


def trsm(
    device: Device,
    stream: Stream,
    plan: SparseTrsmPlan,
    factor: DeviceCsrMatrix,
    rhs: DeviceDenseMatrix,
    submit_time: float,
    transpose: bool = False,
    arena: TemporaryArena | None = None,
) -> StreamOperation:
    """Sparse triangular solve ``op(L) X = B`` performed in place on ``rhs``.

    ``factor`` is the device copy of a Cholesky factor ``L`` (permuted
    ordering, as is ``rhs``); ``transpose=True`` solves with ``Lᵀ``.  The
    numerics run on the host factor it mirrors.  A temporary workspace is
    taken from the arena for the duration of the kernel (blocking if
    necessary), mirroring the paper's temporary-memory allocator usage.

    Raises
    ------
    ValueError
        If ``factor`` carries no host factor (it was uploaded or updated
        without ``factor=``).
    """
    if factor.factor is None:
        raise ValueError(
            f"device matrix {factor.label or '<unlabelled>'} mirrors no host "
            "CholeskyFactor; upload it with factor="
        )
    workspace = None
    if arena is not None and plan.temporary_bytes > 0:
        workspace = arena.allocate(plan.temporary_bytes, label="cusparse-trsm-buffer")
    solve = sparse_trsm_upper if transpose else sparse_trsm_lower
    rhs.array[...] = solve(factor.factor, rhs.array)
    n, nrhs = rhs.shape
    duration = device.cost_model.sparse_trsm(
        plan.factor_nnz, n, nrhs, plan.version, plan.csc_factor, plan.col_major_rhs
    )
    op = stream.submit("cusparse.trsm", duration, submit_time)
    if workspace is not None:
        workspace.release()
    return op


def spmm(
    device: Device,
    stream: Stream,
    a: DeviceCsrMatrix,
    b: DeviceDenseMatrix,
    out: DeviceDenseMatrix,
    submit_time: float,
) -> StreamOperation:
    """Sparse × dense product ``out = A B``."""
    out.array[...] = a.matrix @ b.array
    duration = device.cost_model.spmm(a.nnz, b.shape[1])
    return stream.submit("cusparse.spmm", duration, submit_time)


def spmv(
    device: Device,
    stream: Stream,
    a: DeviceCsrMatrix,
    x: DeviceVector,
    y: DeviceVector,
    submit_time: float,
    transpose: bool = False,
) -> StreamOperation:
    """Sparse matrix-vector product ``y = op(A) x``."""
    mat = a.matrix.T if transpose else a.matrix
    y.array[...] = mat @ x.array
    duration = device.cost_model.spmv(a.nnz)
    return stream.submit("cusparse.spmv", duration, submit_time)


def sparse_to_dense(
    device: Device,
    stream: Stream,
    a: DeviceCsrMatrix,
    out: DeviceDenseMatrix,
    submit_time: float,
    transpose: bool = False,
) -> StreamOperation:
    """Convert a sparse device matrix to dense storage on the device."""
    dense = np.asarray(a.matrix.todense(), dtype=float)
    out.array[...] = dense.T if transpose else dense
    rows, cols = out.shape
    duration = device.cost_model.sparse_to_dense(rows, cols, a.nnz)
    return stream.submit("cusparse.sparse_to_dense", duration, submit_time)


def scatter(
    device: Device,
    stream: Stream,
    cluster_vector: DeviceVector,
    indices: np.ndarray,
    out: DeviceVector,
    submit_time: float,
) -> StreamOperation:
    """Device-side scatter of the cluster dual vector into a subdomain vector."""
    out.array[...] = cluster_vector.array[indices]
    duration = device.cost_model.scatter_gather(indices.size)
    return stream.submit("gpu.scatter", duration, submit_time)


def gather(
    device: Device,
    stream: Stream,
    subdomain_vector: DeviceVector,
    indices: np.ndarray,
    cluster_vector: DeviceVector,
    submit_time: float,
    accumulate: bool = True,
) -> StreamOperation:
    """Device-side gather (additive by default) into the cluster dual vector."""
    if accumulate:
        np.add.at(cluster_vector.array, indices, subdomain_vector.array)
    else:
        cluster_vector.array[indices] = subdomain_vector.array
    duration = device.cost_model.scatter_gather(indices.size)
    return stream.submit("gpu.gather", duration, submit_time)
