"""Analytic kernel cost model of the simulated GPU.

Every kernel the simulated GPU operators submit to a stream (the cuBLAS /
cuSPARSE calls of the paper's pipelines) computes nothing and charges a
simulated duration returned by this model.  The model is a roofline
(flop-limited vs bandwidth-limited) with a fixed kernel launch overhead,
with per-kernel efficiency factors chosen to reproduce the qualitative
behaviour the paper reports on an A100:

* dense TRSM / SYRK run close to peak for large matrices and are
  launch-latency bound for small ones;
* the **legacy** (CUDA 11.7) cuSPARSE TRSM uses a block algorithm and is
  reasonably fast, but needs an extra workspace of roughly the factor size
  when the factor is passed in CSC (column-major) order and an extra buffer
  of the right-hand-side size when the RHS is column-major;
* the **modern** (CUDA 12.4) generic cuSPARSE TRSM is roughly an order of
  magnitude slower and requires very large persistent buffers
  (Section V-A-b of the paper);
* GEMV/SYMV are bandwidth bound, giving the ~25× application speedup over
  the CPU for large explicit operators;
* host↔device transfers pay PCIe bandwidth plus latency.

All durations are returned in **seconds** of simulated time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["CudaVersion", "GpuCostModel"]


class CudaVersion(enum.Enum):
    """CUDA toolkit generations distinguished by the paper."""

    LEGACY = "legacy"  # CUDA 11.7, legacy cuSPARSE API
    MODERN = "modern"  # CUDA 12.4, generic cuSPARSE API


@dataclass(frozen=True)
class GpuCostModel:
    """Kernel timing model of one A100-40GB GPU.

    Attributes
    ----------
    fp64_flops_per_second:
        Peak double-precision flop rate (non-tensor-core).
    memory_bandwidth:
        HBM2 bandwidth in bytes per second.
    kernel_launch_overhead:
        Fixed device-side cost per kernel launch.
    submission_overhead_cpu:
        CPU-side cost of submitting one asynchronous operation (felt by the
        submitting thread, not the GPU).
    pcie_bandwidth, pcie_latency:
        Host↔device transfer characteristics.
    dense_efficiency:
        Fraction of peak reached by large dense level-3 kernels.
    sparse_trsm_legacy_gflops, sparse_trsm_modern_gflops:
        Effective flop rates of the triangular-solve kernels of the two
        cuSPARSE generations (the modern generic API is far slower).
    """

    fp64_flops_per_second: float = 9.7e12
    memory_bandwidth: float = 1.555e12
    kernel_launch_overhead: float = 6.0e-6
    submission_overhead_cpu: float = 3.0e-6
    pcie_bandwidth: float = 2.4e10
    pcie_latency: float = 8.0e-6
    dense_efficiency: float = 0.55
    spmm_efficiency: float = 0.10
    sparse_trsm_legacy_gflops: float = 6.0e11
    sparse_trsm_modern_gflops: float = 1.5e10
    sparse_conversion_bandwidth_factor: float = 0.5

    # ------------------------------------------------------------------ #
    # Helpers                                                             #
    # ------------------------------------------------------------------ #
    def _roofline(self, flops: float, bytes_moved: float, efficiency: float) -> float:
        compute = flops / (self.fp64_flops_per_second * efficiency)
        memory = bytes_moved / self.memory_bandwidth
        return max(compute, memory) + self.kernel_launch_overhead

    # ------------------------------------------------------------------ #
    # Transfers                                                           #
    # ------------------------------------------------------------------ #
    def transfer(self, nbytes: int) -> float:
        """Host↔device copy of ``nbytes`` bytes."""
        return nbytes / self.pcie_bandwidth + self.pcie_latency

    # ------------------------------------------------------------------ #
    # Dense kernels (cuBLAS)                                              #
    # ------------------------------------------------------------------ #
    def dense_trsm(self, n: int, nrhs: int) -> float:
        """Dense triangular solve with an ``n×n`` factor and ``nrhs`` columns."""
        flops = float(n) * n * nrhs
        bytes_moved = 8.0 * (0.5 * n * n + 2.0 * n * nrhs)
        return self._roofline(flops, bytes_moved, self.dense_efficiency)

    def syrk(self, n: int, k: int) -> float:
        """Symmetric rank-k update producing an ``n×n`` result (``k`` inner)."""
        flops = float(n) * n * k
        bytes_moved = 8.0 * (n * k + 0.5 * n * n)
        return self._roofline(flops, bytes_moved, self.dense_efficiency)

    def gemv(self, m: int, n: int) -> float:
        """Dense matrix-vector product (bandwidth bound)."""
        flops = 2.0 * m * n
        bytes_moved = 8.0 * (m * n + m + n)
        return self._roofline(flops, bytes_moved, self.dense_efficiency)

    def symv(self, n: int) -> float:
        """Symmetric matrix-vector product using one triangle."""
        flops = 2.0 * n * n
        bytes_moved = 8.0 * (0.5 * n * n + 2.0 * n)
        return self._roofline(flops, bytes_moved, self.dense_efficiency)

    # ------------------------------------------------------------------ #
    # Sparse kernels (cuSPARSE)                                           #
    # ------------------------------------------------------------------ #
    def sparse_trsm(
        self,
        factor_nnz: int,
        n: int,
        nrhs: int,
        version: CudaVersion,
        csc_factor: bool = False,
        col_major_rhs: bool = False,
    ) -> float:
        """Sparse triangular solve with ``nrhs`` dense right-hand sides.

        The legacy block algorithm is moderately efficient; the modern
        generic API is roughly ``legacy/modern`` slower.  Passing a CSC
        factor or a column-major RHS to the legacy kernel adds a conversion
        pass over the corresponding data (the workspace-size effect described
        in Section V-A-c/d shows up as extra time and extra memory, the
        latter accounted by :meth:`sparse_trsm_buffer_bytes`).
        """
        flops = 2.0 * factor_nnz * nrhs
        rate = (
            self.sparse_trsm_legacy_gflops
            if version is CudaVersion.LEGACY
            else self.sparse_trsm_modern_gflops
        )
        bytes_moved = 12.0 * factor_nnz + 16.0 * n * nrhs
        time = max(flops / rate, bytes_moved / self.memory_bandwidth)
        if version is CudaVersion.LEGACY:
            if csc_factor:
                time += 12.0 * factor_nnz / self.memory_bandwidth
            if col_major_rhs:
                time += 16.0 * n * nrhs / self.memory_bandwidth
        return time + self.kernel_launch_overhead

    def sparse_trsm_analysis(self, factor_nnz: int, version: CudaVersion) -> float:
        """Analysis phase of the sparse triangular solve (preparation)."""
        factor = 6.0 if version is CudaVersion.MODERN else 3.0
        return (
            factor * 4.0 * factor_nnz / self.memory_bandwidth
            + self.kernel_launch_overhead
        )

    def sparse_trsm_buffer_bytes(
        self,
        factor_nnz: int,
        n: int,
        nrhs: int,
        version: CudaVersion,
        csc_factor: bool = False,
        col_major_rhs: bool = False,
        persistent: bool = False,
    ) -> int:
        """Workspace bytes required by the sparse TRSM kernel.

        The modern generic API requires very large *persistent* buffers
        (about the factor plus the RHS); the legacy API only needs extra
        space when fed a CSC factor (≈ factor size) or a column-major RHS
        (≈ RHS size).
        """
        if version is CudaVersion.MODERN:
            base = 16 * factor_nnz + 8 * n * nrhs
            return int(base) if persistent else int(4 * n * nrhs)
        if persistent:
            return 0
        buf = 4 * n
        if csc_factor:
            buf += 12 * factor_nnz
        if col_major_rhs:
            buf += 8 * n * nrhs
        return int(buf)

    def spmm(self, matrix_nnz: int, nrhs: int) -> float:
        """Sparse × dense matrix product."""
        flops = 2.0 * matrix_nnz * nrhs
        bytes_moved = 12.0 * matrix_nnz + 8.0 * matrix_nnz * nrhs
        return self._roofline(flops, bytes_moved, self.spmm_efficiency)

    def spmv(self, matrix_nnz: int) -> float:
        """Sparse matrix-vector product."""
        bytes_moved = 16.0 * matrix_nnz
        return bytes_moved / self.memory_bandwidth + self.kernel_launch_overhead

    def sparse_to_dense(self, rows: int, cols: int, nnz: int) -> float:
        """Conversion of a sparse matrix to a dense one on the device."""
        bytes_moved = 8.0 * rows * cols + 12.0 * nnz
        return (
            bytes_moved
            / (self.memory_bandwidth * self.sparse_conversion_bandwidth_factor)
            + self.kernel_launch_overhead
        )

    def scatter_gather(self, n: int) -> float:
        """Device-side scatter or gather of a dual vector of length ``n``."""
        bytes_moved = 24.0 * n
        return bytes_moved / self.memory_bandwidth + self.kernel_launch_overhead
