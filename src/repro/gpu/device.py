"""The simulated GPU device.

One :class:`Device` corresponds to one physical accelerator (the paper maps
one GPU to one cluster / MPI process).  It owns

* the cost model (parameterized by the CUDA library generation),
* the persistent memory pool and — after the preparation phase — the
  temporary arena built from whatever memory is left,
* a set of streams (the paper uses 16, one per OpenMP thread),
* the host↔device transfers of sparse matrices (their sizes and costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.arrays import DeviceCsrMatrix, MatrixOrder
from repro.gpu.costmodel import CudaVersion, GpuCostModel
from repro.gpu.memory import MemoryPool, TemporaryArena
from repro.gpu.stream import Stream, StreamOperation

__all__ = ["DeviceProperties", "Device"]


@dataclass(frozen=True)
class DeviceProperties:
    """Static properties of the simulated accelerator (A100-40GB defaults)."""

    name: str = "Simulated-A100-40GB"
    memory_capacity_bytes: int = 40 * 1024**3
    default_stream_count: int = 16


@dataclass
class Device:
    """A simulated CUDA device.

    Parameters
    ----------
    properties:
        Hardware properties (memory capacity, default stream count).
    cuda_version:
        Library generation — ``legacy`` (CUDA 11.7) or ``modern`` (CUDA
        12.4); it changes sparse-kernel performance and workspace sizes.
    cost_model:
        Kernel timing model; a default A100 model is built when omitted.
    """

    properties: DeviceProperties = field(default_factory=DeviceProperties)
    cuda_version: CudaVersion = CudaVersion.MODERN
    cost_model: GpuCostModel = field(default_factory=GpuCostModel)
    keep_stream_logs: bool = False

    def __post_init__(self) -> None:
        self.memory = MemoryPool(self.properties.memory_capacity_bytes, name="device")
        self.temporary: TemporaryArena | None = None
        self._streams: list[Stream] = []

    # ------------------------------------------------------------------ #
    # Streams                                                             #
    # ------------------------------------------------------------------ #
    def create_streams(self, count: int | None = None) -> list[Stream]:
        """Create ``count`` streams (default: the device's stream count)."""
        count = self.properties.default_stream_count if count is None else int(count)
        if count < 1:
            raise ValueError("need at least one stream")
        self._streams = [Stream(index=i, keep_log=self.keep_stream_logs) for i in range(count)]
        return self._streams

    @property
    def streams(self) -> list[Stream]:
        """Streams created so far (creates the default set lazily)."""
        if not self._streams:
            self.create_streams()
        return self._streams

    def synchronize(self, cpu_time: float) -> float:
        """Device-wide synchronization; returns the new CPU time."""
        tails = [s.tail for s in self._streams] or [0.0]
        return max(cpu_time, max(tails))

    def reset_timeline(self) -> None:
        """Reset all stream timelines (between benchmark repetitions)."""
        for s in self._streams:
            s.reset()

    # ------------------------------------------------------------------ #
    # Memory                                                              #
    # ------------------------------------------------------------------ #
    def allocate_temporary_arena(self, reserve_bytes: int = 0) -> TemporaryArena:
        """Turn the remaining free memory into the temporary arena.

        Called at the end of the preparation phase ("after the loop, we
        allocate the remaining memory for the temporary memory allocator").
        """
        if self.temporary is not None:
            raise RuntimeError("the temporary arena has already been allocated")
        capacity = self.memory.free_bytes - int(reserve_bytes)
        if capacity <= 0:
            raise ValueError("no memory left for the temporary arena")
        self.memory.allocate(capacity, label="temporary-arena")
        self.temporary = TemporaryArena(capacity)
        return self.temporary

    def require_temporary(self) -> TemporaryArena:
        """The temporary arena (raises if preparation did not create it)."""
        if self.temporary is None:
            raise RuntimeError(
                "temporary arena not allocated; call allocate_temporary_arena() "
                "at the end of the preparation phase"
            )
        return self.temporary

    # ------------------------------------------------------------------ #
    # Transfers                                                           #
    # ------------------------------------------------------------------ #
    def upload_sparse(
        self,
        shape: tuple[int, int],
        nnz: int,
        stream: Stream,
        submit_time: float,
        order: MatrixOrder = MatrixOrder.ROW_MAJOR,
        pool: MemoryPool | TemporaryArena | None = None,
        label: str = "",
    ) -> tuple[DeviceCsrMatrix, StreamOperation]:
        """Copy a host sparse matrix of ``shape`` and ``nnz`` (CSR or CSC) to the device."""
        device_matrix = DeviceCsrMatrix(
            shape=(int(shape[0]), int(shape[1])), nnz=int(nnz), order=order, label=label
        )
        allocation = (pool or self.memory).allocate(device_matrix.nbytes, label=label)
        device_matrix.allocation = allocation
        op = stream.submit(
            f"h2d:{label or 'sparse'}",
            self.cost_model.transfer(device_matrix.nbytes),
            submit_time,
        )
        return device_matrix, op

    def update_sparse_values(
        self, device_matrix: DeviceCsrMatrix, stream: Stream, submit_time: float
    ) -> StreamOperation:
        """Re-upload only the numerical values of a sparse matrix.

        Used every time step for the factors: the pattern stays on the
        device, only the values are copied again.
        """
        return stream.submit(
            f"h2d-values:{device_matrix.label}",
            self.cost_model.transfer(device_matrix.values_nbytes),
            submit_time,
        )
