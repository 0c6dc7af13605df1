"""Simulated CUDA runtime: a cost-and-memory model.

The paper assembles and applies the explicit local dual operators on NVIDIA
A100 GPUs through cuBLAS and cuSPARSE.  No GPU is available in this
environment, so this package provides a *discrete-event simulated* CUDA
runtime with the same structure.  It holds byte sizes, not arrays: every
number of the FETI solver comes from one of the dual operator's two CPU
numeric paths, and the three GPU cost replays of
:mod:`repro.feti.operators.replay` (GPU explicit, GPU implicit, hybrid)
submit their kernels here for the simulated seconds and device memory only.

* :mod:`repro.gpu.device` — the device with A100-like properties and a CUDA
  toolkit "version" (legacy 11.7 / modern 12.4) that changes the behaviour
  of the sparse kernels exactly as described in the paper;
* :mod:`repro.gpu.memory` — a persistent memory pool plus the blocking
  temporary-arena allocator of Section IV-A;
* :mod:`repro.gpu.stream` — streams with simulated timelines (asynchronous
  submission, copy/compute overlap, CPU–GPU overlap);
* :mod:`repro.gpu.arrays` — the sparse device-matrix handle (shape, nonzeros,
  memory order and its allocation);
* :mod:`repro.gpu.cusparse` — the sparse-TRSM analysis and the persistent /
  temporary workspaces it sizes;
* :mod:`repro.gpu.costmodel` — the kernel timing model (flops, bytes,
  launch overhead, PCIe transfers) for both CUDA library versions.
"""

from repro.gpu.costmodel import CudaVersion, GpuCostModel
from repro.gpu.device import Device, DeviceProperties
from repro.gpu.memory import AllocationError, MemoryPool, TemporaryArena
from repro.gpu.stream import Stream
from repro.gpu.arrays import DeviceCsrMatrix, MatrixOrder
from repro.gpu import cusparse

__all__ = [
    "CudaVersion",
    "GpuCostModel",
    "Device",
    "DeviceProperties",
    "AllocationError",
    "MemoryPool",
    "TemporaryArena",
    "Stream",
    "DeviceCsrMatrix",
    "MatrixOrder",
    "cusparse",
]
