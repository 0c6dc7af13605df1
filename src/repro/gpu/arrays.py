"""Host/device array handles of the simulated CUDA runtime.

Device objects wrap ordinary NumPy / SciPy arrays (the numerics are exact)
together with the metadata the cost model needs: memory order, byte size and
the memory-pool allocation backing them.  The wrappers are intentionally
thin — kernels read ``.array`` / ``.matrix`` directly.  A device copy of a
Cholesky factor also keeps the host
:class:`~repro.sparse.numeric.CholeskyFactor` it mirrors (``.factor``): the
simulated sparse triangular solves run on that factor's supernode panels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.gpu.memory import Allocation

if TYPE_CHECKING:
    from repro.sparse.numeric import CholeskyFactor

__all__ = ["MatrixOrder", "DeviceVector", "DeviceDenseMatrix", "DeviceCsrMatrix"]


class MatrixOrder(enum.Enum):
    """Memory order of a dense matrix (Table I: factor order / RHS order)."""

    ROW_MAJOR = "row-major"
    COL_MAJOR = "col-major"


@dataclass
class DeviceVector:
    """A dense vector resident in simulated device memory."""

    array: np.ndarray
    allocation: Allocation | None = None
    label: str = ""

    @property
    def nbytes(self) -> int:
        """Size in bytes."""
        return int(self.array.nbytes)

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self.array.size)

    def release(self) -> None:
        """Release the backing allocation (if any)."""
        if self.allocation is not None:
            self.allocation.release()


@dataclass
class DeviceDenseMatrix:
    """A dense matrix resident in simulated device memory.

    ``order`` only affects the cost model (and the workspace sizes of the
    sparse TRSM); the stored NumPy array is always C-ordered.
    """

    array: np.ndarray
    order: MatrixOrder = MatrixOrder.COL_MAJOR
    symmetric_triangle: bool = False
    allocation: Allocation | None = None
    label: str = ""

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape."""
        return tuple(self.array.shape)  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        """Size in bytes (half for triangle-only symmetric storage)."""
        full = int(self.array.nbytes)
        return full // 2 if self.symmetric_triangle else full

    def release(self) -> None:
        """Release the backing allocation (if any)."""
        if self.allocation is not None:
            self.allocation.release()


@dataclass
class DeviceCsrMatrix:
    """A sparse matrix resident in simulated device memory.

    ``order`` distinguishes CSR (row-major) from CSC (column-major) storage,
    which is the *factor order* parameter of the assembly configuration.
    """

    matrix: sp.spmatrix
    order: MatrixOrder = MatrixOrder.ROW_MAJOR
    allocation: Allocation | None = None
    label: str = ""
    #: The host Cholesky factor whose ``L`` this matrix holds, set by every
    #: value upload (``factor=``); :func:`repro.gpu.cusparse.trsm` solves
    #: with it and refuses a matrix without one.
    factor: CholeskyFactor | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape."""
        return tuple(self.matrix.shape)  # type: ignore[return-value]

    @property
    def nnz(self) -> int:
        """Stored nonzeros."""
        return int(self.matrix.nnz)

    @property
    def nbytes(self) -> int:
        """Approximate CSR/CSC byte size (values + indices + pointers)."""
        n_major = self.shape[0] if self.order is MatrixOrder.ROW_MAJOR else self.shape[1]
        return int(12 * self.nnz + 8 * (n_major + 1))

    def release(self) -> None:
        """Release the backing allocation (if any)."""
        if self.allocation is not None:
            self.allocation.release()
