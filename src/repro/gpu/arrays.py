"""Device matrix handles of the simulated CUDA runtime.

A device matrix is what the cost model needs of it — shape, nonzeros,
memory order and the memory-pool allocation backing it — never its values:
the simulated GPU holds byte sizes, not arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gpu.memory import Allocation

__all__ = ["MatrixOrder", "DeviceCsrMatrix"]


class MatrixOrder(enum.Enum):
    """Memory order of a dense matrix (Table I: factor order / RHS order)."""

    ROW_MAJOR = "row-major"
    COL_MAJOR = "col-major"


@dataclass
class DeviceCsrMatrix:
    """A sparse matrix resident in simulated device memory.

    ``order`` distinguishes CSR (row-major) from CSC (column-major) storage,
    which is the *factor order* parameter of the assembly configuration.
    """

    shape: tuple[int, int]
    nnz: int
    order: MatrixOrder = MatrixOrder.ROW_MAJOR
    allocation: Allocation | None = None
    label: str = ""

    @property
    def nbytes(self) -> int:
        """Approximate CSR/CSC byte size (values + indices + pointers)."""
        n_major = self.shape[0] if self.order is MatrixOrder.ROW_MAJOR else self.shape[1]
        return int(12 * self.nnz + 8 * (n_major + 1))

    @property
    def values_nbytes(self) -> int:
        """Bytes of the numerical values alone (what a value update copies)."""
        return 8 * self.nnz
