"""Precision policies for factor storage: fp64, fp32 and fp32 + refinement.

Storing the triangular factors (the band of ``L`` the factorization
produces and every solve reads) and the packed
``F̃ᵢ`` dual-operator blocks in single precision halves the resident
bytes of a prepared solver — the classic mixed-precision direct-solver play.
The numeric factorization always runs in fp64; a policy then *demotes* the
stored arrays to fp32, and every downstream kernel upcasts on use
(``float32 @ float64`` promotes to ``float64``; the banded solve up-casts
the band it hands to BLAS), so no compute path ever needs a second code
variant.

Three named policies exist:

* ``fp64`` — the double-precision reference: nothing is demoted.
* ``fp32`` — factors and packs stored in fp32; solves carry the ~1e-7
  relative rounding of the stored entries.
* ``fp32_ir`` — fp32 storage plus **iterative refinement**: the original
  fp64 matrix is retained for residual computation, local solves refine
  ``K x = b`` with the fp32 factor as the inner solver, and the PCPG loop
  wraps the fp32 operator in an outer defect correction — recovering
  fp64-level dual residuals from half-size factor storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrecisionPolicy",
    "PRECISIONS",
    "PRECISION_NAMES",
    "resolve_precision",
    "demote_factor",
    "demote_array",
    "factor_nbytes",
]


@dataclass(frozen=True)
class PrecisionPolicy:
    """How a prepared solver stores its factors and dense packs.

    Attributes
    ----------
    name:
        Registry key (the value of ``SolverSpec.precision``).
    storage_dtype:
        NumPy dtype of the *stored* factor values and packed blocks; the
        factorization itself always runs in fp64.
    refine:
        Whether solves recover fp64-level accuracy by iterative refinement
        (requires retaining the original matrix for residual computation).
    refine_steps:
        Maximum refinement sweeps of one local ``K x = b`` solve.
    dual_refine_rounds:
        Maximum outer defect-correction rounds wrapped around the PCPG
        solve (each round re-solves the projected residual system with the
        cheap fp32 operator).
    """

    name: str
    storage_dtype: np.dtype
    refine: bool = False
    refine_steps: int = 0
    dual_refine_rounds: int = 0

    @property
    def demotes(self) -> bool:
        """Whether this policy stores factors below fp64."""
        return self.storage_dtype != np.dtype(np.float64)


PRECISIONS: dict[str, PrecisionPolicy] = {
    "fp64": PrecisionPolicy(name="fp64", storage_dtype=np.dtype(np.float64)),
    "fp32": PrecisionPolicy(name="fp32", storage_dtype=np.dtype(np.float32)),
    "fp32_ir": PrecisionPolicy(
        name="fp32_ir",
        storage_dtype=np.dtype(np.float32),
        refine=True,
        refine_steps=3,
        dual_refine_rounds=3,
    ),
}

PRECISION_NAMES: tuple[str, ...] = tuple(PRECISIONS)


def resolve_precision(precision: str | PrecisionPolicy | None) -> PrecisionPolicy:
    """Resolve a policy name (or pass a policy through); ``None`` is fp64."""
    if precision is None:
        return PRECISIONS["fp64"]
    if isinstance(precision, PrecisionPolicy):
        return precision
    try:
        return PRECISIONS[precision]
    except KeyError:
        known = ", ".join(PRECISION_NAMES)
        raise ValueError(
            f"unknown precision {precision!r}; known policies: {known}"
        ) from None


def demote_array(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Cast an array to the storage dtype (no copy when already there)."""
    if array.dtype == dtype:
        return array
    return np.ascontiguousarray(array, dtype=dtype)


def demote_factor(factor, dtype: np.dtype):
    """Demote a :class:`~repro.sparse.numeric.CholeskyFactor`'s band in place.

    Returns the factor for chaining.  A no-op for matching dtypes.
    """
    if factor is None or np.dtype(dtype) == np.dtype(np.float64):
        return factor
    factor.band = demote_array(factor.band, dtype)
    return factor


def factor_nbytes(factor) -> int:
    """Resident bytes of a numeric factor: its band."""
    return 0 if factor is None else int(factor.band.nbytes)
