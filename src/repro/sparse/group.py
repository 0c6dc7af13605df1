"""The pattern group: the owner of its members' numeric factors.

The subdomains whose stiffness matrices share one sparsity pattern share one
symbolic analysis, and every piece of numeric work runs on them together: a
preprocessing factors them as one ``(k, n, kd + 1)`` band
(:func:`~repro.sparse.numeric.stacked_cholesky`, run by
:mod:`repro.runtime.preprocess`), the Schur assembly reads a member's row of
that band, and a ``K⁺`` solve is one gather, one
:func:`~repro.sparse.triangular.sweep_banded` over the whole band and one
scatter.  :class:`PatternGroup` holds all of it: the analysis, the members,
their :class:`~repro.sparse.schur.SchurScatter` (explicit approaches only),
where their DOFs sit in the concatenated primal vector, and the band.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sparse.schur import SchurScatter
from repro.sparse.symbolic import SymbolicFactor
from repro.sparse.triangular import sweep_banded

__all__ = ["PatternGroup"]


class PatternGroup:
    """Subdomains sharing one symbolic analysis, and their factor band.

    Parameters
    ----------
    symbolic:
        The members' shared symbolic analysis.
    members:
        The members' subdomain indices, ascending.
    dofs:
        ``(k, n)``: row ``i`` holds member ``i``'s DOF positions in the
        concatenated primal vector.
    scatters:
        The members' Schur scatters, in member order (explicit approaches;
        empty when the ``F̃ᵢ`` are not assembled).
    """

    def __init__(
        self,
        symbolic: SymbolicFactor,
        members: Sequence[int],
        dofs: np.ndarray,
        scatters: Sequence[SchurScatter] = (),
    ) -> None:
        self.symbolic = symbolic
        self.members = list(members)
        self.dofs = dofs
        self.scatters = list(scatters)
        #: ``(k, n, kd + 1)`` bands of the members' factors ``Lᵢ``, at the
        #: precision policy's storage dtype; ``None`` until a preprocessing
        #: installs them and after :meth:`release`.
        self.band: np.ndarray | None = None
        #: Where row ``i·n + j`` of the band stack reads the primal vector:
        #: ``dofs`` composed with the shared fill-reducing permutation.
        self._gather = dofs[:, symbolic.perm].reshape(-1)

    def __len__(self) -> int:
        return len(self.members)

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> None:
        """``out[dofs] = Kᵢ⁻¹ rhs[dofs]`` for every member.

        One gather into the factors' ordering, one banded sweep over the
        whole stack, one scatter back.
        """
        if self.band is None:
            raise RuntimeError("no numeric factorization; run a preprocessing first")
        out[self._gather] = sweep_banded(self.band, np.asarray(rhs, dtype=float).take(self._gather))

    def storage_nbytes(self) -> int:
        """Resident bytes of the numeric factors: the band."""
        return 0 if self.band is None else int(self.band.nbytes)

    def release(self) -> None:
        """Drop the band; keep the analysis, the members and their scatters."""
        self.band = None
