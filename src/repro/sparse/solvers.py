"""The sparse SPD solver: one in-package Cholesky engine behind a phase API.

:class:`SparseSolver` analyses, factorizes and solves one subdomain matrix
and assembles its explicit Schur complement with the pruned sweep
(:mod:`repro.sparse.schur`, the analogue of MKL PARDISO's augmented
incomplete factorization).  Which CPU library the paper's comparison puts
behind an approach (Section V, Table III) is a cost, not a numeric path:
the cost replays charge it from :attr:`ShapeTable.library
<repro.feti.operators.replay.ShapeTable>`, so every approach computes with
this one solver.  :class:`SolverStack` solves a group of same-pattern
factorizations as one band.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.memory.precision import (
    PrecisionPolicy,
    demote_factor,
    factor_nbytes,
    resolve_precision,
)
from repro.sparse.cache import PatternCache, global_pattern_cache
from repro.sparse.numeric import CholeskyFactor, numeric_cholesky, rows_as_stack
from repro.sparse.ordering import OrderingMethod
from repro.sparse.schur import SchurScatter, schur_scatter, stacked_schur_complement
from repro.sparse.symbolic import SymbolicFactor, symbolic_cholesky
from repro.sparse.triangular import solve_banded

__all__ = [
    "SparseSolver",
    "SolverStack",
    "schur_complements",
]


class SparseSolver:
    """Sparse SPD solver with an explicit symbolic / numeric split.

    The solver keeps the fill-reducing permutation internal: ``solve`` and
    ``schur_complement`` accept and return quantities in the original DOF
    ordering.
    """

    def __init__(
        self,
        ordering: OrderingMethod | str = OrderingMethod.RCM,
        pattern_cache: PatternCache | bool | None = None,
        precision: str | PrecisionPolicy = "fp64",
    ) -> None:
        """Create a solver.

        Parameters
        ----------
        ordering:
            Fill-reducing ordering of the factorization.
        pattern_cache:
            Pattern cache for the symbolic analysis.  ``None`` or ``True``
            picks the process-global cache, ``False`` disables caching, and
            a :class:`PatternCache` instance scopes sharing explicitly.
        precision:
            Factor storage policy (see :mod:`repro.memory.precision`).  The
            factorization always runs in fp64; ``"fp32"`` demotes the stored
            factor to single precision.
        """
        self.ordering = (
            OrderingMethod(ordering) if isinstance(ordering, str) else ordering
        )
        self.precision = resolve_precision(precision)
        if pattern_cache is None or pattern_cache is True:
            pattern_cache = global_pattern_cache()
        self._pattern_cache = (
            pattern_cache if isinstance(pattern_cache, PatternCache) else None
        )
        self._symbolic: SymbolicFactor | None = None
        self._factor: CholeskyFactor | None = None
        #: This factorization's stack of one (built by the first solve).
        self._stack: SolverStack | None = None

    # ------------------------------------------------------------------ #
    # Phases                                                              #
    # ------------------------------------------------------------------ #
    def analyze(self, K: sp.spmatrix) -> SymbolicFactor:
        """Symbolic factorization (run once per sparsity pattern).

        With a pattern cache every subdomain sharing the sparsity pattern
        reuses one symbolic factorization (ordering, elimination tree,
        column structures, band maps); the analysis then runs once per pattern
        instead of once per subdomain.
        """
        if self._pattern_cache is not None:
            self._symbolic = self._pattern_cache.symbolic_for(K, self.ordering)
        else:
            self._symbolic = symbolic_cholesky(K, ordering=self.ordering)
        self._factor = self._stack = None
        return self._symbolic

    def factorize(self, K: sp.spmatrix) -> CholeskyFactor:
        """Numeric factorization (re-run whenever the values change).

        The factorization itself always runs in fp64; the precision policy
        then demotes the *stored* factor.
        """
        if self._symbolic is None:
            self.analyze(K)
        assert self._symbolic is not None
        self._factor = demote_factor(
            numeric_cholesky(K, self._symbolic), self.precision.storage_dtype
        )
        self._stack = None
        return self._factor

    def adopt_factor(self, factor: CholeskyFactor) -> CholeskyFactor:
        """Install a numeric factor computed elsewhere (the preprocessing runtime).

        The factor's band is typically a row of a preprocessing group's
        stacked bands; its symbolic analysis must describe the same
        pattern this solver analysed (the runtime factors each group with
        its members' shared analysis).
        """
        if self._symbolic is None:
            self._symbolic = factor.symbolic
        self._factor = demote_factor(factor, self.precision.storage_dtype)
        self._stack = None
        return self._factor

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def symbolic(self) -> SymbolicFactor:
        """The symbolic factorization (raises if :meth:`analyze` not called)."""
        if self._symbolic is None:
            raise RuntimeError("analyze() has not been called")
        return self._symbolic

    @property
    def is_factorized(self) -> bool:
        """Whether a numeric factorization is available."""
        return self._factor is not None

    @property
    def factor_nnz(self) -> int:
        """Stored entries of the factor ``L``."""
        return self.symbolic.nnz

    def _require_factor(self) -> CholeskyFactor:
        if self._factor is None:
            raise RuntimeError("factorize() has not been called")
        return self._factor

    def storage_nbytes(self) -> int:
        """Resident bytes of the numeric factor."""
        return factor_nbytes(self._factor)

    def release(self) -> None:
        """Drop the numeric factor; keep the analysis."""
        self._factor = self._stack = None

    # ------------------------------------------------------------------ #
    # Solves                                                              #
    # ------------------------------------------------------------------ #
    def _stack_of_one(self) -> SolverStack:
        """The solver as a :class:`SolverStack` of one, built once per factorization."""
        stack = self._stack
        if stack is None:
            stack = self._stack = SolverStack([self])
        return stack

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``K x = b`` for one right-hand side (original ordering).

        The solver's stack of one (:meth:`SolverStack.solve`).
        """
        return self._stack_of_one().solve(np.asarray(b, dtype=float)[None])[0]

    # ------------------------------------------------------------------ #
    # Explicit dual operator on the CPU                                   #
    # ------------------------------------------------------------------ #
    def schur_scatter(self, B: sp.spmatrix) -> SchurScatter:
        """How ``B`` enters the Schur assembly (built once per ``B``).

        The scatter's key names the interface class it joins.
        """
        return schur_scatter(self.symbolic, B)

    def schur_complement(self, B: sp.spmatrix) -> np.ndarray:
        """Assemble ``B K⁻¹ Bᵀ`` explicitly (in the original ordering).

        A class of one of :func:`schur_complements`.
        """
        return schur_complements([self], [self.schur_scatter(B)])[0]


#: Kept for ``benchmarks/perf/solve_bench.py``, which imports it; the next
#: change to the benchmark imports :class:`SparseSolver` and drops this line.
PardisoLikeSolver = SparseSolver


def _band_stack(factors: list[CholeskyFactor]) -> tuple[np.ndarray, bool]:
    """The factors' ``(k, n, kd + 1)`` band stack, and whether it is new.

    Bands that are consecutive rows of one array are adopted zero-copy.
    Otherwise they are copied into a new stack and every factor is
    re-pointed at its row of it, so ``L`` is never resident twice.
    """
    bands = [f.band for f in factors]
    stack = rows_as_stack(bands)
    if stack is not None:
        return stack, False
    stack = np.stack(bands)
    for factor, row in zip(factors, stack):
        factor.band = row
    return stack, True


def schur_complements(
    solvers: Sequence[SparseSolver],
    scatters: Sequence[SchurScatter],
    workspace: np.ndarray | None = None,
) -> np.ndarray:
    """``(k, n_dual, n_dual)`` ``F̃ᵢ`` of one interface class of factorized solvers.

    The members share one symbolic analysis and their scatters one key; their
    factor bands (at the policy's storage dtype) are read where they are.
    ``workspace`` is the sweep's buffer (see :func:`stacked_schur_complement`).
    """
    factors = [solver._require_factor() for solver in solvers]
    return stacked_schur_complement(
        factors[0].symbolic, [factor.band for factor in factors], scatters, workspace
    )


class SolverStack:
    """Factorized solvers sharing one symbolic analysis, solved as one band.

    The members' factors become one ``(k, n, kd + 1)`` band stack (see
    :func:`_band_stack`; each factor is re-pointed at its row), which
    :func:`~repro.sparse.triangular.solve_banded` solves with one BLAS call
    per direction.  A stack is valid for the numeric factorizations it was
    built from: drop it whenever a member is re-factorized or released.
    """

    def __init__(self, solvers: "list[SparseSolver]") -> None:
        factors = [solver._require_factor() for solver in solvers]
        self.symbolic = factors[0].symbolic
        self.band, repointed = _band_stack(factors)
        if repointed:
            for solver in solvers:  # their stacks of one hold the old bands
                solver._stack = None
        #: The shared permutation of every member, offset into the stack.
        n = self.symbolic.n
        self._perm = (np.arange(len(factors))[:, None] * n + self.symbolic.perm).reshape(-1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(k, n)`` solutions of ``Kᵢ xᵢ = bᵢ``: one banded forward and backward sweep."""
        return solve_banded(self._perm, self.band, np.asarray(rhs, dtype=float))
