"""One matrix behind a phase API: the single-matrix facade of the sparse engine.

:class:`SparseSolver` analyses, factorizes and solves one matrix and
assembles its explicit Schur complement with the pruned sweep
(:mod:`repro.sparse.schur`, the analogue of MKL PARDISO's augmented
incomplete factorization), each phase a call of the stacked kernels on a
stack of one.  The FETI solve path does not use it: its numeric work runs
on pattern groups (:class:`~repro.sparse.group.PatternGroup`), factored by
:mod:`repro.runtime.preprocess`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.memory.precision import (
    PrecisionPolicy,
    demote_factor,
    factor_nbytes,
    resolve_precision,
)
from repro.sparse.cache import PatternCache, global_pattern_cache
from repro.sparse.numeric import CholeskyFactor, numeric_cholesky
from repro.sparse.ordering import OrderingMethod
from repro.sparse.schur import schur_scatter, stacked_schur_complement
from repro.sparse.symbolic import SymbolicFactor, symbolic_cholesky
from repro.sparse.triangular import solve_banded

__all__ = ["SparseSolver"]


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
        self._factor = None
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
        self._factor = None

    # ------------------------------------------------------------------ #
    # Solves                                                              #
    # ------------------------------------------------------------------ #
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``K x = b`` for one right-hand side (original ordering).

        One :func:`~repro.sparse.triangular.solve_banded` on the band as a
        stack of one.
        """
        band = self._require_factor().band
        return solve_banded(self.symbolic.perm, band[None], np.asarray(b, dtype=float)[None])[0]

    # ------------------------------------------------------------------ #
    # Explicit dual operator on the CPU                                   #
    # ------------------------------------------------------------------ #
    def schur_complement(self, B: sp.spmatrix) -> np.ndarray:
        """Assemble ``B K⁻¹ Bᵀ`` explicitly (in the original ordering).

        An interface class of one of
        :func:`~repro.sparse.schur.stacked_schur_complement`.
        """
        factor = self._require_factor()
        scatter = schur_scatter(factor.symbolic, B)
        return stacked_schur_complement(factor.symbolic, [factor.band], [scatter])[0]


#: Kept for ``benchmarks/perf/solve_bench.py``, which imports it; the next
#: change to the benchmark imports :class:`SparseSolver` and drops this line.
PardisoLikeSolver = SparseSolver
