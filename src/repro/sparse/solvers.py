"""Solver facades mirroring the CPU libraries used by the paper.

Both facades wrap the same in-package Cholesky engine but reproduce the API
differences that shape the paper's comparison (Section V):

* :class:`CholmodLikeSolver` — like SuiteSparse CHOLMOD, the factor can be
  extracted (and shipped to the GPU), but the explicit Schur complement does
  not exploit the sparsity of the right-hand side.
* :class:`PardisoLikeSolver` — like Intel MKL PARDISO, the factor cannot be
  extracted (so it cannot feed the GPU assembly), but the explicit dual
  operator can be assembled with the augmented incomplete factorization,
  which skips the work made redundant by the sparsity of ``B̃ᵢ``.
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
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.numeric import CholeskyFactor, numeric_cholesky
from repro.sparse.ordering import OrderingMethod
from repro.sparse.schur import rhs_sparsity_fill, schur_complement
from repro.sparse.symbolic import SymbolicFactor, symbolic_cholesky
from repro.sparse.triangular import (
    solve_stacked,
    sparse_trsm_lower,
    sparse_trsm_upper,
    sparse_trsv_lower,
    sparse_trsv_upper,
    stacked_diagonal_inverses,
)

__all__ = [
    "FactorExtractionError",
    "SparseSolverBase",
    "CholmodLikeSolver",
    "PardisoLikeSolver",
    "SolverStack",
]


class FactorExtractionError(RuntimeError):
    """Raised when a solver does not support extracting its factors."""


class SparseSolverBase:
    """Sparse SPD solver with an explicit symbolic / numeric split.

    Subclasses define :attr:`library` and :attr:`supports_factor_extraction`.
    The solver keeps the fill-reducing permutation internal: ``solve`` and
    ``schur_complement`` accept and return quantities in the original DOF
    ordering.
    """

    #: Which CPU library the facade emulates (drives the cost model).
    library: CpuLibrary
    #: Whether :meth:`extract_factor` is available.
    supports_factor_extraction: bool = True

    def __init__(
        self,
        ordering: OrderingMethod | str = OrderingMethod.RCM,
        pattern_cache: PatternCache | bool | None = None,
        precision: str | PrecisionPolicy = "fp64",
    ) -> None:
        """Create a solver facade.

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
            factor to single precision, and ``"fp32_ir"`` additionally
            retains the matrix and refines every solve back to fp64-level
            residuals.
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
        self._matrix: sp.csr_matrix | None = None

    # ------------------------------------------------------------------ #
    # Phases                                                              #
    # ------------------------------------------------------------------ #
    def analyze(self, K: sp.spmatrix) -> SymbolicFactor:
        """Symbolic factorization (run once per sparsity pattern).

        With a pattern cache every subdomain sharing the sparsity pattern
        reuses one symbolic factorization (ordering, elimination tree,
        supernodes, scatter maps); the analysis then runs once per pattern
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
        then demotes the *stored* factor (and, when refining, retains the
        matrix for residual computation in the refinement sweeps).
        """
        if self._symbolic is None:
            self.analyze(K)
        assert self._symbolic is not None
        self._factor = numeric_cholesky(K, self._symbolic)
        self._install_precision(K)
        return self._factor

    def adopt_factor(
        self, factor: CholeskyFactor, matrix: sp.spmatrix | None = None
    ) -> CholeskyFactor:
        """Install a numeric factor computed elsewhere (the sharded runtime).

        The factor's values may be views into shared memory written by a
        worker process; its symbolic analysis must describe the same
        pattern this solver analysed (the runtime guarantees it by
        re-deriving the analysis deterministically per pattern).  ``matrix``
        is the factorized matrix — required by refining precision policies,
        which keep it for residual computation.
        """
        if self._symbolic is None:
            self._symbolic = factor.symbolic
        self._factor = factor
        self._install_precision(matrix)
        return self._factor

    def _install_precision(self, matrix: sp.spmatrix | None) -> None:
        """Demote the stored factor / retain the matrix per the policy."""
        policy = self.precision
        if policy.refine:
            if matrix is not None:
                self._matrix = sp.csr_matrix(matrix)
            elif self._matrix is None:
                raise ValueError(
                    f"precision {policy.name!r} refines solves and needs the "
                    "factorized matrix; pass it to adopt_factor(..., matrix=K)"
                )
        if policy.demotes:
            assert self._factor is not None
            self._factor = demote_factor(self._factor, policy.storage_dtype)

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

    def factorization_flops(self) -> float:
        """Estimated flops of one numeric factorization."""
        return self.symbolic.factorization_flops()

    def _require_factor(self) -> CholeskyFactor:
        if self._factor is None:
            raise RuntimeError("factorize() has not been called")
        return self._factor

    def storage_nbytes(self) -> int:
        """Resident bytes of the numeric factor (plus any retained matrix)."""
        nbytes = factor_nbytes(self._factor)
        if self._matrix is not None:
            nbytes += int(
                self._matrix.data.nbytes
                + self._matrix.indices.nbytes
                + self._matrix.indptr.nbytes
            )
        return nbytes

    def demote_storage(self) -> None:
        """Convert the resident factor to fp32 (session tiering).

        Used on *cold* cache entries only: the session marks the entry
        stale at the same time, so the demoted factor is never read by a
        solve — it just halves the entry's resident bytes until the next
        touch re-factorizes it in the spec's own precision.
        """
        if self._factor is not None:
            self._factor = demote_factor(self._factor, np.dtype(np.float32))

    def extract_factor(self) -> CholeskyFactor:
        """Return the numeric factor (for shipping to the GPU).

        Raises
        ------
        FactorExtractionError
            If the emulated library does not expose its factors.
        """
        if not self.supports_factor_extraction:
            raise FactorExtractionError(
                f"{type(self).__name__} does not allow extraction of its factors"
            )
        return self._require_factor()

    # ------------------------------------------------------------------ #
    # Solves                                                              #
    # ------------------------------------------------------------------ #
    def _triangular_solve(self, b: np.ndarray) -> np.ndarray:
        """One forward+backward substitution pass (original ordering)."""
        factor = self._require_factor()
        perm = factor.symbolic.perm
        if b.ndim == 1:
            xp = sparse_trsv_upper(factor, sparse_trsv_lower(factor, b[perm]))
        else:
            xp = sparse_trsm_upper(factor, sparse_trsm_lower(factor, b[perm, :]))
        x = np.empty_like(xp)
        x[perm] = xp
        return x

    def solve(self, b: np.ndarray, refine: bool | None = None) -> np.ndarray:
        """Solve ``K x = b`` for one right-hand side (original ordering).

        Under a refining precision policy the stored (fp32) factor acts as
        the inner solver of a fixed-point iteration on the retained fp64
        matrix: ``x += K⁻̃¹ (b − K x)`` until the residual reaches fp64
        level, so half-size factor storage still yields fp64-accurate
        solves.  ``refine`` overrides the policy (e.g. the PCPG loop's
        cheap operator applies pass ``False``).
        """
        x = self._triangular_solve(np.asarray(b, dtype=float))
        if refine is None:
            refine = self.precision.refine
        if refine and self._matrix is not None:
            x = self._refine(np.asarray(b, dtype=float), x)
        return x

    def solve_many(self, B: np.ndarray, refine: bool | None = None) -> np.ndarray:
        """Solve ``K X = B`` for a dense multi-column right-hand side."""
        X = self._triangular_solve(np.asarray(B, dtype=float))
        if refine is None:
            refine = self.precision.refine
        if refine and self._matrix is not None:
            X = self._refine(np.asarray(B, dtype=float), X)
        return X

    def _refine(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Iterative refinement sweeps with the stored factor as inner solver."""
        K = self._matrix
        assert K is not None
        norm_b = float(np.max(np.abs(b))) if b.size else 0.0
        if norm_b == 0.0:
            return x
        for _ in range(max(1, self.precision.refine_steps)):
            r = b - K @ x
            if float(np.max(np.abs(r))) <= 1e-14 * norm_b:
                break
            x = x + self._triangular_solve(r)
        return x

    # ------------------------------------------------------------------ #
    # Explicit dual operator on the CPU                                   #
    # ------------------------------------------------------------------ #
    def rhs_fill(self, B: sp.spmatrix) -> float:
        """Fraction of TRSM work left after exploiting the sparsity of ``B``."""
        return rhs_sparsity_fill(B, self.symbolic.perm)

    def schur_complement(self, B: sp.spmatrix) -> np.ndarray:
        """Assemble ``B K⁻¹ Bᵀ`` explicitly (in the original ordering)."""
        factor = self._require_factor()
        return schur_complement(
            factor, B, exploit_rhs_sparsity=self._exploit_rhs_sparsity()
        )

    def _exploit_rhs_sparsity(self) -> bool:
        return False


class CholmodLikeSolver(SparseSolverBase):
    """SuiteSparse-CHOLMOD-like facade: factors can be extracted."""

    library = CpuLibrary.CHOLMOD
    supports_factor_extraction = True


class PardisoLikeSolver(SparseSolverBase):
    """Intel-MKL-PARDISO-like facade.

    Factors stay internal (``extract_factor`` raises), but the explicit Schur
    complement uses the augmented-incomplete-factorization strategy that
    exploits the sparsity of the constraint block.
    """

    library = CpuLibrary.MKL_PARDISO
    supports_factor_extraction = False

    def _exploit_rhs_sparsity(self) -> bool:
        return True


def _rows_as_stack(rows: list[np.ndarray]) -> np.ndarray | None:
    """``rows`` as one 2-D array without copying, when they already are one.

    True for factors adopted from a shard's batched panels (threads: one
    ``(k, panel_entries)`` array, processes: a view of the shared arena) as
    long as the rows are consecutive in the array they are views of.
    """
    first = rows[0]
    base = first.base
    if not (isinstance(base, np.ndarray) and base.flags.c_contiguous):
        return None

    def address(a: np.ndarray) -> int:
        return a.__array_interface__["data"][0]

    consecutive = all(
        r.dtype == base.dtype
        and r.shape == first.shape
        and r.flags.c_contiguous
        and address(r) == address(first) + i * first.nbytes
        for i, r in enumerate(rows)
    )
    flat = base.reshape(-1)
    offset, rest = divmod(address(first) - address(base), base.itemsize)
    stop = offset + len(rows) * first.size
    if not consecutive or rest or offset < 0 or stop > flat.size:
        return None
    return flat[offset:stop].reshape(len(rows), first.size)


class SolverStack:
    """Factorized solvers sharing one symbolic analysis, solved as one stack.

    The members' dense factor panels become one ``(k, panel_entries)`` array:
    adopted zero-copy where they already are consecutive rows of one, copied
    otherwise — and then every member's factor is re-pointed at its row, so
    the panels are never resident twice.  The diagonal-block inverses of
    :func:`~repro.sparse.triangular.solve_stacked` are formed here, once.  A
    stack is valid for the numeric factorizations it was built from: drop it
    whenever a member is re-factorized or demoted.
    """

    def __init__(self, solvers: "list[SparseSolverBase]") -> None:
        factors = [solver._require_factor() for solver in solvers]
        self.symbolic = factors[0].symbolic
        self.precision = solvers[0].precision
        rows = [factor.panel_values() for factor in factors]
        #: Block-diagonal retained matrices (refining policies only): the
        #: residual of the whole stack is one sparse product.
        self._matrix: sp.csr_matrix | None = None
        matrices = [solver._matrix for solver in solvers]
        refines = self.precision.refine and all(m is not None for m in matrices)
        if len(rows) == 1:
            # A stack of one: a view of the factor's own panels, no inverses
            # (``solve_stacked`` runs the single-factor kernels).
            self.panels = rows[0][None, :]
            self.inverses = None
            if refines:
                self._matrix = matrices[0]
            return
        self.panels = _rows_as_stack(rows)
        if self.panels is None:
            self.panels = np.stack(rows)
            for factor, row in zip(factors, self.panels):
                factor._panel_values = row
        self.inverses = stacked_diagonal_inverses(self.symbolic, self.panels)
        if refines:
            self._matrix = sp.block_diag(matrices, format="csr")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(k, n)`` solutions of ``Kᵢ xᵢ = bᵢ``, refined per the policy.

        The refinement is :meth:`SparseSolverBase._refine` on the stack: one
        residual and one sweep per round, each member leaving the iteration
        at its own fp64-level residual.
        """
        b = np.asarray(rhs, dtype=float)
        x = solve_stacked(self.symbolic, self.panels, b, self.inverses)
        if self._matrix is None:
            return x
        norm_b = np.abs(b).max(axis=1, initial=0.0)
        active = norm_b > 0.0
        for _ in range(max(1, self.precision.refine_steps)):
            r = b - (self._matrix @ x.reshape(-1)).reshape(b.shape)
            active &= np.abs(r).max(axis=1, initial=0.0) > 1e-14 * norm_b
            if not active.any():
                break
            correction = solve_stacked(self.symbolic, self.panels, r, self.inverses)
            x[active] += correction[active]
        return x
