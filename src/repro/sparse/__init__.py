"""Sparse direct solver substrate.

A from-scratch sparse Cholesky factorization with the same structure as the
production libraries the paper uses (CHOLMOD, MKL PARDISO):

* a **symbolic** phase — fill-reducing ordering, elimination tree, column
  counts and the full factor pattern (run once per mesh, reused across time
  steps), and
* a **numeric** phase — filling the factor with values (repeated every time
  step of the multi-step simulation).

The symbolic phase additionally produces a relaxed **supernode partition**
of the factor pattern; the numeric phase and the triangular kernels always
run over the resulting dense panels (GEMM/POTRF-style NumPy calls).  The
scalar per-column factorization and solves they replaced are the test oracle
(``tests/oracles/sparse.py``).  A structural **pattern cache**
(:mod:`repro.sparse.cache`) shares one symbolic analysis across all
subdomains with the same sparsity pattern.

On top of the factorization the package provides sparse triangular solves
(vector, multi-RHS, and one sweep over a stack of same-pattern factors —
:func:`solve_stacked` / :class:`SolverStack`), a Schur-complement engine
that exploits the sparsity of the right-hand side block (the analogue of
PARDISO's augmented incomplete factorization), and two facades reproducing the relevant API differences of
the CPU libraries: :class:`CholmodLikeSolver` (factors can be extracted and
shipped to the GPU) and :class:`PardisoLikeSolver` (factors cannot be
extracted, but a fast Schur complement is available).
"""

from repro.sparse.ordering import OrderingMethod, compute_ordering
from repro.sparse.symbolic import (
    SupernodePartition,
    SymbolicFactor,
    symbolic_cholesky,
    detect_supernodes,
)
from repro.sparse.numeric import CholeskyFactor, numeric_cholesky
from repro.sparse.triangular import (
    PreparedCscFactor,
    prepare_csc_factor,
    sparse_trsv_lower,
    sparse_trsv_upper,
    sparse_trsm_lower,
    sparse_trsm_upper,
    solve_stacked,
)
from repro.sparse.schur import schur_complement
from repro.sparse.cache import PatternCache, global_pattern_cache, structural_key
from repro.sparse.costmodel import CpuCostModel, CpuLibrary
from repro.sparse.solvers import (
    CholmodLikeSolver,
    FactorExtractionError,
    PardisoLikeSolver,
    SolverStack,
    SparseSolverBase,
)

__all__ = [
    "OrderingMethod",
    "compute_ordering",
    "SupernodePartition",
    "SymbolicFactor",
    "symbolic_cholesky",
    "detect_supernodes",
    "CholeskyFactor",
    "numeric_cholesky",
    "PreparedCscFactor",
    "prepare_csc_factor",
    "sparse_trsv_lower",
    "sparse_trsv_upper",
    "sparse_trsm_lower",
    "sparse_trsm_upper",
    "solve_stacked",
    "schur_complement",
    "PatternCache",
    "global_pattern_cache",
    "structural_key",
    "CpuCostModel",
    "CpuLibrary",
    "CholmodLikeSolver",
    "PardisoLikeSolver",
    "FactorExtractionError",
    "SparseSolverBase",
    "SolverStack",
]
