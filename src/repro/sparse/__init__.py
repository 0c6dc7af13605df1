"""Sparse direct solver substrate.

A from-scratch sparse Cholesky factorization with the same structure as the
production libraries the paper uses (CHOLMOD, MKL PARDISO):

* a **symbolic** phase — fill-reducing ordering, elimination tree, column
  counts and the full factor pattern (run once per mesh, reused across time
  steps), and
* a **numeric** phase — filling the factor with values (repeated every time
  step of the multi-step simulation).

The symbolic phase additionally produces a relaxed **supernode partition**
of the factor pattern; the numeric phase and the Schur assembly run over the
resulting dense panels (GEMM/POTRF-style NumPy calls).  Every solve runs on
``L`` as a **band** instead: the RCM ordering is a banded ordering, and a
stack of same-pattern factors is one block-diagonal band that one BLAS
``dtbsv`` per direction solves.  The scalar per-column factorization and
solves are the test oracle (``tests/oracles/sparse.py``).  A structural
**pattern cache** (:mod:`repro.sparse.cache`) shares one symbolic analysis
across all subdomains with the same sparsity pattern.

On top of the factorization the package provides the banded solve of a
stack of same-pattern factors (:func:`solve_banded` / :class:`SolverStack`,
whose stack of one every single solve is), a Schur-complement engine that
exploits the sparsity of the right-hand side block (the analogue of
PARDISO's augmented incomplete factorization) and assembles every
interface class of same-pattern subdomains as one stack
(:func:`stacked_schur_complement`), and two facades reproducing the relevant API differences of
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
from repro.sparse.triangular import solve_banded
from repro.sparse.spmv import CsrProduct
from repro.sparse.schur import SchurScatter, schur_scatter, stacked_schur_complement
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
    "solve_banded",
    "CsrProduct",
    "SchurScatter",
    "schur_scatter",
    "stacked_schur_complement",
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
