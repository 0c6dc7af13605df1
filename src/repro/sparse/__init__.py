"""Sparse direct solver substrate.

A from-scratch sparse Cholesky factorization with the same structure as the
production libraries the paper uses (CHOLMOD, MKL PARDISO):

* a **symbolic** phase — fill-reducing ordering, elimination tree, column
  counts and the factor pattern by a bitset merge of the column structures
  (run once per mesh, reused across time steps), and
* a **numeric** phase — filling the factor with values (repeated every time
  step of the multi-step simulation).

The RCM ordering is a banded ordering and the fill stays inside the band, so
``L`` is held in one form from the factorization on: its ``(n, kd + 1)``
**band**.  A stack of same-pattern matrices is one block-diagonal band that
one LAPACK ``dpbtrf`` factors and one BLAS ``dtbsv`` per direction solves.
The explicit Schur assembly alone tiles ``L`` into a relaxed **supernode
partition**, built lazily and gathered from the band.  The scalar per-column
factorization and solves are the test oracle (``tests/oracles/sparse.py``).
A structural **pattern cache** (:mod:`repro.sparse.cache`) shares one
symbolic analysis across all subdomains with the same sparsity pattern.

On top of the factorization the package provides the banded solve of a
stack of same-pattern factors (:func:`solve_banded`), a Schur-complement
engine that exploits the sparsity of the right-hand side block (the
analogue of PARDISO's augmented incomplete factorization) and assembles
every interface class of same-pattern subdomains as one stack
(:func:`stacked_schur_complement`), and the **pattern group**
(:class:`PatternGroup`): the subdomains sharing one analysis, the only
owner of their factor band, solved as one stack.  :class:`SparseSolver` is
the single-matrix facade over the same kernels (a stack of one).  The
paper's two CPU libraries differ only in what they cost
(:class:`CpuLibrary`, charged by the cost model): every approach computes
with the same kernels.
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
from repro.sparse.schur import SchurScatter, schur_scatter, schur_scatters, stacked_schur_complement
from repro.sparse.cache import PatternCache, global_pattern_cache, structural_key
from repro.sparse.costmodel import CpuCostModel, CpuLibrary
from repro.sparse.group import PatternGroup
from repro.sparse.solvers import SparseSolver

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
    "schur_scatters",
    "stacked_schur_complement",
    "PatternCache",
    "global_pattern_cache",
    "structural_key",
    "CpuCostModel",
    "CpuLibrary",
    "PatternGroup",
    "SparseSolver",
]
