"""Structural pattern cache for the symbolic analysis.

Domain decompositions of regular grids — the workload of every registry
scenario — produce many subdomains whose regularized stiffness matrices
share one sparsity pattern.  Everything the sparse layer derives from the
pattern (fill-reducing ordering, elimination tree, column structures,
the one-pass permutation and band maps for the matrix values, and the
supernode partition once an explicit approach builds it) is therefore computed once per
*structural key* and shared across subdomains, which removes the dominant
per-subdomain cost of the preparation phase.

The key is a hash of the canonical CSC pattern (shape, ``indptr``,
``indices``) plus the ordering method; values never enter it, so two
subdomains with equal patterns but different stiffness values hit the same
entry.  The hash is computed once per distinct ``(indptr, indices)`` pair of
arrays: the members of a shape group's stiffness stack share one pair
(:class:`~repro.fem.assembly.CsrStack`), so a group of any size costs one
hash, while every lookup still counts as a hit or a miss (a caller looking
a pattern up for ``k`` holders makes one call with ``lookups=k``).  A pattern's
index arrays are taken as immutable (SciPy replaces them, never edits them,
when a sparsity changes).  The cache is bounded LRU and thread-safe; the
solvers use the process-global instance by default.

An entry holds index arrays only — pattern, permutation and band maps, one
bitset per column, and the panel layout where it was built — and
:attr:`PatternCache.nbytes` reports their total (``pattern_bytes`` in
``Session.cache_stats()``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from repro.sparse.ordering import OrderingMethod
from repro.sparse.symbolic import SymbolicFactor, _canonical_csc, symbolic_cholesky

__all__ = ["PatternCache", "global_pattern_cache", "structural_key"]


def structural_key(A: sp.spmatrix) -> tuple[int, int, str]:
    """Hashable identity of a matrix's sparsity pattern (values ignored)."""
    csc = _canonical_csc(A)
    digest = hashlib.sha1()
    digest.update(np.asarray(csc.indptr, dtype=np.int64).tobytes())
    digest.update(np.asarray(csc.indices, dtype=np.int64).tobytes())
    return (int(csc.shape[0]), int(csc.nnz), digest.hexdigest())


class PatternCache:
    """Bounded LRU cache of symbolic factorizations keyed by pattern."""

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, SymbolicFactor] = OrderedDict()
        #: ``structural_key`` by the identity of a pattern's index arrays,
        #: which each memo entry holds (so no id is reused while it is kept).
        self._keys: OrderedDict[tuple[int, int], tuple] = OrderedDict()
        # Re-entrant so a cache consumer holding the lock can safely call
        # back into the cache (and so the threads execution backend can
        # hammer one shared cache from every worker at once).
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def symbolic_for(
        self,
        A: sp.spmatrix,
        ordering: OrderingMethod | str = OrderingMethod.RCM,
        *,
        lookups: int = 1,
        **kwargs,
    ) -> SymbolicFactor:
        """Symbolic factorization of ``A``, computed once per pattern.

        ``kwargs`` are forwarded to
        :func:`repro.sparse.symbolic.symbolic_cholesky` and participate in
        the cache key, so e.g. supernode-detection settings cannot collide.
        ``lookups`` counts one call for that many holders of the pattern:
        the first is a hit or a miss, every other one a hit.
        """
        method = OrderingMethod(ordering) if isinstance(ordering, str) else ordering
        key = (method.value, tuple(sorted(kwargs.items())), *self._structural_key(A))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += lookups
                return entry
            self.misses += 1
            self.hits += lookups - 1
        symbolic = symbolic_cholesky(A, ordering=method, **kwargs)
        with self._lock:
            self._entries[key] = symbolic
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return symbolic

    def _structural_key(self, A: sp.spmatrix) -> tuple[int, int, str]:
        """:func:`structural_key`, hashed once per ``(indptr, indices)`` pair."""
        indptr, indices = getattr(A, "indptr", None), getattr(A, "indices", None)
        if indptr is None or A.format not in ("csr", "csc"):
            return structural_key(A)
        pair = (id(indptr), id(indices))
        with self._lock:
            memo = self._keys.get(pair)
        layout = (A.format, A.shape)
        if memo is not None and memo[0] is indptr and memo[1] is indices and memo[2] == layout:
            return memo[3]
        key = structural_key(A)
        with self._lock:
            self._keys[pair] = (indptr, indices, layout, key)
            while len(self._keys) > self.maxsize:
                self._keys.popitem(last=False)
        return key

    @property
    def nbytes(self) -> int:
        """Index bytes of every cached analysis (:attr:`SymbolicFactor.nbytes`)."""
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._keys.clear()
            self.hits = 0
            self.misses = 0


_GLOBAL_CACHE = PatternCache()


def global_pattern_cache() -> PatternCache:
    """The process-global pattern cache shared by the solvers."""
    return _GLOBAL_CACHE
