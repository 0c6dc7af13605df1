"""The dual operator: two numeric paths, and the price list of its approach.

The nine Table-III approaches compute the same ``F = B̃ K⁺ B̃ᵀ`` along one of
two numeric paths:

* **explicit** — the runtime's preprocessing round factorizes every
  subdomain and assembles its ``F̃ᵢ`` (one stacked Schur assembly per
  interface class); an apply is one gather, one padded batched GEMV over
  the blocks of fewer than ``SYMV_MIN_ROWS`` rows, one ``dsymv`` on each
  larger block (held unpadded, as the assembly left it) and one
  ``bincount`` (:class:`~repro.feti.operators.batch.BatchedDenseApply`);
* **implicit** — the round only factorizes; an apply is ``B̃ K⁺ B̃ᵀ`` with
  one banded ``K⁺`` solve per sparsity pattern
  (:meth:`DualOperator.apply_accurate`).

Both paths run on the operator's pattern groups
(:class:`~repro.sparse.group.PatternGroup`: the subdomains sharing one
symbolic analysis), which own the factor bands.  What the work costs —
simulated seconds — is a pure function of the subdomain shapes, the
machine and the assembly configuration: ``prepare()`` prices it once, from
the pattern groups, through the ``price`` function
:func:`~repro.feti.operators.make_dual_operator` gives it (a cost replay
on a fresh simulated machine), and keeps the frozen price list.  Every
later phase records its timeline from that list; no phase drives a
simulated clock.  The operator also owns the phase bookkeeping (simulated
+ wall time, in a :class:`~repro.analysis.timing.TimingLedger`) and the
``K⁺`` solves of ``d = B K⁺ f − c`` and the primal recovery.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.analysis.timing import PhaseTiming, TimingLedger
from repro.feti.config import AssemblyConfig, DualOperatorApproach
from repro.feti.operators.batch import SubdomainBatchEngine
from repro.feti.problem import FetiProblem
from repro.memory.precision import PrecisionPolicy, resolve_precision
from repro.observe.trace import trace_span
from repro.sparse.cache import PatternCache, global_pattern_cache
from repro.sparse.group import PatternGroup
from repro.sparse.ordering import OrderingMethod
from repro.sparse.schur import SchurScatter, schur_scatters
from repro.sparse.symbolic import SymbolicFactor

__all__ = ["DualOperator", "analyze_problem"]


def analyze_problem(
    problem: FetiProblem, pattern_cache: PatternCache | None = None, *, scatters: bool
) -> list[PatternGroup]:
    """The pattern groups of ``problem``, with their Schur scatters given ``scatters``.

    Per shape group (one stored pattern of ``K_reg`` each), one lookup in
    ``pattern_cache`` (``None``: the process-global cache) under the RCM
    ordering, counted once per member — one structural hash and one call
    per pattern.  A pattern group is the subdomains sharing one analysis,
    in index order (the groups ordered by their first member); its members
    get their scatters from one :func:`~repro.sparse.schur.schur_scatters`
    pass over the gluing entries, which the group keeps.  No subdomain's
    ``K_reg`` or ``B̃ᵢ`` is built.
    """
    cache = global_pattern_cache() if pattern_cache is None else pattern_cache
    by_symbolic: dict[int, tuple[SymbolicFactor, list[int]]] = {}
    for shape in problem.groups:
        members = shape.indices.tolist()
        symbolic = cache.symbolic_for(shape.K_reg.member(0), OrderingMethod.RCM, lookups=len(members))
        by_symbolic.setdefault(id(symbolic), (symbolic, []))[1].extend(members)
    offsets = np.cumsum([0] + [sub.ndofs for sub in problem.subdomains])
    groups: list[PatternGroup] = []
    for symbolic, indices in sorted(
        ((symbolic, sorted(indices)) for symbolic, indices in by_symbolic.values()),
        key=lambda group: group[1],
    ):
        group_scatters: list[SchurScatter] = []
        if scatters:
            B, bounds = problem.gluing.entries.rows_of(indices)
            group_scatters = schur_scatters(symbolic, B, bounds)
        dofs = offsets[indices][:, None] + np.arange(symbolic.n)
        groups.append(PatternGroup(symbolic, indices, dofs, group_scatters))
    return groups

#: Process-wide source of :attr:`DualOperator.storage_version` values.
_STORAGE_VERSIONS = itertools.count()


class DualOperator:
    """One Table-III approach: a numeric path plus the price list of its timelines.

    Parameters
    ----------
    approach:
        The Table-III approach (its name in ledgers and traces).
    explicit:
        Assemble ``F̃ᵢ`` and apply them as dense blocks (``True``), or apply
        ``B̃ K⁺ B̃ᵀ`` through one banded ``K⁺`` solve per sparsity pattern
        (``False``).
    price:
        The approach's price list of the problem under given pattern groups
        (a :class:`~repro.feti.operators.replay.PriceList`: ``preparation``,
        ``preprocessing``, ``applied`` and ``apply(columns)``);
        :meth:`prepare` calls it once.
    """

    def __init__(
        self,
        problem: FetiProblem,
        approach: DualOperatorApproach,
        *,
        explicit: bool,
        price: Callable[[list[PatternGroup]], object],
        config: AssemblyConfig | None = None,
        pattern_cache: PatternCache | None = None,
        workers: int = 1,
        precision: "str | PrecisionPolicy" = "fp64",
    ) -> None:
        self.problem = problem
        self.approach = approach
        self.explicit = explicit
        self.config = config or AssemblyConfig()
        #: Factor/``F̃ᵢ`` storage policy (see :mod:`repro.memory.precision`).
        #: All arithmetic still runs in fp64; the policy controls what the
        #: resident factors and ``F̃ᵢ`` blocks are stored as.
        self.precision = resolve_precision(precision)
        #: Caller-owned pattern cache for the sparse symbolic analysis (a
        #: :class:`repro.api.Session` passes its own); ``None`` keeps the
        #: sparse layer's default (the process-global cache).
        self.pattern_cache = pattern_cache
        #: Span count of the preprocessing: ``1`` runs it inline.
        self.workers = workers
        self._price = price
        #: The frozen simulated timelines of every phase, priced by
        #: :meth:`prepare`.
        self.prices = None
        self.ledger = TimingLedger()
        #: Changes (to a value no other operator holds) whenever the
        #: resident storage may have: at construction, after every
        #: preprocessing and on a :meth:`release`.  The session re-measures
        #: an entry's bytes only when it moved.
        self.storage_version = next(_STORAGE_VERSIONS)
        self._prepared = False
        self._preprocessed = False
        self._batch_engine: "SubdomainBatchEngine | None" = None
        #: The subdomains sharing one symbolic analysis, with their Schur
        #: scatters on the explicit path (:func:`analyze_problem`): found by
        #: :meth:`prepare`, the unit of the preprocessing, and the owners of
        #: the factor bands every ``K⁺`` solve reads.
        self._groups: list[PatternGroup] = []

    @property
    def batch_engine(self) -> SubdomainBatchEngine:
        """The batched subdomain execution engine (built once, lazily)."""
        if self._batch_engine is None:
            self._batch_engine = SubdomainBatchEngine(
                self.problem, dense_dtype=self.precision.storage_dtype
            )
        return self._batch_engine

    @property
    def local_F(self) -> dict[int, np.ndarray]:
        """The assembled ``F̃ᵢ`` by subdomain: read-only views of the stored blocks.

        Every explicit backend installs its ``F̃ᵢ`` in the batch engine (at
        the precision policy's storage dtype): a small block in the padded
        pack, a large one as itself.  Empty for the implicit backends, before
        the first preprocessing and after a :meth:`release` (which drops
        the blocks).
        """
        engine = self.batch_engine
        if engine.dense is None:
            return {}
        return {sub.index: engine.dense_block(sub.index) for sub in self.problem.subdomains}

    # ------------------------------------------------------------------ #
    # Phases                                                              #
    # ------------------------------------------------------------------ #
    def prepare(self) -> PhaseTiming:
        """Run the preparation phase (once per mesh).

        The symbolic analysis of every subdomain, the pattern groups (and, on
        the explicit path, how every ``B̃ᵢ`` enters the Schur assembly), per
        stored pattern (:func:`analyze_problem`); the price list of every
        phase is priced from them, in a ``cost_replay`` span.  A second call
        starts over: the old factors go with the old groups.
        """
        wall0 = time.perf_counter()
        self.release()
        with trace_span("preparation", approach=self.approach.value):
            self._groups = analyze_problem(
                self.problem, self.pattern_cache, scatters=self.explicit
            )
            with trace_span("cost_replay", approach=self.approach.value):
                self.prices = self._price(self._groups)
        self._prepared = True
        return self._record("preparation", *self.prices.preparation, wall0)

    def preprocess(self, K_reg: Sequence[np.ndarray] | None = None) -> PhaseTiming:
        """Run the FETI preprocessing phase (once per time step that changed ``K``).

        The single entry point of the runtime layer: every pattern group is
        factored as one stack (cut into :attr:`workers` spans on a thread pool)
        — then, on the explicit path, the ``F̃ᵢ`` of each interface class
        are assembled as one stack (see :mod:`repro.runtime.preprocess`),
        which the batch engine installs.  It factors the values ``K_reg``
        (:meth:`~repro.feti.problem.FetiProblem.stiffness`; ``None``: the
        built ones).
        """
        from repro.runtime.preprocess import run_preprocessing

        if not self._prepared:
            self.prepare()
        wall0 = time.perf_counter()
        # The old numbers go first: a preprocessing that raises leaves the
        # operator stale, and old and new factors are never resident together.
        self._drop_factors()
        with trace_span("preprocessing", approach=self.approach.value):
            local_F = run_preprocessing(
                self.workers,
                self._groups,
                self.problem.csr_arrays("K_reg", K_reg),
                self.precision.storage_dtype,
            )
            for sub in self.problem.subdomains if self.explicit else ():
                self.batch_engine.install_dense_block(sub.index, local_F.pop(sub.index))
        self._preprocessed = True
        self.storage_version = next(_STORAGE_VERSIONS)
        return self._record("preprocessing", *self.prices.preprocessing, wall0)

    @property
    def preprocessed(self) -> bool:
        """Whether the factors and ``F̃ᵢ`` of a preprocessing are resident."""
        return self._preprocessed

    @property
    def pattern_groups(self) -> list[PatternGroup]:
        """The pattern groups :meth:`prepare` found (their bands once preprocessed)."""
        return self._groups

    def _drop_factors(self) -> None:
        """Forget the numeric factors and what was derived from them."""
        self._preprocessed = False
        for group in self._groups:
            group.release()

    def _record(
        self, name: str, sim: float, breakdown: dict[str, float], wall0: float
    ) -> PhaseTiming:
        """Record one finished phase (wall time measured from ``wall0``)."""
        return self.ledger.record(
            PhaseTiming(name, sim, time.perf_counter() - wall0, breakdown)
        )

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """Apply the dual operator ``q = F λ`` (once per PCPG iteration)."""
        if not self._preprocessed:
            raise RuntimeError("preprocess() must run before apply()")
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.problem.n_lambda,):
            raise ValueError(
                f"dual vector has shape {lam.shape}, expected ({self.problem.n_lambda},)"
            )
        wall0 = time.perf_counter()
        with trace_span("apply"):
            if self.explicit:
                q = self.batch_engine.require_dense().apply(lam)
            else:
                q = self.apply_accurate(lam)
        self._record("apply", *self.prices.applied, wall0)
        return q

    __call__ = apply

    def apply_multi(self, lam_block: np.ndarray) -> np.ndarray:
        """Apply ``F`` to ``k`` stacked dual vectors (``(n_lambda, k)``).

        Every explicit approach runs one batched GEMM over all columns of
        the packed blocks and one GEMM per large block, amortizing the
        scatter/gather over the columns; the results agree with ``k``
        :meth:`apply` calls to machine rounding (≤1e-12 relative).  The
        implicit approaches apply the columns one by one.

        One ``apply_multi`` phase is recorded per call: the price list's
        timeline of ``k`` stacked columns.
        """
        if not self._preprocessed:
            raise RuntimeError("preprocess() must run before apply_multi()")
        lam_block = np.asarray(lam_block, dtype=float)
        if lam_block.ndim != 2 or lam_block.shape[0] != self.problem.n_lambda:
            raise ValueError(
                f"dual block has shape {lam_block.shape}, expected "
                f"({self.problem.n_lambda}, k)"
            )
        wall0 = time.perf_counter()
        k = int(lam_block.shape[1])
        with trace_span("apply_multi", columns=k):
            if self.explicit:
                out = self.batch_engine.require_dense().apply_multi(lam_block)
            elif k:
                out = np.column_stack(
                    [self.apply_accurate(np.ascontiguousarray(column)) for column in lam_block.T]
                )
            else:
                out = np.zeros_like(lam_block)
        self._record("apply_multi", *self.prices.apply(k), wall0)
        return out

    # ------------------------------------------------------------------ #
    # Timing accessors used by the benchmarks                             #
    # ------------------------------------------------------------------ #
    @property
    def preparation_time(self) -> float:
        """Simulated seconds of the last preparation phase."""
        phase = self.ledger.last("preparation")
        return phase.simulated_seconds if phase else 0.0

    @property
    def preprocessing_time(self) -> float:
        """Simulated seconds of the last preprocessing phase."""
        phase = self.ledger.last("preprocessing")
        return phase.simulated_seconds if phase else 0.0

    @property
    def application_time(self) -> float:
        """Mean simulated seconds of one dual-operator application."""
        return self.ledger.mean("apply")

    # ------------------------------------------------------------------ #
    # K⁺ access (dual RHS and primal recovery)                            #
    # ------------------------------------------------------------------ #
    def _kplus(self, rhs: np.ndarray) -> np.ndarray:
        """``Kᵢ⁺`` on every block of a concatenated primal vector.

        One banded solve (two BLAS calls) on each pattern group's band
        (:meth:`~repro.sparse.group.PatternGroup.solve`); the per-subdomain
        loop is the oracle (``tests/oracles/kplus.py``).
        """
        if not self._preprocessed:
            raise RuntimeError("no CPU factorization available; run preprocess() first")
        out = np.empty_like(rhs)
        for group in self._groups:
            group.solve(rhs, out)
        return out

    def apply_accurate(self, lam: np.ndarray) -> np.ndarray:
        """Application ``q = F λ`` as ``B̃ K⁺ B̃ᵀ`` on the CPU factors.

        The implicit approaches' apply; on an explicit operator it is the
        reference the dense ``F̃ᵢ`` apply is checked against.
        """
        q = np.zeros(self.problem.n_lambda)
        if self.problem.subdomains:
            engine = self.batch_engine
            z = self._kplus(engine.Bt_product(engine.global_map.gather(np.asarray(lam))))
            engine.global_map.scatter_add(q, engine.B_product(z))
        return q

    def dual_rhs(self, loads: list[np.ndarray] | None = None) -> np.ndarray:
        """Compute ``d = B K⁺ f − c`` using the per-subdomain factorizations.

        ``loads`` are one load vector per subdomain; ``None`` reads every
        subdomain's current ``f``.
        """
        d = -np.array(self.problem.c, dtype=float, copy=True)
        if not self.problem.subdomains:
            return d
        engine = self.batch_engine
        f = np.concatenate(self.problem.loads(loads))
        engine.global_map.scatter_add(d, engine.B_product(self._kplus(f)))
        return d

    def primal_solution(
        self, lam: np.ndarray, alpha: np.ndarray, loads: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """Recover ``uᵢ = Kᵢ⁺ (fᵢ − B̃ᵢᵀ λ) + Rᵢ αᵢ`` (views of one vector)
        at ``loads`` (as in :meth:`dual_rhs`)."""
        if not self.problem.subdomains:
            return []
        engine = self.batch_engine
        f = np.concatenate(self.problem.loads(loads))
        u = self._kplus(f - engine.Bt_product(engine.global_map.gather(lam)))
        u += self.problem.R @ alpha
        bounds = engine.primal_offsets.tolist()
        return [u[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    # ------------------------------------------------------------------ #
    # Resident-storage accounting and tiering (repro.memory)              #
    # ------------------------------------------------------------------ #
    def storage_nbytes(self) -> dict[str, int]:
        """Byte-accurate resident *numeric* storage, split by kind.

        ``factor`` counts the numeric factors: each pattern group's
        ``(k, n, kd + 1)`` band of its members' ``L`` —
        not the symbolic analyses they point to: those index
        arrays are shared across cache entries through the pattern cache, so
        they sit outside the per-entry budget and are reported as
        ``pattern_bytes`` in ``Session.cache_stats()``
        (:attr:`repro.sparse.PatternCache.nbytes`); ``pack`` the assembled
        ``F̃ᵢ`` (which ``local_F`` only views): the padded pack of the blocks
        of fewer than ``SYMV_MIN_ROWS`` rows plus every larger block,
        unpadded, ``n_λᵢ²`` entries each; and ``arena`` the padded
        apply-scratch vector of the pack, which the batched engine keeps
        warm.  Only what the process holds counts: the
        simulated GPU's device memory is byte sizes, not arrays.  The session's
        :class:`~repro.memory.ledger.FactorLedger` records these per cache
        entry.
        """
        factor = sum(group.storage_nbytes() for group in self._groups)
        pack = arena = 0
        dense = self._batch_engine.dense if self._batch_engine is not None else None
        if dense is not None:
            pack += dense.nbytes
            arena += int(dense._p_pad.nbytes)
        return {"factor": int(factor), "pack": int(pack), "arena": int(arena)}

    def release(self) -> None:
        """Drop every numeric factor and ``F̃ᵢ`` (a cold or stale cache entry).

        The operator is no longer preprocessed: :meth:`apply` and
        :meth:`dual_rhs` raise until the next :meth:`preprocess`, which
        rebuilds the factors at the spec's own precision.  The structure
        stays warm — problem, symbolic analyses, Schur scatters and the
        price list.
        """
        self._drop_factors()
        if self._batch_engine is not None:
            self._batch_engine.dense = None
        self.storage_version = next(_STORAGE_VERSIONS)
