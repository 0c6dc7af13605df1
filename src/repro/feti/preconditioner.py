"""Explicitly assembled dual preconditioners for the PCPG iteration.

The paper's idea for ``F`` — assemble once what every iteration applies —
used for the preconditioner:

``M = Σᵢ Rᵢᵀ (B̃_D,ᵢ Opᵢ B̃_D,ᵢᵀ) Rᵢ = B_D · blockdiag(Opᵢ) · B_Dᵀ``.

``Opᵢ`` is the stiffness ``Kᵢ`` (:class:`LumpedPreconditioner`: ``M`` is
one ``n_λ × n_λ`` CSR matrix built by two global sparse products) or its
Schur complement ``Sᵢ`` on the constrained DOFs ``bᵢ``
(:class:`DirichletPreconditioner`).  Every apply runs the CSR kernel bound
once per assembly (:class:`~repro.sparse.spmv.CsrProduct`).

``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹`` is the scaled gluing matrix for
**non-redundant** multipliers (Klawonn & Widlund 2001; Rixen & Farhat 1999),
``D`` the diagonal of DOF multiplicities.  The plain ``B D⁻¹`` is a valid
scaling only when every pair of copies of a DOF has its own multiplier; the
gluing of :mod:`repro.decomposition.gluing` chains the ``m`` copies of a
cross-point DOF with ``m − 1`` rows and gives every Dirichlet DOF instance
its own row, so ``B D⁻¹ Bᵀ ≠ I``.  It is block diagonal — one tridiagonal
block ``T_m / m`` per chain, a ``1 × 1`` block ``1/μ`` per Dirichlet row —
so ``B_D`` comes by structure, with no inverse: one fixed table per chain
length (:func:`_scaled_gluing`), and a Dirichlet row of ``B_D`` is the row
of ``B`` itself (coefficient 1, as Total-FETI needs, not ``1/μ``).
``B_D Bᵀ = I`` holds exactly, so the jump operator ``B_Dᵀ B`` is a
projection.  ``B_D`` has the column support of ``B``.

**The Dirichlet ``Sᵢ`` from what the dual operator holds.**  ``Sᵢ`` is not
factorized: ``X = (K_reg⁻¹)_bb`` is the dual operator's by-product, and
``X⁻¹`` is the Schur complement ``S_reg`` of ``K_reg`` on ``b``.

* ``X`` is a gather of the explicit operator's ``F̃ᵢ``: every row of
  ``B̃ᵢ`` has one ±1 entry, at a DOF of ``b``; with one row ``r(d)`` per
  ``d ∈ b`` and its sign ``s``, ``X = diag(s) F̃ᵢ[r, r] diag(s)``.  An
  implicit operator holds no ``F̃ᵢ``, so the Dirichlet preconditioner needs
  an explicit approach: an implicit one raises
  :class:`~repro.api.spec.SpecError`, from ``SolverSpec`` and from
  :class:`DirichletPreconditioner` alike.
* ``X`` is inverted by Cholesky: ``_STEP`` blocks of equal ``|bᵢ|`` below
  ``SYMV_MIN_ROWS`` rows by one batched ``np.linalg.cholesky``, ``dpotri``
  in place on each; a larger block by ``dpotrf`` and ``dpotri``.
* ``K_reg − K`` is of the kernel's rank, so ``S_reg − Sᵢ`` is too, and the
  kernel term goes in closed form: ``Sᵢ = S_reg − T (R_bᵀ T)⁻¹ Tᵀ``, with
  ``T = S_reg R_b`` and ``R_b`` the kernel basis rows on ``b``
  (``Sᵢ R_b = 0``, as ``Kᵢ Rᵢ = 0`` demands).

Built per structure (spans ``scaled_gluing``, ``dirichlet_inverse``,
``dirichlet_assemble``), on one BLAS thread: 8.5 → 5.5 ms on heat 2D
``(8,8)x8 c4``, 101 → 68 ms on 1 024 subdomains (lumped 2.9 → 1.3, 20 → 12).

``M`` is then applied much as ``F̃`` is: the ``Sᵢ`` of fewer than
``SYMV_MIN_ROWS`` rows are summed into one assembled CSR, each larger one is
applied by one ``dsymv`` between ``B_Dᵀ`` and ``B_D``.  ``dsymv`` reads
one triangle of its square, so two large ``Sᵢ`` of one side ``m`` share an
``m × (m + 1)`` array: one is the lower triangle of its first ``m``
columns, the other the upper triangle of its last ``m``.  The blocks cost
the bytes of packed storage (2.7 MB on heat 3D ``(2,2,1)x12``, not the
5.4 MB of a square each) and apply 3x faster than packed ``dspmv``.

Like ``F``, ``M`` has a numeric-refresh lifecycle: ``B_D`` is fixed by the
mesh; ``refresh()`` re-reads the stiffness values (lumped) or the dual
operator's new ``X`` (Dirichlet) and reassembles ``M``.
:meth:`repro.feti.solver.FetiSolver.preprocess` calls ``release()`` before
the dual operator re-preprocesses and ``refresh()`` after, so ``M`` follows
``K`` exactly when the factorization does and the old blocks never coexist
with the Schur assembly's workspace.  The per-subdomain loop and the
``splu`` Schur complement this replaced are the test oracle
``tests/oracles/preconditioner.py``.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from typing import TYPE_CHECKING, NoReturn

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsymv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotri

from repro.fem.assembly import PRUNE_TOLERANCE
from repro.feti.operators.batch import SYMV_MIN_ROWS
from repro.feti.problem import FetiProblem
from repro.observe.trace import trace_span
from repro.sparse.schur import schur_workspace
from repro.sparse.spmv import CsrProduct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.config import DualOperatorApproach
    from repro.feti.operators.base import DualOperator

__all__ = [
    "PreconditionerKind",
    "IdentityPreconditioner",
    "LumpedPreconditioner",
    "DirichletPreconditioner",
]

#: Rows of a large ``X``, or small ``X``, handled per step (kept in cache).
_STEP = 32


class PreconditionerKind(enum.Enum):
    """Dual preconditioners selectable through the solver options."""

    NONE = "none"
    LUMPED = "lumped"
    DIRICHLET = "dirichlet"


class IdentityPreconditioner:
    """The do-nothing preconditioner (``M = I``)."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem

    def refresh(self, K: Sequence[np.ndarray] | None = None) -> None:
        """Nothing depends on the stiffness values."""

    def release(self) -> None:
        """Nothing to release."""

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Return ``w`` unchanged."""
        return w

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Return the block unchanged."""
        return W

    __call__ = apply


def _released(*_) -> NoReturn:
    raise RuntimeError("the preconditioner was released: refresh() first")


def _scaled_gluing(problem: FetiProblem) -> tuple[np.ndarray, sp.csr_matrix]:
    """``B_Dᵀ`` (one row per DOF of every subdomain), in closed form from the
    gluing chains, and the constrained DOFs of every subdomain (its *slots*,
    by ``(subdomain, DOF)``), each as the gluing entry of its first row.

    :func:`~repro.decomposition.gluing.build_gluing` chains the ``m`` copies
    of a glued DOF, all of multiplicity ``m``, by ``m − 1`` consecutive rows
    ``u_k − u_{k+1}``, so a chain's block of ``B_D`` is the fixed table
    ``T_m⁻¹ B_chain``: row ``j`` holds ``(m − 1 − j) / m`` on the copies
    ``k ≤ j`` and ``−(j + 1) / m`` on the others, exact for the ``m`` of a
    box decomposition (2, 4, 8).  A Dirichlet row is its own row of ``B``.
    """
    e = problem.gluing.entries
    n = problem.gluing.n_gluing
    dof = np.repeat(np.cumsum(e.ndofs) - e.ndofs, e.counts) + e.col  # global DOF
    _, first = np.unique(dof, return_index=True)
    # A gluing row continues the chain of the row before it when its + copy
    # is that row's − copy; row n stands for every Dirichlet row.
    copy = np.empty((2, n), dtype=np.int64)
    glued = e.lam < n
    copy[(e.val[glued] < 0).astype(np.intp), e.lam[glued]] = dof[glued]
    opens = np.ones(n + 1, dtype=bool)
    opens[1:n] = copy[0, 1:] != copy[1, :-1]
    start = np.flatnonzero(opens)
    chain = np.cumsum(opens) - 1
    position = np.arange(n + 1) - start[chain]
    copies = np.diff(start, append=n + 1)[chain] + 1  # m (2 on row n)
    row = e.lam[first]
    at = np.minimum(row, n)
    m = copies[at]
    counts = np.zeros(int(e.ndofs.sum()), dtype=np.int32)
    counts[dof[first]] = m - 1
    indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int32)])
    j = np.arange(indptr[-1]) - np.repeat(indptr[dof[first]], m - 1)
    indices = (np.repeat(row - position[at], m - 1) + j).astype(np.int32)
    k = np.repeat(position[at] + (e.val[first] < 0), m - 1)
    m = np.repeat(m, m - 1)
    data = np.where(k <= j, m - 1 - j, -1 - j) / m
    dirichlet = row >= n
    data[indptr[dof[first][dirichlet]]] = e.val[first][dirichlet]
    return first, sp.csr_matrix((data, indices, indptr), shape=(counts.size, problem.n_lambda))


class _AssembledPreconditioner:
    """``M = B_D · blockdiag(Opᵢ) · B_Dᵀ``, applied through one bound CSR kernel."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem

    def refresh(self, K: Sequence[np.ndarray] | None = None) -> None:
        """Reassemble ``M`` at the stiffness values ``K`` (``None``: built)."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop ``M``: nothing applies until the next :meth:`refresh`."""
        self.matrix, self.product = None, _released

    def _bind(self, matrix: sp.csr_matrix) -> None:
        #: The assembled preconditioner (``n_λ × n_λ`` CSR).
        self.matrix = matrix
        #: ``w ↦ M w``, the kernel bound to this assembly.
        self.product = CsrProduct(matrix)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply ``M w`` (one SpMV)."""
        return self.product(w)

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Apply ``M`` to every column (one SpMM, bitwise equal to per-column)."""
        return self.product(W)

    __call__ = apply


class LumpedPreconditioner(_AssembledPreconditioner):
    """The lumped preconditioner ``M = Σᵢ B̃_D,ᵢ Kᵢ B̃_D,ᵢᵀ``."""

    def __init__(self, problem: FetiProblem, K: Sequence[np.ndarray] | None = None) -> None:
        super().__init__(problem)
        with trace_span("scaled_gluing"):
            #: ``B_Dᵀ``, one row per DOF of every subdomain, and ``B_D``.
            self._B_Dt = _scaled_gluing(problem)[1]
            self._B_D = self._B_Dt.T.tocsr()
        self.refresh(K)

    def refresh(self, K: Sequence[np.ndarray] | None = None) -> None:
        # One CSR block diagonal from the stiffness values' arrays.
        self._bind(self._B_D @ self.problem.block_diagonal("K", K) @ self._B_Dt)


class DirichletPreconditioner(_AssembledPreconditioner):
    """The Dirichlet preconditioner ``M = Σᵢ B̃_D,ᵢ Sᵢ B̃_D,ᵢᵀ``.

    ``Sᵢ`` is the Schur complement of ``Kᵢ`` on the subdomain's *constrained*
    DOFs ``bᵢ`` (those touched by any constraint row, ascending), built from
    the preprocessed ``operator`` (see the module docstring).  The
    subdomains are grouped by ``|bᵢ|``.  The ``Sᵢ`` below ``SYMV_MIN_ROWS``
    rows are summed into :attr:`matrix`; each larger one is held as one
    triangle of a square, two blocks of a group to an ``m × (m + 1)`` array,
    and applied by one BLAS ``dsymv``.  An implicit ``operator`` raises
    :class:`~repro.api.spec.SpecError` (see :meth:`require_explicit`).
    """

    def __init__(self, problem: FetiProblem, operator: "DualOperator") -> None:
        self.require_explicit(operator.approach)
        super().__init__(problem)
        self.operator = operator
        with trace_span("scaled_gluing"):
            first, B_Dt = _scaled_gluing(problem)
            e = problem.gluing.entries
            # One slot per constrained DOF of each subdomain, by (subdomain,
            # DOF): its first row of B̃ᵢ and that row's sign.
            slot_sub = e.subdomain[first]
            self._slot_dof = e.col[first]
            self._slot_row = first - e.bounds[slot_sub]
            self._slot_sign = e.val[first]
            sizes = np.bincount(slot_sub, minlength=problem.n_subdomains)
            #: Subdomain ``i``'s slots are ``_slot_bounds[i]:_slot_bounds[i + 1]``.
            self._slot_bounds = np.concatenate([[0], np.cumsum(sizes)])
            #: Per group of equal ``|bᵢ|``: its subdomains and their ``(k, |b|)``
            #: slots; the groups below ``SYMV_MIN_ROWS`` first.
            self._groups: list[tuple[np.ndarray, np.ndarray]] = []
            for size in sorted(set(sizes[sizes > 0].tolist()), key=lambda m: (m >= SYMV_MIN_ROWS, m)):
                members = np.flatnonzero(sizes == size)
                self._groups.append((members, self._slot_bounds[members][:, None] + np.arange(size)))
            self._n_small = sum(slots.shape[1] < SYMV_MIN_ROWS for _, slots in self._groups)
            small, large = self._groups[: self._n_small], self._groups[self._n_small :]
            # B_Dᵀ restricted to the slots, rows in group order: the small
            # groups' around the block diagonal of their Sᵢ, the large ones'
            # around the dsymv calls.
            primal = (np.cumsum(e.ndofs) - e.ndofs)[slot_sub] + self._slot_dof

            def rows_of(groups) -> sp.csr_matrix:
                # Each row times its slot's sign: M = B_D D (D Sᵢ D) D B_Dᵀ, and
                # the blocks are the sign-free D Sᵢ D (see ``refresh``).
                slots = [slots.ravel() for _, slots in groups]
                slots = np.concatenate(slots) if slots else np.empty(0, np.int64)
                rows = B_Dt[primal[slots]]
                rows.data *= np.repeat(self._slot_sign[slots], np.diff(rows.indptr))
                return rows

            self._small_t = rows_of(small)
            self._small = self._small_t.T.tocsr()
            if large:
                large_t = rows_of(large)
                #: ``w ↦ B_D,largeᵀ w`` and ``z ↦ B_D,large z`` around the dsymv calls.
                self._large_t = CsrProduct(large_t)
                self._large_product = CsrProduct(large_t.T.tocsr())
        self._diagonal_pattern = _block_diagonal_pattern([slots.shape for _, slots in small])
        sides = [slots.shape[1] for _, slots in large for _ in slots]
        #: Each large block's side, first row in ``B_D,largeᵀ w`` and
        #: triangle: the first of a pair of equal sides (every group's
        #: members pair up in order) is a lower one, the second an upper one.
        lower = [j % 2 == 0 for _, slots in large for j in range(len(slots))]
        self._large_rows = list(zip(sides, np.cumsum([0] + sides)[:-1].tolist(), lower))
        #: The small groups' ``(k, |b|, |b|)`` stacks of ``D Sᵢ D``.
        self._stacks: list[np.ndarray] = []
        #: The large ``D Sᵢ D``: one F-contiguous square each, in group
        #: order, of which ``dsymv`` reads the triangle ``_large_rows`` names.
        self._squares: list[np.ndarray] = []
        self.refresh()

    @staticmethod
    def require_explicit(approach: "DualOperatorApproach") -> None:
        """Raise :class:`~repro.api.spec.SpecError` unless ``approach``
        assembles ``F̃ᵢ``: the ``Sᵢ`` are gathered from them."""
        if approach.is_explicit:
            return
        from repro.api.spec import SpecError  # repro.api imports this module

        explicit = ", ".join(repr(a.value) for a in type(approach) if a.is_explicit)
        raise SpecError(
            "the Dirichlet preconditioner gathers its Sᵢ from the assembled F̃ᵢ, so it "
            f"needs an explicit approach ({explicit}); {approach.value!r} is implicit: "
            "use an explicit approach, or preconditioner 'lumped' or 'none'"
        )

    # ------------------------------------------------------------------ #
    def refresh(self, K: Sequence[np.ndarray] | None = None) -> None:
        """Rebuild every ``Sᵢ`` from the operator's current ``F̃ᵢ`` and
        reassemble ``M`` (``K`` is unused: the ``F̃ᵢ`` hold the values).

        ``X = (K_reg⁻¹)_bb`` and ``D = diag(s)``: ``D X D = F̃ᵢ[r, r]`` is a
        gather of the stored block.  ``D`` is folded into the rows of ``B_D``
        the blocks are applied between, so ``Sᵢ`` is held as ``D Sᵢ D``
        (with ``D R_b`` for ``R_b``).
        """
        if not self.operator.preprocessed:
            raise RuntimeError("the Dirichlet preconditioner needs a preprocessed dual operator")
        self.release()
        engine = self.operator.batch_engine
        kernels = self.problem.kernel_stack
        with trace_span("dirichlet_inverse"):
            # The squares share one mapping: off the heap, where they would
            # pin pages the next allocations cannot reuse, and returned to
            # the system whole by ``release()``.  So does the scratch the
            # large blocks are inverted in, for the length of the refresh.
            squares = _paired_squares(self._large_rows)
            sides = [m for m, _, _ in self._large_rows]
            scratch = schur_workspace(max(sides) ** 2) if sides else None
            stacks, out = [], iter(zip(squares, self._large_rows))
            for g, (members, slots) in enumerate(self._groups):
                rows = self._slot_row[slots]
                R_b = kernels[members[:, None], self._slot_dof[slots]]
                R_b *= self._slot_sign[slots][:, :, None]
                if g < self._n_small:
                    stacks.append(_dirichlet_schur(engine.principal_blocks, members, rows, R_b))
                else:
                    for i, rows_i, R_i in zip(members.tolist(), rows, R_b):
                        S, (_, _, lower) = next(out)
                        _large_dirichlet_schur(engine.dense_block(i), rows_i, R_i, S, lower, scratch, i)
            del scratch
        with trace_span("dirichlet_assemble"):
            n = self._small.shape[1]
            values = np.concatenate([S.ravel() for S in stacks] or [np.empty(0)])
            diagonal = sp.csr_matrix((values, *self._diagonal_pattern), shape=(n, n))
            self._bind(self._small @ diagonal @ self._small_t)
        self._stacks, self._squares = stacks, squares

    def release(self) -> None:
        """Drop ``M``: the assembled CSR and every ``Sᵢ``."""
        super().release()
        self._stacks = []
        self._squares = []

    # ------------------------------------------------------------------ #
    @property
    def local_S(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``{i: (bᵢ, Sᵢ)}``: every subdomain's constrained DOFs and ``Sᵢ``
        (dense copies with the signs restored; empty after :meth:`release`)."""
        if not (self._stacks or self._squares):
            return {}
        large = iter(zip(self._squares, self._large_rows))
        out = {}
        for g, (members, slots) in enumerate(self._groups):
            for j, (i, slots_i) in enumerate(zip(members.tolist(), slots)):
                if g < self._n_small:
                    S = self._stacks[g][j].copy()
                else:
                    square, (_, _, lower) = next(large)
                    S = np.tril(square) if lower else np.triu(square).T
                    S += np.tril(S, -1).T
                sign = self._slot_sign[slots_i]
                out[i] = (self._slot_dof[slots_i], sign[:, None] * S * sign[None, :])
        return out

    def _symv(self, w: np.ndarray) -> np.ndarray:
        """``B_D,large · blockdiag(Sᵢ) · B_D,largeᵀ w``: one ``dsymv`` a block."""
        if not self._squares:
            _released()
        u = self._large_t(w)
        z = np.zeros(u.shape[0])
        for (_, first, lower), S in zip(self._large_rows, self._squares):
            dsymv(1.0, S, u, offx=first, y=z, offy=first, lower=lower, overwrite_y=1)
        return self._large_product(z)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply ``M w``: one SpMV over the small blocks, one ``dsymv`` per
        large block."""
        if not self._large_rows:
            return self.product(w)
        out = self._symv(w)
        if self._n_small:
            out += self.product(w)
        return out

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Apply ``M`` to every column, bitwise equal to per-column :meth:`apply`."""
        if not self._large_rows:
            return self.product(W)
        out = np.column_stack([self._symv(np.ascontiguousarray(w)) for w in W.T])
        if self._n_small:
            out += self.product(W)
        return out

    __call__ = apply


def _block_diagonal_pattern(shapes: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indices, indptr)`` of the block diagonal of ``k`` dense blocks
    of side ``m`` per ``(k, m)`` in ``shapes``, each block row-major."""
    # int32, as SciPy stores them: its constructor then neither scans nor
    # converts them.
    indices, indptr = [], [np.zeros(1, dtype=np.int32)]
    first = stored = 0
    for k, m in shapes:
        columns = np.arange(first, first + k * m, dtype=np.int32).reshape(k, 1, m)
        indices.append(np.broadcast_to(columns, (k, m, m)).ravel())
        indptr.append(np.arange(stored + m, stored + m * (k * m + 1), m, dtype=np.int32))
        first += k * m
        stored += k * m * m
    return np.concatenate(indices or [np.empty(0, dtype=np.int32)]), np.concatenate(indptr)


def _not_spd(subdomain: int, size: int, info: int = 0) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(f"the Dirichlet X of subdomain {subdomain} (|bᵢ| = {size}) is not SPD (info={info})")


def _dirichlet_schur(
    principal_blocks, members: np.ndarray, rows: np.ndarray, R_b: np.ndarray
) -> np.ndarray:
    """``Sᵢ = S_reg − T (R_bᵀ T)⁻¹ Tᵀ``, ``S_reg = X⁻¹``, ``T = S_reg R_b``,
    for SPD blocks ``X`` below ``SYMV_MIN_ROWS`` rows (of the subdomains
    ``members``, ``principal_blocks(members[step], rows[step])`` those of a
    slice) and their ``(k, m, r)`` kernel rows ``R_b``, ``_STEP`` at a time:
    one batched Cholesky, LAPACK ``dpotri`` in place on each factor, then
    the step's stack at once.
    """
    k, m, r = R_b.shape
    out = np.empty((k, m, m))
    for c in range(0, k, _STEP):
        step = slice(c, c + _STEP)
        X = principal_blocks(members[step], rows[step])
        R, subdomains = R_b[step], members[step].tolist()
        try:
            S = np.linalg.cholesky(X)
        except np.linalg.LinAlgError:  # name the block that is least SPD
            raise _not_spd(subdomains[np.linalg.eigvalsh(X)[:, 0].argmin()], m) from None
        for i, L in zip(subdomains, S):
            # Lᵀ, F-contiguous, is the upper factor U of X = UᵀU: dpotri
            # writes the upper triangle of X⁻¹ over it, L's lower triangle.
            inverse, info = dpotri(L.T, lower=0, overwrite_c=1)
            if info != 0:
                raise _not_spd(i, m, info)
            assert np.shares_memory(inverse, L)
        # The strict upper triangle is zero: S + Sᵀ is X⁻¹, its diagonal twice.
        S += S.transpose(0, 2, 1)
        diagonal = S.reshape(len(S), m * m)[:, :: m + 1]
        diagonal *= 0.5
        # (R_bᵀ T)⁻¹ by its Cholesky factor, one kernel mode at a time: each
        # mode's T column, made S-orthogonal to the ones before, is a
        # rank-one update u uᵀ with u = t / √(rᵀ t).
        T = S @ R
        for a in range(r):
            u = T[:, :, a] / np.sqrt(np.einsum("km,km->k", R[:, :, a], T[:, :, a]))[:, None]
            if a + 1 < r:
                T[:, :, a + 1 :] -= u[:, :, None] * (u[:, None, :] @ R[:, :, a + 1 :])
            S -= u[:, :, None] * u[:, None, :]
        # Where Kᵢ has no path through the interior (a corner node of a P1
        # mesh), Sᵢ is exactly zero; computed through X⁻¹ it is rounding
        # noise, which would fill M with entries the exact operator lacks.
        scale = np.sqrt(PRUNE_TOLERANCE * np.abs(diagonal))
        np.multiply(S, np.abs(S) > scale[:, :, None] * scale[:, None, :], out=out[step])
    return out


def _paired_squares(large_rows: list[tuple[int, int, bool]]) -> list[np.ndarray]:
    """One F-contiguous ``m × m`` square per large block, on one mapping.

    A lower block and the upper one after it share an ``m × (m + 1)`` array
    (the upper block's square starts one column later); a lower block with
    no partner has an ``m × m`` array of its own.
    """
    sizes = []
    for j, (m, _, lower) in enumerate(large_rows):
        if lower:
            paired = j + 1 < len(large_rows) and not large_rows[j + 1][2]
            sizes.append(m * (m + 1) if paired else m * m)
    bounds = np.cumsum([0] + sizes).tolist()
    storage = schur_workspace(bounds[-1]) if sizes else None
    squares, regions = [], iter(zip(bounds[:-1], bounds[1:]))
    for m, _, lower in large_rows:
        if lower:
            first, end = next(regions)
            # C-ordered (columns, m) is the F-ordered (m, columns).
            array = storage[first:end].reshape(-1, m).T
        squares.append(array[:, :m] if lower else array[:, 1:])
    return squares


def _in_place(result, array: np.ndarray, subdomain: int) -> None:
    """Check that a BLAS / LAPACK call returned ``array`` itself, successfully."""
    out, info = result if isinstance(result, tuple) else (result, 0)
    if info != 0:
        raise _not_spd(subdomain, array.shape[0], info)
    assert np.shares_memory(out, array)


def _large_dirichlet_schur(
    source: np.ndarray,
    rows: np.ndarray,
    R_b: np.ndarray,
    S: np.ndarray,
    lower: bool,
    scratch: np.ndarray,
    subdomain: int,
) -> None:
    """:func:`_dirichlet_schur` of one block ``X = source[rows][:, rows]`` of
    ``SYMV_MIN_ROWS`` rows or more (of the subdomain ``subdomain``), into the
    lower (or upper) triangle of the square ``S``.

    ``X`` is gathered into ``scratch`` and inverted there by ``dpotrf`` and
    ``dpotri``; ``T`` takes one ``dsymv`` per kernel mode and the kernel
    term one ``dsyrk`` of ``V = C⁻¹ Tᵀ`` (``R_bᵀ T = C Cᵀ``).  Only the
    triangle ``S`` holds is written: the other may be its partner's.
    """
    m = rows.shape[0]
    # X is symmetric: its C-ordered gather is its F-ordered transpose.
    A = scratch[: m * m].reshape(m, m)
    if rows[0] + m - 1 == rows[-1] and np.array_equal(rows, np.arange(rows[0], rows[0] + m)):
        A[...] = source[rows[0] : rows[0] + m, rows[0] : rows[0] + m]
    else:  # a few rows of the source at a time: no temporary of the block's size
        for r0 in range(0, m, _STEP):
            A[r0 : r0 + _STEP] = source[rows[r0 : r0 + _STEP]][:, rows]
    A = A.T
    _in_place(dpotrf(A, lower=1, overwrite_a=1, clean=0), A, subdomain)
    _in_place(dpotri(A, lower=1, overwrite_c=1), A, subdomain)  # the lower triangle of X⁻¹
    T = np.column_stack([dsymv(1.0, A, np.ascontiguousarray(r), lower=1) for r in R_b.T])
    V = solve_triangular(np.linalg.cholesky(R_b.T @ T), T.T, lower=True)
    _in_place(dsyrk(-1.0, V, beta=1.0, c=A, trans=1, lower=1, overwrite_c=1), A, subdomain)
    triangle = np.tri(m, dtype=bool)
    if lower:
        np.copyto(S, A, where=triangle)
    else:
        np.copyto(S, A.T, where=triangle.T)
