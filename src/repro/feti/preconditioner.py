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
its own row, so ``B D⁻¹ Bᵀ ≠ I``.  It is block diagonal — one
``(m−1) × (m−1)`` tridiagonal block per shared node-component, a ``1 × 1``
block ``1/μ`` per Dirichlet row — and inverting it block-wise restores
``B_D Bᵀ = I``: the jump operator ``B_Dᵀ B`` becomes a projection, and a
Dirichlet row of ``B_D`` is the row of ``B`` itself (coefficient 1, as
Total-FETI needs, not ``1/μ``).  ``B_D`` has the column support of ``B``.

**The Dirichlet ``Sᵢ`` from what the dual operator holds.**  ``Sᵢ`` is not
factorized: ``X = (K_reg⁻¹)_bb`` is the dual operator's by-product, and
``X⁻¹`` is the Schur complement ``S_reg`` of ``K_reg`` on ``b``.

* On an explicit operator ``X`` is a gather: every row of ``B̃ᵢ`` has one
  ±1 entry, at a DOF of ``b``; with one row ``r(d)`` per ``d ∈ b`` and its
  sign ``s``, ``X = diag(s) F̃ᵢ[r, r] diag(s)``.  On an implicit one it is
  one stacked Schur assembly per interface class with the selection ``E_b``
  in place of ``B̃ᵢ`` (:func:`~repro.sparse.schur.selection_scatters`).
* ``X`` is inverted by Cholesky: one batched ``np.linalg.cholesky`` per
  group of equal ``|bᵢ|`` below ``SYMV_MIN_ROWS`` rows, then ``dpotri`` in
  place; a larger block by ``dpotrf`` and ``dpotri`` on its whole side.
* ``K_reg − K`` is of the kernel's rank, so ``S_reg − Sᵢ`` is too, and the
  kernel term goes in closed form: ``Sᵢ = S_reg − T (R_bᵀ T)⁻¹ Tᵀ``, with
  ``T = S_reg R_b`` and ``R_b`` the kernel basis rows on ``b``
  (``Sᵢ R_b = 0``, as ``Kᵢ Rᵢ = 0`` demands).

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
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsymv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse.csgraph import connected_components

from repro.fem.assembly import PRUNE_TOLERANCE
from repro.feti.operators.batch import SYMV_MIN_ROWS
from repro.feti.problem import FetiProblem
from repro.sparse.schur import (
    interface_classes,
    schur_workspace,
    selection_scatters,
    stacked_schur_complement,
)
from repro.sparse.spmv import CsrProduct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.operators.base import DualOperator

__all__ = [
    "PreconditionerKind",
    "IdentityPreconditioner",
    "LumpedPreconditioner",
    "DirichletPreconditioner",
]

#: Rows of a source block gathered per step into a large ``X``.
_GATHER_ROWS = 32


class PreconditionerKind(enum.Enum):
    """Dual preconditioners selectable through the solver options."""

    NONE = "none"
    LUMPED = "lumped"
    DIRICHLET = "dirichlet"


class IdentityPreconditioner:
    """The do-nothing preconditioner (``M = I``)."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem

    def refresh(self) -> None:
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


def _block_diagonal_inverse(A: sp.spmatrix) -> sp.csr_matrix:
    """Inverse of a sparse matrix that is block diagonal up to a permutation.

    The blocks are the connected components of ``A``'s graph; all blocks of
    one size are inverted by a single batched ``np.linalg.inv``, so the cost
    is vectorized over the blocks and nothing ``n × n`` is ever dense.
    """
    A = A.tocoo()
    n = A.shape[0]
    n_blocks, block_of = connected_components(A, directed=False)
    size = np.bincount(block_of, minlength=n_blocks)
    # Rows grouped by block, and every row's position inside its block.
    grouped = np.argsort(block_of, kind="stable")
    start = np.cumsum(size) - size
    position = np.empty(n, dtype=np.int64)
    position[grouped] = np.arange(n) - start[block_of[grouped]]

    entry_block = block_of[A.row]
    rows, cols, vals = [], [], []
    for s in np.unique(size):
        blocks = np.flatnonzero(size == s)
        pick = size[entry_block] == s
        dense = np.zeros((blocks.size, s, s))
        slot = np.searchsorted(blocks, entry_block[pick])
        dense[slot, position[A.row[pick]], position[A.col[pick]]] = A.data[pick]
        members = grouped[start[blocks][:, None] + np.arange(s)]
        rows.append(np.repeat(members, s, axis=1).ravel())
        cols.append(np.tile(members, (1, s)).ravel())
        vals.append(np.linalg.inv(dense).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


def _nonredundant_scaled_gluing(problem: FetiProblem) -> sp.csr_matrix:
    """``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹`` with ``D`` the DOF multiplicities (CSR)."""
    ndofs = [sub.ndofs for sub in problem.subdomains]
    B = problem.gluing.global_B(ndofs)
    multiplicity = np.concatenate([sub.dof_multiplicity for sub in problem.subdomains])
    B_Dinv = (B @ sp.diags(1.0 / multiplicity)).tocsr()
    return (_block_diagonal_inverse(B_Dinv @ B.T) @ B_Dinv).tocsr()


class _AssembledPreconditioner:
    """``M = B_D · blockdiag(Opᵢ) · B_Dᵀ``, applied through one bound CSR kernel."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem
        self._B_D = _nonredundant_scaled_gluing(problem)
        self._B_Dt = self._B_D.T.tocsr()

    def refresh(self) -> None:
        """Reassemble ``M`` from the current stiffness values."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop what a :meth:`refresh` rebuilds (nothing beyond the CSR)."""

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

    def __init__(self, problem: FetiProblem) -> None:
        super().__init__(problem)
        self.refresh()

    def refresh(self) -> None:
        # One CSR block diagonal from the stiffness stacks' arrays.
        self._bind(self._B_D @ self.problem.block_diagonal("K") @ self._B_Dt)


class DirichletPreconditioner(_AssembledPreconditioner):
    """The Dirichlet preconditioner ``M = Σᵢ B̃_D,ᵢ Sᵢ B̃_D,ᵢᵀ``.

    ``Sᵢ`` is the Schur complement of ``Kᵢ`` on the subdomain's *constrained*
    DOFs ``bᵢ`` (those touched by any constraint row, ascending), built from
    the preprocessed ``operator`` (see the module docstring).  The
    subdomains are grouped by ``|bᵢ|``.  The ``Sᵢ`` below ``SYMV_MIN_ROWS``
    rows are summed into :attr:`matrix`; each larger one is held as one
    triangle of a square, two blocks of a group to an ``m × (m + 1)`` array,
    and applied by one BLAS ``dsymv``.
    """

    def __init__(self, problem: FetiProblem, operator: "DualOperator") -> None:
        super().__init__(problem)
        self.operator = operator
        e = problem.gluing.entries
        subdomain = e.subdomain
        # One slot per constrained DOF of each subdomain, by (subdomain, DOF):
        # its first row of B̃ᵢ and that row's sign.
        _, first = np.unique(subdomain * (int(e.ndofs.max()) + 1) + e.col, return_index=True)
        slot_sub = subdomain[first]
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
        # B_Dᵀ restricted to the slots, rows in group order: the small groups'
        # around the block diagonal of their Sᵢ, the large ones' around the
        # dsymv calls.
        offsets = np.concatenate([[0], np.cumsum([sub.ndofs for sub in problem.subdomains])])
        primal = offsets[slot_sub] + self._slot_dof

        def rows_of(groups) -> sp.csr_matrix:
            # Each row times its slot's sign: M = B_D D (D Sᵢ D) D B_Dᵀ, and
            # the blocks are the sign-free D Sᵢ D (see ``_interface_inverse``).
            slots = [slots.ravel() for _, slots in groups]
            slots = np.concatenate(slots).astype(np.int64) if slots else np.empty(0, np.int64)
            rows = self._B_Dt[primal[slots]]
            rows.data *= np.repeat(self._slot_sign[slots], np.diff(rows.indptr))
            return rows

        self._small_t = rows_of(small)
        self._small = self._small_t.T.tocsr()
        self._diagonal_pattern = _block_diagonal_pattern([slots.shape for _, slots in small])
        if large:
            large_t = rows_of(large)
            #: ``w ↦ B_D,largeᵀ w`` and ``z ↦ B_D,large z`` around the dsymv calls.
            self._large_t = CsrProduct(large_t)
            self._large_product = CsrProduct(large_t.T.tocsr())
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
        self._scatters = None
        self.refresh()

    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Rebuild every ``Sᵢ`` from the operator's current ``X`` and
        reassemble ``M``."""
        self.release()
        kernels = self.problem.kernel_stack
        # The squares share one mapping: off the heap, where they would pin
        # pages the next allocations cannot reuse, and returned to the
        # system whole by ``release()``.  So does the scratch the large
        # blocks are inverted in, for the length of the refresh.
        squares = _paired_squares(self._large_rows)
        sides = [m for m, _, _ in self._large_rows]
        scratch = schur_workspace(max(sides) ** 2) if sides else None
        stacks, out = [], iter(zip(squares, self._large_rows))
        for g, X in enumerate(self._interface_inverse()):
            members, slots = self._groups[g]
            R_b = kernels[members[:, None], self._slot_dof[slots]]
            R_b *= self._slot_sign[slots][:, :, None]
            if g < self._n_small:
                stacks.append(_dirichlet_schur(X, R_b))
            else:
                for (source, rows), R_i in zip(X, R_b):
                    S, (_, _, lower) = next(out)
                    _large_dirichlet_schur(source, rows, R_i, S, lower, scratch)
        del scratch
        n = self._small.shape[1]
        values = np.concatenate([S.ravel() for S in stacks] or [np.empty(0)])
        diagonal = sp.csr_matrix((values, *self._diagonal_pattern), shape=(n, n))
        self._bind(self._small @ diagonal @ self._small_t)
        self._stacks, self._squares = stacks, squares

    def release(self) -> None:
        """Drop the ``Sᵢ`` (the assembled CSR of the small ones stays)."""
        self._stacks = []
        self._squares = []

    def _interface_inverse(self):
        """``D X D`` of every group in turn: a ``(k, |b|, |b|)`` stack for a
        group below ``SYMV_MIN_ROWS``, else a ``(source, rows)`` pair per
        member, its ``D X D`` being ``source[rows][:, rows]``.

        ``X = (K_reg⁻¹)_bb`` and ``D = diag(s)``: on an explicit operator
        ``D X D = F̃ᵢ[r, r]`` is a gather of the stored block.  ``D`` is
        folded into the rows of ``B_D`` the blocks are applied between, so
        ``Sᵢ`` is held as ``D Sᵢ D`` (with ``D R_b`` for ``R_b``).
        """
        operator = self.operator
        if not operator.preprocessed:
            raise RuntimeError("the Dirichlet preconditioner needs a preprocessed dual operator")
        if not operator.explicit:
            for g, (X, (_, slots)) in enumerate(zip(self._assembled_inverse(), self._groups)):
                sign = self._slot_sign[slots]
                X *= sign[:, :, None]
                X *= sign[:, None, :]
                yield X if g < self._n_small else [(X_i, np.arange(len(X_i))) for X_i in X]
            return
        engine = operator.batch_engine
        for g, (members, slots) in enumerate(self._groups):
            rows = self._slot_row[slots]
            if g < self._n_small:
                yield engine.principal_blocks(members, rows)
            else:
                yield [(engine.dense_block(i), r) for i, r in zip(members.tolist(), rows)]

    def _assembled_inverse(self) -> list[np.ndarray]:
        """``X`` on an implicit operator: ``E_b K_reg⁻¹ E_bᵀ`` by one stacked
        Schur assembly per interface class of every pattern group."""
        groups = self.operator.pattern_groups
        where = {}  # subdomain -> (its size group, its position there)
        for g, (members, _) in enumerate(self._groups):
            for j, i in enumerate(members.tolist()):
                where[i] = (g, j)
        if self._scatters is None:
            bounds = self._slot_bounds
            self._scatters = [
                selection_scatters(
                    group.symbolic, [self._slot_dof[bounds[i] : bounds[i + 1]] for i in group.members]
                )
                for group in groups
            ]
        blocks = [np.empty((len(slots), slots.shape[1], slots.shape[1])) for _, slots in self._groups]
        for group, scatters in zip(groups, self._scatters):
            for cls in interface_classes(scatters):
                X = stacked_schur_complement(
                    group.symbolic, [group.band[j] for j in cls], [scatters[j] for j in cls]
                )
                for j, X_j in zip(cls, X):
                    g, position = where[group.members[j]]
                    blocks[g][position] = X_j
        return blocks

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
            raise RuntimeError("the Dirichlet blocks were released: refresh() first")
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
    indices, indptr = [], [np.zeros(1, dtype=np.int64)]
    first = stored = 0
    for k, m in shapes:
        columns = first + np.arange(k)[:, None, None] * m + np.arange(m)
        indices.append(np.broadcast_to(columns, (k, m, m)).ravel())
        indptr.append(stored + m * np.arange(1, k * m + 1))
        first += k * m
        stored += k * m * m
    return np.concatenate(indices or [np.empty(0, dtype=np.int64)]), np.concatenate(indptr)


def _mirror_lower(S: np.ndarray) -> None:
    """Copy the lower triangle of every block of ``S`` into its upper one."""
    m = S.shape[-1]
    np.copyto(S, S.transpose(0, 2, 1), where=np.triu(np.ones((m, m), dtype=bool), 1))


def _dirichlet_schur(X: np.ndarray, R_b: np.ndarray) -> np.ndarray:
    """``Sᵢ = S_reg − T (R_bᵀ T)⁻¹ Tᵀ``, ``S_reg = X⁻¹``, ``T = S_reg R_b``,
    for a ``(k, m, m)`` stack of SPD blocks ``X`` below ``SYMV_MIN_ROWS``
    rows and their ``(k, m, r)`` kernel rows ``R_b``.

    One batched Cholesky factorization, LAPACK ``dpotri`` in place on each
    factor, then the stack is mirrored and corrected as one.
    """
    S = np.linalg.cholesky(X)
    for L in S:
        # Lᵀ, F-contiguous, is the upper factor U of X = UᵀU: dpotri writes
        # the upper triangle of X⁻¹ over it, which is L's lower triangle.
        inverse, info = dpotri(L.T, lower=0, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpotri failed on a Dirichlet block (info={info})")
        assert np.shares_memory(inverse, L)
    _mirror_lower(S)
    T = S @ R_b
    S -= T @ np.linalg.solve(R_b.transpose(0, 2, 1) @ T, T.transpose(0, 2, 1))
    # Where Kᵢ has no path through the interior (a corner node of a P1
    # mesh), Sᵢ is exactly zero; computed through X⁻¹ it is rounding noise,
    # which would fill M with entries the exact operator does not have.
    scale = np.sqrt(np.abs(np.diagonal(S, axis1=1, axis2=2)))
    S[np.abs(S) <= PRUNE_TOLERANCE * scale[:, :, None] * scale[:, None, :]] = 0.0
    return S


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


def _in_place(result, array: np.ndarray) -> None:
    """Check that a BLAS / LAPACK call returned ``array`` itself, successfully."""
    out, info = result if isinstance(result, tuple) else (result, 0)
    if info != 0:
        raise np.linalg.LinAlgError(f"a Dirichlet block is not SPD (LAPACK info={info})")
    assert np.shares_memory(out, array)


def _large_dirichlet_schur(
    source: np.ndarray,
    rows: np.ndarray,
    R_b: np.ndarray,
    S: np.ndarray,
    lower: bool,
    scratch: np.ndarray,
) -> None:
    """:func:`_dirichlet_schur` of one block ``X = source[rows][:, rows]`` of
    ``SYMV_MIN_ROWS`` rows or more, into the lower (or upper) triangle of
    the square ``S``.

    ``X`` is gathered into ``scratch`` and inverted there by ``dpotrf`` and
    ``dpotri``; ``T`` takes one ``dsymv`` per kernel mode and the kernel
    term one ``dsyrk`` of ``V = C⁻¹ Tᵀ`` (``R_bᵀ T = C Cᵀ``).  Only the
    triangle ``S`` holds is written: the other may be its partner's.
    """
    m = rows.shape[0]
    # X is symmetric: its C-ordered gather is its F-ordered transpose.
    A = scratch[: m * m].reshape(m, m)
    # A few rows of the source at a time: no temporary of the block's size.
    for r0 in range(0, m, _GATHER_ROWS):
        A[r0 : r0 + _GATHER_ROWS] = source[rows[r0 : r0 + _GATHER_ROWS]][:, rows]
    A = A.T
    _in_place(dpotrf(A, lower=1, overwrite_a=1, clean=0), A)
    _in_place(dpotri(A, lower=1, overwrite_c=1), A)  # the lower triangle of X⁻¹
    T = np.column_stack([dsymv(1.0, A, np.ascontiguousarray(r), lower=1) for r in R_b.T])
    V = solve_triangular(np.linalg.cholesky(R_b.T @ T), T.T, lower=True)
    _in_place(dsyrk(-1.0, V, beta=1.0, c=A, trans=1, lower=1, overwrite_c=1), A)
    triangle = np.tri(m, dtype=bool)
    if lower:
        np.copyto(S, A, where=triangle)
    else:
        np.copyto(S, A.T, where=triangle.T)
