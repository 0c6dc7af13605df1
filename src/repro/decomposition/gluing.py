"""Construction of the Total-FETI gluing matrices ``B̃ᵢ``.

Two kinds of constraint rows are produced:

* **gluing rows** — equality of the duplicated interface DOFs between
  neighbouring subdomains (``u_i[a] - u_j[b] = 0``); a DOF shared by ``m``
  subdomains produces ``m - 1`` chained, non-redundant rows,
* **Dirichlet rows** — the Total-FETI treatment of Dirichlet boundary
  conditions: every constrained DOF instance gets its own row
  (``u_i[a] = g``) and the prescribed value goes to the dual right-hand side
  ``c``.  Interface gluing is skipped for Dirichlet-constrained DOFs so the
  constraint set stays non-redundant.

Every Lagrange multiplier has a *global* index; each subdomain only stores
the multipliers connected to it (``lambda_ids``) and a local matrix ``B`` of
shape ``(len(lambda_ids), ndofs)``, exactly as the paper describes for the
local dual operators ``F̃ᵢ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.decomposition.partition import BoxDecomposition

__all__ = [
    "SubdomainGluing",
    "GluingEntries",
    "GluingData",
    "build_gluing",
    "flat_scatter_maps",
]


def flat_scatter_maps(
    lambda_ids: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-subdomain multiplier indices into fancy-index arrays.

    The per-subdomain scatter/gather of the dual operators

    * ``local = global[lambda_ids_i]``  (scatter), and
    * ``np.add.at(global, lambda_ids_i, local)``  (gather)

    can run as *one* vectorized take / ``np.add.at`` over all subdomains when
    the index arrays are concatenated.  Returns ``(flat_ids, offsets)`` where
    ``flat_ids`` is the concatenation of all ``lambda_ids`` and ``offsets``
    (length ``len(lambda_ids) + 1``) delimits each subdomain's slice.
    """
    ids = [np.asarray(a, dtype=np.int64) for a in lambda_ids]
    sizes = np.array([a.shape[0] for a in ids], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    flat = (
        np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
    )
    return flat, offsets


class SubdomainGluing:
    """Gluing information restricted to one subdomain.

    Attributes
    ----------
    lambda_ids:
        Sorted global indices of the Lagrange multipliers connected to this
        subdomain; the rows of ``B`` follow this order.
    B:
        Signed Boolean constraint matrix, shape ``(len(lambda_ids), ndofs)``.
        :func:`build_gluing` leaves it to be built on first read from the
        subdomain's run of :class:`GluingEntries`; nothing on the solve path
        reads it.
    dof_multiplicity:
        For every local DOF, the number of subdomains sharing the underlying
        physical DOF (1 for interior DOFs).  It is the diagonal ``D`` of the
        preconditioners' scaled gluing matrix ``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹``
        (:mod:`repro.feti.preconditioner`).  ``B D⁻¹`` alone is not a valid
        scaling here: the ``m`` copies of a shared DOF are chained by
        ``m − 1`` non-redundant rows and a shared Dirichlet DOF has one row
        per copy, so ``B D⁻¹ Bᵀ`` is block tridiagonal, not the identity.
    """

    def __init__(
        self,
        lambda_ids: np.ndarray,
        B: sp.csr_matrix | None = None,
        dof_multiplicity: np.ndarray | None = None,
        *,
        entries: tuple[np.ndarray, np.ndarray, int] | None = None,
    ) -> None:
        if (B is None) == (entries is None):
            raise ValueError("give either B or its entries (cols, vals, ndofs)")
        self.lambda_ids = lambda_ids
        self.dof_multiplicity = dof_multiplicity
        self._B = B
        #: ``(cols, vals, ndofs)``: row ``r`` of ``B`` is ``vals[r]`` at ``cols[r]``.
        self._entries = entries

    @property
    def B(self) -> sp.csr_matrix:
        """``B̃ᵢ`` (built on first read when the gluing gave its entries)."""
        if self._B is None:
            cols, vals, ndofs = self._entries
            n = cols.shape[0]
            self._B = sp.csr_matrix((vals, cols, np.arange(n + 1)), shape=(n, ndofs))
        return self._B

    @property
    def n_lambda(self) -> int:
        """Number of multipliers connected to the subdomain."""
        return int(self.lambda_ids.shape[0])


@dataclass(frozen=True)
class GluingEntries:
    """Every subdomain's ``B̃ᵢ`` as one list of entries.

    A multiplier touches a subdomain once, so every row of ``B̃ᵢ`` holds
    exactly one entry: entry ``e`` is row ``e − bounds[i]`` of the ``B̃ᵢ``
    of the subdomain ``i`` whose run ``bounds[i]:bounds[i + 1]`` holds it,
    with value ``val[e]`` at local DOF ``col[e]``.  The entries are sorted by
    ``(subdomain, λ)``, so ``lam`` is also the concatenation of every
    ``lambda_ids``.  Every global matrix made of the ``B̃ᵢ`` (``B``, the
    block-diagonal ``B̃``, ``G = B R``) is one vectorized pass over them.
    """

    lam: np.ndarray
    col: np.ndarray
    val: np.ndarray
    #: ``(n_subdomains + 1,)`` run boundaries.
    bounds: np.ndarray
    #: ``(n_subdomains,)`` columns of every ``B̃ᵢ``.
    ndofs: np.ndarray

    @classmethod
    def of(cls, per_subdomain: Sequence[SubdomainGluing]) -> "GluingEntries":
        """The entries of given ``B̃ᵢ`` (each with one entry per row)."""
        lam, col, val = [], [], []
        for sub in per_subdomain:
            B = sub.B.tocsr()
            if not np.all(np.diff(B.indptr) == 1):
                raise ValueError("every row of a B̃ᵢ must hold exactly one entry")
            lam.append(np.asarray(sub.lambda_ids, dtype=np.int64))
            col.append(B.indices.astype(np.int64))
            val.append(np.asarray(B.data, dtype=float))
        counts = [a.size for a in lam]
        return cls(
            lam=np.concatenate(lam) if lam else np.empty(0, dtype=np.int64),
            col=np.concatenate(col) if col else np.empty(0, dtype=np.int64),
            val=np.concatenate(val) if val else np.empty(0),
            bounds=np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64),
            ndofs=np.array([sub.B.shape[1] for sub in per_subdomain], dtype=np.int64),
        )

    @property
    def counts(self) -> np.ndarray:
        """Entries (= rows) of every ``B̃ᵢ``."""
        return np.diff(self.bounds)

    @property
    def subdomain(self) -> np.ndarray:
        """The subdomain of every entry."""
        return np.repeat(np.arange(self.ndofs.shape[0]), self.counts)

    def rows_of(self, subdomains: Sequence[int]) -> tuple[sp.csr_matrix, np.ndarray]:
        """The ``B̃ᵢ`` of ``subdomains`` stacked by rows, and their row bounds.

        All of them must have the same number of columns (one symbolic
        analysis); one CSR construction for the whole group.
        """
        subdomains = np.asarray(subdomains, dtype=np.int64)
        ndofs = self.ndofs[subdomains]
        if ndofs.size and np.any(ndofs != ndofs[0]):
            raise ValueError("the stacked B̃ᵢ must have the same number of columns")
        lo = self.bounds[subdomains]
        sizes = self.bounds[subdomains + 1] - lo
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        take = np.arange(bounds[-1]) + np.repeat(lo - bounds[:-1], sizes)
        B = sp.csr_matrix(
            (self.val[take], self.col[take], np.arange(bounds[-1] + 1)),
            shape=(int(bounds[-1]), int(ndofs[0]) if ndofs.size else 0),
        )
        return B, bounds


@dataclass
class GluingData:
    """Global gluing data of a decomposition.

    Attributes
    ----------
    n_lambda:
        Total number of Lagrange multipliers (rows of the global ``B``).
    n_gluing, n_dirichlet:
        Split of ``n_lambda`` into interface-gluing and Dirichlet rows.
    c:
        Dual right-hand side contribution of the constraints (zeros for
        gluing rows, prescribed values for Dirichlet rows), shape
        ``(n_lambda,)``.
    per_subdomain:
        One :class:`SubdomainGluing` per subdomain, ordered by index.
    dofs_per_node:
        DOFs per mesh node used when the constraints were generated.
    entries:
        Every ``B̃ᵢ`` as one sorted entry list (:class:`GluingEntries`);
        derived from ``per_subdomain`` when not given.
    """

    n_lambda: int
    n_gluing: int
    n_dirichlet: int
    c: np.ndarray
    per_subdomain: list[SubdomainGluing]
    dofs_per_node: int
    entries: GluingEntries | None = None

    def __post_init__(self) -> None:
        if self.entries is None:
            self.entries = GluingEntries.of(self.per_subdomain)

    def scatter_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat scatter/gather index maps over all subdomains.

        See :func:`flat_scatter_maps`: ``lambda_ids`` concatenated (the
        entries' ``lam``) and the subdomains' offsets into it.
        """
        return self.entries.lam, self.entries.bounds

    def global_B(self, ndofs_per_subdomain: Sequence[int]) -> sp.csr_matrix:
        """The global ``B = [B_1, B_2, ..., B_N]``, one pass over the entries.

        The lumped and Dirichlet preconditioners scale it
        (:mod:`repro.feti.preconditioner`) and the saddle-point oracle
        assembles it.

        Parameters
        ----------
        ndofs_per_subdomain:
            DOF counts of all subdomains (defines the column blocks).
        """
        e = self.entries
        offsets = np.concatenate([[0], np.cumsum(ndofs_per_subdomain)])
        return sp.coo_matrix(
            (e.val, (e.lam, e.col + np.repeat(offsets[:-1], e.counts))),
            shape=(self.n_lambda, int(offsets[-1])),
        ).tocsr()


def _on_dirichlet_faces(
    coords: np.ndarray,
    box_size: Sequence[float],
    faces: Sequence[str],
    tol: float = 1e-12,
) -> np.ndarray:
    """Which of the ``(nnodes, dim)`` coordinates lie on the *global* box faces."""
    dim = coords.shape[1]
    hi = np.asarray(box_size, dtype=float)
    mask = np.zeros(coords.shape[0], dtype=bool)
    for face in faces:
        axis = {"x": 0, "y": 1, "z": 2}[face[0]]
        if axis >= dim:
            raise ValueError(f"face {face!r} invalid for a {dim}D problem")
        value = 0.0 if face.endswith("min") else hi[axis]
        mask |= np.abs(coords[:, axis] - value) <= tol
    return mask


def build_gluing(
    decomposition: BoxDecomposition,
    dofs_per_node: int,
    dirichlet_faces: Sequence[str] = ("xmin",),
    dirichlet_value: float = 0.0,
) -> GluingData:
    """Build the Total-FETI constraints of a decomposition.

    Interface nodes are matched by one stable ``lexsort`` over the lattice
    keys of every subdomain's nodes, taken in ``(subdomain, local node)``
    order.  Multipliers are numbered as follows:

    * gluing rows first, one group of equal keys at a time, the groups in
      order of their first ``(subdomain, local node)``; inside a group of
      ``m`` copies (sorted by subdomain), component-major, then the ``m − 1``
      consecutive pairs;
    * then the Dirichlet rows, per subdomain, per node in ascending order,
      per component.

    Parameters
    ----------
    decomposition:
        The subdomain decomposition (lattice coordinates must be globally
        consistent, which :func:`repro.decomposition.decompose_box`
        guarantees).
    dofs_per_node:
        1 for heat transfer, the spatial dimension for elasticity.
    dirichlet_faces:
        Global box faces carrying homogeneous Dirichlet conditions.
    dirichlet_value:
        Prescribed value on the Dirichlet faces (entered into ``c``).
    """
    dpn = dofs_per_node
    subdomains = decomposition.subdomains
    n_subdomains = len(subdomains)
    sizes = np.array([s.mesh.nnodes for s in subdomains], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(n_subdomains), sizes)
    local = np.arange(starts[-1]) - starts[owner]
    lattice = np.concatenate([s.mesh.lattice for s in subdomains])
    dirichlet = _on_dirichlet_faces(
        np.concatenate([s.mesh.coords for s in subdomains]),
        decomposition.box_size,
        dirichlet_faces,
    )

    # --- match interface nodes through their lattice keys ----------------- #
    # A stable sort keeps each group of equal keys in (subdomain, local) order.
    order = np.lexsort(lattice.T[::-1])
    ordered = lattice[order]
    opens = np.ones(order.size, dtype=bool)
    opens[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group_start = np.flatnonzero(opens)
    group_size = np.diff(np.append(group_start, order.size))
    group = np.cumsum(opens) - 1  # group of every sorted position
    multiplicity = np.empty(order.size, dtype=np.int64)
    multiplicity[order] = group_size[group]

    # Glued groups: shared, and not Dirichlet in every copy (each copy gets
    # its own Dirichlet row below, which already enforces equality).
    all_dirichlet = np.logical_and.reduceat(dirichlet[order], group_start)
    glued = (group_size > 1) & ~all_dirichlet
    # Number the glued groups by first occurrence, dpn · (m − 1) rows each.
    glued_ids = np.flatnonzero(glued)
    glued_ids = glued_ids[np.argsort(order[group_start[glued_ids]])]
    counts = dpn * (group_size[glued_ids] - 1)
    base = np.zeros(group_start.size, dtype=np.int64)
    base[glued_ids] = np.cumsum(counts) - counts
    n_gluing = int(counts.sum())

    # One gluing pair per consecutive copy (p, p + 1) of a glued group.
    p = np.flatnonzero(~opens[1:])
    p = p[glued[group[p]]]
    g = group[p]
    pair = (p - group_start[g])[:, None]
    comp = np.arange(dpn)[None, :]
    lam_glue = (base[g][:, None] + comp * (group_size[g] - 1)[:, None] + pair).ravel()
    a, b = order[p], order[p + 1]

    # --- Dirichlet rows ---------------------------------------------------- #
    d = np.flatnonzero(dirichlet)
    lam_dir = n_gluing + np.arange(d.size * dpn)

    # --- per-subdomain local matrices -------------------------------------- #
    def entries(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.repeat(owner[nodes], dpn), (dpn * local[nodes][:, None] + comp).ravel()

    (s_a, col_a), (s_b, col_b), (s_d, col_d) = entries(a), entries(b), entries(d)
    sub = np.concatenate([s_a, s_b, s_d])
    lam = np.concatenate([lam_glue, lam_glue, lam_dir])
    col = np.concatenate([col_a, col_b, col_d])
    val = np.concatenate([np.ones(s_a.size), -np.ones(s_b.size), np.ones(s_d.size)])
    by_sub = np.lexsort((lam, sub))
    lam, col, val = lam[by_sub], col[by_sub], val[by_sub]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(sub, minlength=n_subdomains))])
    ndofs = sizes * dpn
    entries = GluingEntries(lam=lam, col=col, val=val, bounds=bounds, ndofs=ndofs)
    dof_multiplicity = np.repeat(multiplicity, dpn).astype(float)
    # Every multiplier touches a subdomain once: B̃ᵢ has one entry per row,
    # and is built from its run of the entries only when read.
    per_subdomain = [
        SubdomainGluing(
            lambda_ids=lam[lo:hi],
            dof_multiplicity=dof_multiplicity[dpn * start:dpn * (start + n_nodes)],
            entries=(col[lo:hi], val[lo:hi], int(n_nodes) * dpn),
        )
        for lo, hi, start, n_nodes in zip(
            bounds[:-1].tolist(), bounds[1:].tolist(), starts[:-1].tolist(), sizes.tolist()
        )
    ]

    n_lambda = n_gluing + int(lam_dir.size)
    c = np.zeros(n_lambda)
    c[n_gluing:] = dirichlet_value

    return GluingData(
        n_lambda=n_lambda,
        n_gluing=n_gluing,
        n_dirichlet=n_lambda - n_gluing,
        c=c,
        per_subdomain=per_subdomain,
        dofs_per_node=dofs_per_node,
        entries=entries,
    )
