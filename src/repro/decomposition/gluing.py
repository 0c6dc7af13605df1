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

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.decomposition.partition import BoxDecomposition

__all__ = ["SubdomainGluing", "GluingData", "build_gluing", "flat_scatter_maps"]


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


@dataclass
class SubdomainGluing:
    """Gluing information restricted to one subdomain.

    Attributes
    ----------
    lambda_ids:
        Sorted global indices of the Lagrange multipliers connected to this
        subdomain; the rows of ``B`` follow this order.
    B:
        Signed Boolean constraint matrix, shape ``(len(lambda_ids), ndofs)``.
    dof_multiplicity:
        For every local DOF, the number of subdomains sharing the underlying
        physical DOF (1 for interior DOFs).  It is the diagonal ``D`` of the
        preconditioners' scaled gluing matrix ``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹``
        (:mod:`repro.feti.preconditioner`).  ``B D⁻¹`` alone is not a valid
        scaling here: the ``m`` copies of a shared DOF are chained by
        ``m − 1`` non-redundant rows and a shared Dirichlet DOF has one row
        per copy, so ``B D⁻¹ Bᵀ`` is block tridiagonal, not the identity.
    """

    lambda_ids: np.ndarray
    B: sp.csr_matrix
    dof_multiplicity: np.ndarray

    @property
    def n_lambda(self) -> int:
        """Number of multipliers connected to the subdomain."""
        return int(self.lambda_ids.shape[0])


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
    lambda_subdomains:
        For every multiplier, the tuple of subdomain indices it touches.
    dofs_per_node:
        DOFs per mesh node used when the constraints were generated.
    """

    n_lambda: int
    n_gluing: int
    n_dirichlet: int
    c: np.ndarray
    per_subdomain: list[SubdomainGluing]
    lambda_subdomains: list[tuple[int, ...]]
    dofs_per_node: int

    def scatter_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached flat scatter/gather index maps over all subdomains.

        See :func:`flat_scatter_maps`; the result is computed once and reused
        by the batched execution engine.
        """
        cached = getattr(self, "_scatter_maps", None)
        if cached is None:
            cached = flat_scatter_maps([s.lambda_ids for s in self.per_subdomain])
            self._scatter_maps = cached
        return cached

    def global_B(self, ndofs_per_subdomain: Sequence[int]) -> sp.csr_matrix:
        """Assemble the global ``B = [B_1, B_2, ..., B_N]`` (mainly for tests).

        Parameters
        ----------
        ndofs_per_subdomain:
            DOF counts of all subdomains (defines the column blocks).
        """
        offsets = np.concatenate([[0], np.cumsum(ndofs_per_subdomain)])
        rows, cols, vals = [], [], []
        for i, sub in enumerate(self.per_subdomain):
            coo = sub.B.tocoo()
            rows.append(sub.lambda_ids[coo.row])
            cols.append(coo.col + offsets[i])
            vals.append(coo.data)
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_lambda, int(offsets[-1])),
        ).tocsr()


def _global_dirichlet_nodes(
    decomposition: BoxDecomposition,
    faces: Sequence[str],
    tol: float = 1e-12,
) -> list[np.ndarray]:
    """Per-subdomain node indices lying on the *global* box faces."""
    dim = decomposition.dim
    lo = np.zeros(dim)
    hi = np.asarray(decomposition.box_size, dtype=float)
    result = []
    for sub in decomposition.subdomains:
        coords = sub.mesh.coords
        mask = np.zeros(coords.shape[0], dtype=bool)
        for face in faces:
            axis = {"x": 0, "y": 1, "z": 2}[face[0]]
            if axis >= dim:
                raise ValueError(f"face {face!r} invalid for a {dim}D problem")
            value = lo[axis] if face.endswith("min") else hi[axis]
            mask |= np.abs(coords[:, axis] - value) <= tol
        result.append(np.nonzero(mask)[0])
    return result


def build_gluing(
    decomposition: BoxDecomposition,
    dofs_per_node: int,
    dirichlet_faces: Sequence[str] = ("xmin",),
    dirichlet_value: float = 0.0,
) -> GluingData:
    """Build the Total-FETI constraints of a decomposition.

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
    subdomains = decomposition.subdomains
    n_subdomains = len(subdomains)

    # --- match interface nodes through their lattice coordinates ---------- #
    shared: dict[bytes, list[tuple[int, int]]] = defaultdict(list)
    for sub in subdomains:
        lattice = np.ascontiguousarray(sub.mesh.lattice)
        for local, key in enumerate(lattice):
            shared[key.tobytes()].append((sub.index, local))

    dirichlet_nodes = _global_dirichlet_nodes(decomposition, dirichlet_faces)
    dirichlet_sets = [set(nodes.tolist()) for nodes in dirichlet_nodes]

    # Per-subdomain triplet buffers.
    rows: list[list[int]] = [[] for _ in range(n_subdomains)]
    cols: list[list[int]] = [[] for _ in range(n_subdomains)]
    vals: list[list[float]] = [[] for _ in range(n_subdomains)]
    multiplicity = [np.ones(s.mesh.nnodes, dtype=np.int64) for s in subdomains]

    lambda_subdomains: list[tuple[int, ...]] = []
    c_values: list[float] = []
    next_lambda = 0

    # --- gluing rows ------------------------------------------------------ #
    for copies in shared.values():
        if len(copies) < 2:
            continue
        copies = sorted(copies)
        owners = tuple(s for s, _ in copies)
        for s, local in copies:
            multiplicity[s][local] = len(copies)
        # Skip gluing for Dirichlet-constrained nodes: each copy receives its
        # own Dirichlet row below, which already enforces equality.
        if all((local in dirichlet_sets[s]) for s, local in copies):
            continue
        for comp in range(dofs_per_node):
            for (s_a, n_a), (s_b, n_b) in zip(copies[:-1], copies[1:]):
                lam = next_lambda
                next_lambda += 1
                rows[s_a].append(lam)
                cols[s_a].append(dofs_per_node * n_a + comp)
                vals[s_a].append(1.0)
                rows[s_b].append(lam)
                cols[s_b].append(dofs_per_node * n_b + comp)
                vals[s_b].append(-1.0)
                lambda_subdomains.append((s_a, s_b))
                c_values.append(0.0)
    n_gluing = next_lambda

    # --- Dirichlet rows ---------------------------------------------------- #
    for sub, nodes in zip(subdomains, dirichlet_nodes):
        s = sub.index
        for local in np.sort(nodes):
            for comp in range(dofs_per_node):
                lam = next_lambda
                next_lambda += 1
                rows[s].append(lam)
                cols[s].append(dofs_per_node * int(local) + comp)
                vals[s].append(1.0)
                lambda_subdomains.append((s,))
                c_values.append(dirichlet_value)
    n_dirichlet = next_lambda - n_gluing

    # --- per-subdomain local matrices -------------------------------------- #
    per_subdomain: list[SubdomainGluing] = []
    for sub in subdomains:
        s = sub.index
        ndofs = sub.mesh.nnodes * dofs_per_node
        lam_ids = np.unique(np.asarray(rows[s], dtype=np.int64))
        if lam_ids.size:
            local_row = np.searchsorted(lam_ids, np.asarray(rows[s], dtype=np.int64))
            B = sp.coo_matrix(
                (np.asarray(vals[s]), (local_row, np.asarray(cols[s]))),
                shape=(lam_ids.size, ndofs),
            ).tocsr()
        else:
            B = sp.csr_matrix((0, ndofs))
        dof_mult = np.repeat(multiplicity[s], dofs_per_node).astype(float)
        per_subdomain.append(
            SubdomainGluing(lambda_ids=lam_ids, B=B, dof_multiplicity=dof_mult)
        )

    return GluingData(
        n_lambda=next_lambda,
        n_gluing=n_gluing,
        n_dirichlet=n_dirichlet,
        c=np.asarray(c_values, dtype=float),
        per_subdomain=per_subdomain,
        lambda_subdomains=lambda_subdomains,
        dofs_per_node=dofs_per_node,
    )
