"""Test oracle: the Total-FETI gluing by a Python dict over every node.

What ``build_gluing`` ran before its one ``lexsort`` over all lattice keys:
each node's lattice key goes into a dict (insertion order = first
occurrence), each shared key becomes ``m − 1`` chained rows per component,
then every subdomain's Dirichlet nodes one row each, and every ``B̃ᵢ`` is
one COO → CSR conversion.  It fixes the multiplier numbering the vectorized
build must reproduce exactly, and lists every multiplier's owners.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.decomposition.gluing import GluingData, GluingEntries, SubdomainGluing
from repro.decomposition.partition import BoxDecomposition

__all__ = ["OracleGluing", "build_gluing", "entries_of", "lambda_owners"]


@dataclass
class OracleGluing(GluingData):
    """The oracle's gluing plus, for every multiplier, the subdomains it touches."""

    lambda_subdomains: list[tuple[int, ...]] = field(default_factory=list)


def entries_of(per_subdomain: Sequence[SubdomainGluing]) -> GluingEntries:
    """The entries of given ``B̃ᵢ`` (each with one entry per row): every
    subdomain's ``lambda_ids`` and ``B`` concatenated in subdomain order."""
    lam, col, val = [], [], []
    for sub in per_subdomain:
        B = sub.B
        lam.append(np.asarray(sub.lambda_ids, dtype=np.int64))
        col.append(B.indices.astype(np.int64))
        val.append(np.asarray(B.data, dtype=float))
    counts = [a.size for a in lam]
    return GluingEntries(
        lam=np.concatenate(lam) if lam else np.empty(0, dtype=np.int64),
        col=np.concatenate(col) if col else np.empty(0, dtype=np.int64),
        val=np.concatenate(val) if val else np.empty(0),
        bounds=np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64),
        ndofs=np.array([sub.B.shape[1] for sub in per_subdomain], dtype=np.int64),
    )


def lambda_owners(gluing: GluingData) -> list[tuple[int, ...]]:
    """Every multiplier's owning subdomains (ascending), read from ``gluing.entries``."""
    entries = gluing.entries
    sub = np.repeat(np.arange(entries.bounds.size - 1), np.diff(entries.bounds))
    order = np.lexsort((sub, entries.lam))
    owners: list[list[int]] = [[] for _ in range(gluing.n_lambda)]
    for lam, s in zip(entries.lam[order].tolist(), sub[order].tolist()):
        owners[lam].append(s)
    return [tuple(o) for o in owners]


def _global_dirichlet_nodes(
    decomposition: BoxDecomposition, faces: Sequence[str], tol: float = 1e-12
) -> list[np.ndarray]:
    dim = decomposition.dim
    lo = np.zeros(dim)
    hi = np.asarray(decomposition.box_size, dtype=float)
    result = []
    for sub in decomposition.subdomains:
        coords = sub.mesh.coords
        mask = np.zeros(coords.shape[0], dtype=bool)
        for face in faces:
            axis = {"x": 0, "y": 1, "z": 2}[face[0]]
            value = lo[axis] if face.endswith("min") else hi[axis]
            mask |= np.abs(coords[:, axis] - value) <= tol
        result.append(np.nonzero(mask)[0])
    return result


def build_gluing(
    decomposition: BoxDecomposition,
    dofs_per_node: int,
    dirichlet_faces: Sequence[str] = ("xmin",),
    dirichlet_value: float = 0.0,
) -> OracleGluing:
    """The dict-based construction, field for field what it returned."""
    subdomains = decomposition.subdomains
    n_subdomains = len(subdomains)

    shared: dict[bytes, list[tuple[int, int]]] = defaultdict(list)
    for sub in subdomains:
        for local, key in enumerate(np.ascontiguousarray(sub.mesh.lattice)):
            shared[key.tobytes()].append((sub.index, local))

    dirichlet_nodes = _global_dirichlet_nodes(decomposition, dirichlet_faces)
    dirichlet_sets = [set(nodes.tolist()) for nodes in dirichlet_nodes]

    rows: list[list[int]] = [[] for _ in range(n_subdomains)]
    cols: list[list[int]] = [[] for _ in range(n_subdomains)]
    vals: list[list[float]] = [[] for _ in range(n_subdomains)]
    multiplicity = [np.ones(s.mesh.nnodes, dtype=np.int64) for s in subdomains]
    lambda_subdomains: list[tuple[int, ...]] = []
    c_values: list[float] = []
    next_lambda = 0

    for copies in shared.values():
        if len(copies) < 2:
            continue
        copies = sorted(copies)
        for s, local in copies:
            multiplicity[s][local] = len(copies)
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
        if not np.all(np.diff(B.indptr) == 1):
            raise ValueError("every row of a B̃ᵢ must hold exactly one entry")
        dof_mult = np.repeat(multiplicity[s], dofs_per_node).astype(float)
        per_subdomain.append(
            SubdomainGluing(
                lambda_ids=lam_ids,
                dof_multiplicity=dof_mult,
                entries=(B.indices.astype(np.int64), np.asarray(B.data, dtype=float), ndofs),
            )
        )

    return OracleGluing(
        n_lambda=next_lambda,
        n_gluing=n_gluing,
        n_dirichlet=next_lambda - n_gluing,
        c=np.asarray(c_values, dtype=float),
        per_subdomain=per_subdomain,
        lambda_subdomains=lambda_subdomains,
        dofs_per_node=dofs_per_node,
        entries=entries_of(per_subdomain),
    )
