"""Partitioning of the global box into subdomains and clusters.

The paper decomposes a square / cube domain into up to 2000 subdomains and
groups them into clusters; one MPI process handles a cluster (and one GPU),
and OpenMP threads handle the subdomains inside it.  Because the global mesh
is structured, the decomposition is structured too: the grid of cells is
split into an axis-aligned grid of subdomains, and every subdomain gets its
own independent mesh (the "tearing" of Total FETI) — one generated template
per subdomain shape, translated.  Interface nodes are duplicated between
neighbouring subdomains and matched later through their integer lattice
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.mesh import Mesh, structured_mesh

__all__ = ["Subdomain", "BoxDecomposition", "decompose_box"]


@dataclass
class Subdomain:
    """A single torn subdomain.

    Attributes
    ----------
    index:
        Global subdomain index (0-based).
    grid_position:
        Position of the subdomain in the subdomain grid.
    mesh:
        The subdomain's own mesh; node lattice coordinates are globally
        consistent so interface nodes can be matched across subdomains.
    cluster:
        Index of the cluster (process / GPU) owning the subdomain.
    """

    index: int
    grid_position: tuple[int, ...]
    mesh: Mesh
    cluster: int


@dataclass
class BoxDecomposition:
    """A structured decomposition of a box domain.

    Attributes
    ----------
    dim:
        Spatial dimension.
    order:
        Finite-element order used by all subdomain meshes.
    subdomains:
        All subdomains, ordered by index.
    subdomains_per_dim:
        Shape of the subdomain grid.
    cells_per_subdomain:
        Grid cells per direction inside each subdomain.
    n_clusters:
        Number of clusters (simulated MPI processes / GPUs).
    """

    dim: int
    order: int
    subdomains: list[Subdomain]
    subdomains_per_dim: tuple[int, ...]
    cells_per_subdomain: tuple[int, ...]
    n_clusters: int
    box_size: tuple[float, ...]

    @property
    def n_subdomains(self) -> int:
        """Total number of subdomains."""
        return len(self.subdomains)

    def shape_groups(self) -> list[list[Subdomain]]:
        """Subdomains grouped by shape, in index order within each group.

        Members of a group share one connectivity array (one mesh template,
        translated), so they can be assembled as one stack.
        """
        groups: dict[int, list[Subdomain]] = {}
        for sub in self.subdomains:
            groups.setdefault(id(sub.mesh.cells), []).append(sub)
        return list(groups.values())

    @property
    def dofs_per_subdomain(self) -> int:
        """Number of mesh nodes of a subdomain (DOFs for scalar physics)."""
        return self.subdomains[0].mesh.nnodes

    def summary(self) -> str:
        """One-line human-readable description."""
        grid = "x".join(str(n) for n in self.subdomains_per_dim)
        cells = "x".join(str(n) for n in self.cells_per_subdomain)
        return (
            f"{self.dim}D decomposition: {self.n_subdomains} subdomains ({grid}), "
            f"{cells} cells each, order {self.order}, {self.n_clusters} clusters"
        )


def _as_tuple(value: int | tuple[int, ...], dim: int, name: str) -> tuple[int, ...]:
    if np.isscalar(value):
        return tuple([int(value)] * dim)  # type: ignore[arg-type]
    out = tuple(int(v) for v in value)  # type: ignore[union-attr]
    if len(out) != dim:
        raise ValueError(f"{name} must have length {dim}")
    return out


def decompose_box(
    dim: int,
    subdomains_per_dim: int | tuple[int, ...],
    cells_per_subdomain: int | tuple[int, ...],
    order: int = 1,
    box_size: tuple[float, ...] | None = None,
    n_clusters: int = 1,
) -> BoxDecomposition:
    """Decompose the box into a structured grid of subdomains.

    Parameters
    ----------
    dim:
        2 or 3.
    subdomains_per_dim:
        Number of subdomains per direction (an int is broadcast).
    cells_per_subdomain:
        Grid cells per direction inside each subdomain.
    order:
        Element order of all subdomain meshes.
    box_size:
        Physical size of the global box (default: unit box).
    n_clusters:
        Number of clusters.  Subdomains are assigned to clusters in
        contiguous blocks of equal size (the subdomain count must be an
        integer multiple of ``n_clusters``, mirroring the paper's advice to
        keep subdomains-per-cluster a multiple of the thread count).
    """
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension: {dim}")
    subs = _as_tuple(subdomains_per_dim, dim, "subdomains_per_dim")
    cells = _as_tuple(cells_per_subdomain, dim, "cells_per_subdomain")
    if any(s < 1 for s in subs) or any(c < 1 for c in cells):
        raise ValueError("subdomain and cell counts must be positive")
    size = (1.0,) * dim if box_size is None else tuple(float(s) for s in box_size)
    if len(size) != dim:
        raise ValueError("box_size must have length dim")

    n_subdomains = int(np.prod(subs))
    if n_clusters < 1 or n_subdomains % n_clusters != 0:
        raise ValueError(
            f"n_clusters={n_clusters} must divide the number of subdomains "
            f"({n_subdomains})"
        )

    global_cells = tuple(s * c for s, c in zip(subs, cells))
    global_cell_size = np.array(size) / np.array(global_cells, dtype=float)
    sub_box = np.array(size) / np.array(subs, dtype=float)

    per_cluster = n_subdomains // n_clusters
    positions = np.stack(
        np.meshgrid(*[np.arange(s) for s in subs], indexing="ij"), axis=-1
    ).reshape(-1, dim)
    # Every subdomain has one shape: generate its mesh once, at the origin,
    # and translate it.  ``origin + local`` and ``lattice + offset`` are the
    # expressions ``structured_mesh`` evaluates for a subdomain (an even
    # lattice offset commutes with the mid-edge ``(a + b) // 2``), so each
    # member is bit for bit the mesh it would generate; all share ``cells``.
    template = structured_mesh(
        dim,
        cells,
        order=order,
        origin=(0.0,) * dim,
        box_size=tuple(sub_box),
        global_cell_size=tuple(global_cell_size),
        lattice_offset=(0,) * dim,
    )
    origins = positions * sub_box
    # Each cell spans two lattice units per direction.
    offsets = 2 * positions * np.asarray(cells, dtype=np.int64)
    coords = origins[:, None, :] + template.coords[None, :, :]
    lattice = offsets[:, None, :] + template.lattice[None, :, :]
    subdomains = [
        Subdomain(
            index=index,
            grid_position=tuple(int(p) for p in positions[index]),
            mesh=Mesh(
                dim=dim,
                order=order,
                coords=coords[index],
                cells=template.cells,
                lattice=lattice[index],
                origin=origins[index],
                box_size=template.box_size,
                ncells_per_dim=template.ncells_per_dim,
            ),
            cluster=index // per_cluster,
        )
        for index in range(n_subdomains)
    ]

    return BoxDecomposition(
        dim=dim,
        order=order,
        subdomains=subdomains,
        subdomains_per_dim=subs,
        cells_per_subdomain=cells,
        n_clusters=n_clusters,
        box_size=size,
    )
