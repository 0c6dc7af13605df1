"""Test oracle: the problem build as one stack of every member's elements.

What ``FetiProblem.from_physics`` ran before it built each shape once, on
its template mesh: the element geometry and kernels of all ``k`` members
(their absolute coordinates, ``k · ncells`` elements), one :class:`ScatterMap`
per shape (a stable ``argsort`` of the element entries' keys into CSR
slots), one ``bincount`` for all members' values and loads, and one prune
mask computed from every member's values and required equal across them.
The element kernels are the library's own (:mod:`repro.fem.assembly`),
applied to the members' elements taken as one mesh; kernel bases, fixing
DOFs and ``K_reg`` are built as the library builds them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.decomposition.kernel import fixing_dofs_for, regularize_stack
from repro.decomposition.partition import Subdomain
from repro.fem.assembly import PRUNE_TOLERANCE, CsrStack, ElementStack
from repro.fem.mesh import Mesh

__all__ = ["ScatterMap", "member_elements", "build_shape"]


def member_elements(meshes: Sequence[Mesh]) -> ElementStack:
    """The elements of ``k`` same-shape meshes as one :class:`ElementStack`.

    The members are taken as one mesh of ``k · nnodes`` nodes (member ``i``'s
    nodes and elements are block ``i``), so every geometry array and element
    kernel comes out member-major, ``(k · ncells, …)``.
    """
    first = meshes[0]
    cells = first.cells
    for i, mesh in enumerate(meshes[1:], start=1):
        if mesh.cells is not cells and not np.array_equal(mesh.cells, cells):
            raise ValueError(f"stack member {i} does not share member 0's connectivity")
    offsets = first.nnodes * np.arange(len(meshes))
    union = Mesh(
        dim=first.dim,
        order=first.order,
        coords=np.concatenate([m.coords for m in meshes]),
        cells=(cells[None] + offsets[:, None, None]).reshape(-1, cells.shape[1]),
        lattice=np.concatenate([m.lattice for m in meshes]),
        origin=first.origin,
        box_size=first.box_size,
        ncells_per_dim=first.ncells_per_dim,
    )
    return ElementStack(union)


class ScatterMap:
    """Where every element-matrix entry of one shape lands in the CSR arrays.

    Entry ``(c, i, j)`` of the element matrices goes to stored position
    ``slot[c, i, j]`` of the canonical (row-major, sorted, duplicate-free)
    pattern.
    """

    def __init__(self, dofs: np.ndarray, n: int) -> None:
        ncells, m = dofs.shape
        rows = np.repeat(dofs, m, axis=1).ravel()
        cols = np.tile(dofs, m).ravel()
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.empty(ordered.shape, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        self.slot = np.empty(keys.shape, dtype=np.int64)
        self.slot[order] = np.cumsum(first) - 1
        self.keys = ordered[first]
        self.n = int(n)
        self.nnz = int(self.keys.shape[0])
        self.dofs = dofs
        self.rows = self.keys // n
        self.cols = self.keys % n
        self.diagonal = np.searchsorted(self.keys, np.arange(n, dtype=np.int64) * (n + 1))

    def matrices(self, ke: np.ndarray) -> np.ndarray:
        """Sum element matrices ``(k · ncells, m, m)`` into ``(k, nnz)`` values."""
        k = ke.shape[0] // self.dofs.shape[0]
        index = (self.slot.reshape(1, -1) + self.nnz * np.arange(k)[:, None]).ravel()
        return np.bincount(index, weights=ke.ravel(), minlength=k * self.nnz).reshape(k, self.nnz)

    def vectors(self, fe: np.ndarray) -> np.ndarray:
        """Sum element vectors ``(k · ncells, m)`` into ``(k, n)`` loads."""
        k = fe.shape[0] // self.dofs.shape[0]
        index = (self.dofs.reshape(1, -1) + self.n * np.arange(k)[:, None]).ravel()
        return np.bincount(index, weights=fe.ravel(), minlength=k * self.n).reshape(k, self.n)

    def prune(self, values: np.ndarray) -> CsrStack:
        """Drop the cancellation noise of ``(k, nnz)`` values: one mask for all,
        asserted to be every member's own."""
        scale = np.sqrt(np.abs(values[:, self.diagonal]))
        keep = np.abs(values) > PRUNE_TOLERANCE * scale[:, self.rows] * scale[:, self.cols]
        assert (keep == keep[0]).all(), "the members prune different patterns"
        keep = keep[0]
        return CsrStack.from_keys(np.ascontiguousarray(values[:, keep]), self.keys[keep], self.n)


def build_shape(
    physics: object, group: Sequence[Subdomain], dofs_per_node: int
) -> tuple[CsrStack, CsrStack, np.ndarray]:
    """``(K, K_reg, f)`` of one shape group, every member from its own elements."""
    meshes = [sub.mesh for sub in group]
    stack = member_elements(meshes)
    smap = ScatterMap(physics.element_dofs(meshes[0]), physics.ndofs(meshes[0]))
    K = smap.prune(smap.matrices(physics.stiffness_kernel(stack)))
    f = smap.vectors(physics.load_kernel(stack))
    kernels = physics.kernel_bases(np.stack([m.coords for m in meshes]))
    K_reg, _rho = regularize_stack(K, kernels, fixing_dofs_for(meshes[0], kernels, dofs_per_node))
    return K, K_reg, f
