"""Steady-state heat transfer (scalar Laplace) problem definition.

This is one of the two physics the paper benchmarks ("heat transfer ... in
2D and 3D").  A problem instance provides the element kernels of a mesh
(:mod:`repro.fem.assembly`), the kernel bases of a stack of same-shape
subdomains, single-mesh assembly, and the metadata the decomposition layer
needs (DOFs per node, kernel dimension of a floating subdomain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import (
    ElementStack,
    assemble_scalar_load,
    assemble_scalar_stiffness,
    scalar_load_kernel,
    scalar_stiffness_kernel,
)
from repro.fem.mesh import Mesh

__all__ = ["HeatTransferProblem"]


@dataclass(frozen=True)
class HeatTransferProblem:
    """Steady heat conduction ``-div(kappa grad u) = q``.

    Attributes
    ----------
    conductivity:
        Isotropic thermal conductivity ``kappa``.
    source:
        Constant volumetric heat source ``q``.
    """

    conductivity: float = 1.0
    source: float = 1.0

    #: Number of DOFs attached to every mesh node.
    dofs_per_node: int = 1

    @property
    def name(self) -> str:
        """Short physics identifier used in benchmark labels."""
        return "heat"

    def ndofs(self, mesh: Mesh) -> int:
        """Total DOFs of a mesh."""
        return mesh.nnodes * self.dofs_per_node

    # ------------------------------------------------------------------ #
    # One shape: element kernels and per-member kernel bases              #
    # ------------------------------------------------------------------ #
    def element_dofs(self, mesh: Mesh) -> np.ndarray:
        """Element DOF map: one DOF per node, numbered like the nodes."""
        return mesh.cells

    def stiffness_kernel(self, stack: ElementStack) -> np.ndarray:
        """Element stiffness matrices of every element of the mesh."""
        return scalar_stiffness_kernel(stack, conductivity=self.conductivity)

    def load_kernel(self, stack: ElementStack) -> np.ndarray:
        """Element load vectors of every element of the mesh."""
        return scalar_load_kernel(stack, source=self.source)

    def kernel_bases(self, coords: np.ndarray) -> np.ndarray:
        """Orthonormal kernel bases of ``k`` floating subdomains, ``(k, ndofs, 1)``.

        For pure Neumann heat transfer the kernel is spanned by the constant
        temperature field.
        """
        k, n = coords.shape[:2]
        return np.full((k, n, 1), 1.0 / np.sqrt(n))

    # ------------------------------------------------------------------ #
    # One mesh                                                            #
    # ------------------------------------------------------------------ #
    def assemble_stiffness(self, mesh: Mesh) -> sp.csr_matrix:
        """Subdomain stiffness matrix (singular for a floating subdomain)."""
        return assemble_scalar_stiffness(mesh, conductivity=self.conductivity)

    def assemble_load(self, mesh: Mesh) -> np.ndarray:
        """Subdomain load vector."""
        return assemble_scalar_load(mesh, source=self.source)

    def kernel_basis(self, mesh: Mesh) -> np.ndarray:
        """Orthonormal kernel basis of one floating subdomain, ``(ndofs, 1)``."""
        return self.kernel_bases(mesh.coords[None])[0]
