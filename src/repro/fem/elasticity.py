"""Linear elasticity problem definition (plane strain in 2D).

The second physics of the paper's evaluation.  Floating subdomains have a
rigid-body-mode kernel: 3 modes in 2D (two translations + one rotation) and
6 modes in 3D (three translations + three rotations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import (
    ElementStack,
    assemble_elasticity_load,
    assemble_elasticity_stiffness,
    elasticity_dof_map,
    elasticity_load_kernel,
    elasticity_stiffness_kernel,
)
from repro.fem.mesh import Mesh

__all__ = ["LinearElasticityProblem"]


@dataclass(frozen=True)
class LinearElasticityProblem:
    """Small-strain linear elasticity with a constant body force.

    Attributes
    ----------
    young:
        Young's modulus.
    poisson:
        Poisson ratio (must satisfy ``-1 < nu < 0.5``).
    body_force:
        Constant body force; its length must match the mesh dimension at
        assembly time (trailing components are truncated / zero-padded).
    """

    young: float = 1.0
    poisson: float = 0.3
    body_force: tuple[float, ...] = (0.0, -1.0, 0.0)

    def __post_init__(self) -> None:
        if not -1.0 < self.poisson < 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def name(self) -> str:
        """Short physics identifier used in benchmark labels."""
        return "elasticity"

    def dofs_per_node_for(self, mesh: Mesh) -> int:
        """DOFs per node (the mesh dimension)."""
        return mesh.dim

    # The decomposition layer queries ``dofs_per_node`` on the problem: for
    # elasticity it depends on the mesh, so expose a helper with a clear error.
    @property
    def dofs_per_node(self) -> int:  # pragma: no cover - guard path
        raise AttributeError(
            "LinearElasticityProblem.dofs_per_node depends on the mesh; "
            "use dofs_per_node_for(mesh)"
        )

    def ndofs(self, mesh: Mesh) -> int:
        """Total DOFs of a mesh."""
        return mesh.nnodes * mesh.dim

    def _force_for(self, dim: int) -> np.ndarray:
        force = np.zeros(dim)
        take = min(dim, len(self.body_force))
        force[:take] = np.asarray(self.body_force[:take], dtype=float)
        return force

    # ------------------------------------------------------------------ #
    # One shape: element kernels and per-member kernel bases              #
    # ------------------------------------------------------------------ #
    def element_dofs(self, mesh: Mesh) -> np.ndarray:
        """Element DOF map: node ``n`` owns DOFs ``dim·n … dim·n + dim − 1``."""
        return elasticity_dof_map(mesh.cells, mesh.dim)

    def stiffness_kernel(self, stack: ElementStack) -> np.ndarray:
        """Element stiffness matrices of every element of the mesh."""
        return elasticity_stiffness_kernel(stack, young=self.young, poisson=self.poisson)

    def load_kernel(self, stack: ElementStack) -> np.ndarray:
        """Element load vectors of every element of the mesh."""
        return elasticity_load_kernel(stack, body_force=self._force_for(stack.dim))

    def kernel_bases(self, coords: np.ndarray) -> np.ndarray:
        """Orthonormal rigid-body-mode bases of ``k`` floating subdomains.

        ``coords`` is ``(k, nnodes, dim)``.  Returns ``(k, ndofs, 3)`` in 2D
        and ``(k, ndofs, 6)`` in 3D (translations followed by rotations about
        each subdomain's centroid).
        """
        k, n, dim = coords.shape
        coords = coords - coords.mean(axis=1, keepdims=True)
        nmodes = 3 if dim == 2 else 6
        basis = np.zeros((k, n * dim, nmodes))
        for d in range(dim):
            basis[:, d::dim, d] = 1.0
        if dim == 2:
            # Rotation about z: (-y, x)
            basis[:, 0::2, 2] = -coords[..., 1]
            basis[:, 1::2, 2] = coords[..., 0]
        else:
            x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
            # Rotation about x: (0, -z, y)
            basis[:, 1::3, 3] = -z
            basis[:, 2::3, 3] = y
            # Rotation about y: (z, 0, -x)
            basis[:, 0::3, 4] = z
            basis[:, 2::3, 4] = -x
            # Rotation about z: (-y, x, 0)
            basis[:, 0::3, 5] = -y
            basis[:, 1::3, 5] = x
        q, _ = np.linalg.qr(basis)
        return q

    # ------------------------------------------------------------------ #
    # One mesh                                                            #
    # ------------------------------------------------------------------ #
    def assemble_stiffness(self, mesh: Mesh) -> sp.csr_matrix:
        """Subdomain stiffness matrix (singular for a floating subdomain)."""
        return assemble_elasticity_stiffness(mesh, young=self.young, poisson=self.poisson)

    def assemble_load(self, mesh: Mesh) -> np.ndarray:
        """Subdomain load vector."""
        return assemble_elasticity_load(mesh, body_force=self._force_for(mesh.dim))

    def kernel_basis(self, mesh: Mesh) -> np.ndarray:
        """Orthonormal rigid-body-mode basis of one floating subdomain."""
        return self.kernel_bases(mesh.coords[None])[0]
