"""The torn (Total FETI) problem: per-subdomain data and dual-space metadata.

A :class:`FetiProblem` bundles everything the dual operators and the PCPG
iteration need:

* per subdomain: the singular stiffness ``Kᵢ``, its analytic regularization
  ``K_reg,ᵢ``, the kernel basis ``Rᵢ``, the load ``fᵢ``, the local gluing
  matrix ``B̃ᵢ`` together with the global indices of its Lagrange
  multipliers, and the DOF multiplicities used by the scaled preconditioners;
* globally: the number of multipliers, the constraint right-hand side ``c``,
  the natural coarse matrix ``G = B R`` and ``e = Rᵀ f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.decomposition.gluing import GluingData, build_gluing
from repro.decomposition.kernel import RegularizedStiffness, regularize_stiffness
from repro.decomposition.partition import BoxDecomposition
from repro.fem.mesh import Mesh
from repro.feti.problem_helpers import dofs_per_node_of as _dofs_per_node

__all__ = ["SubdomainProblem", "FetiProblem"]


@dataclass
class SubdomainProblem:
    """All per-subdomain data of the torn system."""

    index: int
    cluster: int
    mesh: Mesh
    K: sp.csr_matrix
    K_reg: sp.csr_matrix
    kernel: np.ndarray
    fixing_dofs: np.ndarray
    f: np.ndarray
    B: sp.csr_matrix
    lambda_ids: np.ndarray
    dof_multiplicity: np.ndarray

    @cached_property
    def Bt(self) -> sp.csc_matrix:
        """``B̃ᵢᵀ`` — the CSC view ``B.T`` returns, built once (``B`` is fixed)."""
        return self.B.T

    @property
    def ndofs(self) -> int:
        """Primal DOFs of the subdomain."""
        return int(self.K.shape[0])

    @property
    def n_lambda(self) -> int:
        """Lagrange multipliers connected to the subdomain."""
        return int(self.lambda_ids.shape[0])

    @property
    def kernel_dim(self) -> int:
        """Dimension of the stiffness kernel (1 for heat, 3/6 for elasticity)."""
        return int(self.kernel.shape[1])

    def local_dual(self, global_dual: np.ndarray) -> np.ndarray:
        """Scatter: restrict a global dual vector to this subdomain."""
        return global_dual[self.lambda_ids]

    def accumulate_dual(self, global_dual: np.ndarray, local: np.ndarray) -> None:
        """Gather: add a local dual contribution into the global vector."""
        np.add.at(global_dual, self.lambda_ids, local)


@dataclass
class FetiProblem:
    """The assembled Total FETI problem.

    Use :meth:`from_physics` to build one from a physics definition and a box
    decomposition.
    """

    physics: object
    decomposition: BoxDecomposition
    gluing: GluingData
    subdomains: list[SubdomainProblem]
    dofs_per_node: int

    # ------------------------------------------------------------------ #
    # Construction                                                        #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_physics(
        cls,
        physics: object,
        decomposition: BoxDecomposition,
        dirichlet_faces: tuple[str, ...] = ("xmin",),
        dirichlet_value: float = 0.0,
    ) -> "FetiProblem":
        """Assemble the torn system for a physics on a decomposition.

        Parameters
        ----------
        physics:
            A problem object from :mod:`repro.fem` (heat transfer or linear
            elasticity); it must provide ``assemble_stiffness``,
            ``assemble_load`` and ``kernel_basis``.
        decomposition:
            The structured box decomposition.
        dirichlet_faces:
            Global box faces with (homogeneous) Dirichlet conditions,
            handled the Total-FETI way (appended to ``B`` and ``c``).
        """
        first_mesh = decomposition.subdomains[0].mesh
        dofs_per_node = _dofs_per_node(physics, first_mesh)
        gluing = build_gluing(
            decomposition,
            dofs_per_node=dofs_per_node,
            dirichlet_faces=dirichlet_faces,
            dirichlet_value=dirichlet_value,
        )
        subdomains: list[SubdomainProblem] = []
        for sub, sub_glue in zip(decomposition.subdomains, gluing.per_subdomain):
            K = physics.assemble_stiffness(sub.mesh)
            f = physics.assemble_load(sub.mesh)
            kernel = physics.kernel_basis(sub.mesh)
            reg: RegularizedStiffness = regularize_stiffness(
                K, kernel, sub.mesh, dofs_per_node
            )
            subdomains.append(
                SubdomainProblem(
                    index=sub.index,
                    cluster=sub.cluster,
                    mesh=sub.mesh,
                    K=K,
                    K_reg=reg.K_reg,
                    kernel=kernel,
                    fixing_dofs=reg.fixing_dofs,
                    f=f,
                    B=sub_glue.B,
                    lambda_ids=sub_glue.lambda_ids,
                    dof_multiplicity=sub_glue.dof_multiplicity,
                )
            )
        return cls(
            physics=physics,
            decomposition=decomposition,
            gluing=gluing,
            subdomains=subdomains,
            dofs_per_node=dofs_per_node,
        )

    # ------------------------------------------------------------------ #
    # Global dual-space quantities                                        #
    # ------------------------------------------------------------------ #
    @property
    def n_lambda(self) -> int:
        """Total number of Lagrange multipliers."""
        return self.gluing.n_lambda

    @property
    def n_subdomains(self) -> int:
        """Number of subdomains."""
        return len(self.subdomains)

    @property
    def c(self) -> np.ndarray:
        """Constraint right-hand side (Dirichlet values)."""
        return self.gluing.c

    @property
    def kernel_dims(self) -> list[int]:
        """Kernel dimension of every subdomain."""
        return [s.kernel_dim for s in self.subdomains]

    @property
    def kernel_offsets(self) -> np.ndarray:
        """Column offsets of every subdomain's block in ``G`` and ``α``."""
        return np.concatenate([[0], np.cumsum(self.kernel_dims)]).astype(np.int64)

    @property
    def total_kernel_dim(self) -> int:
        """Total number of kernel modes (columns of ``G``)."""
        return int(self.kernel_offsets[-1])

    def assemble_G(self) -> sp.csr_matrix:
        """The natural coarse-space matrix ``G = B R`` (``n_lambda × Σ dim ker``)."""
        offsets = self.kernel_offsets
        blocks_rows, blocks_cols, blocks_vals = [], [], []
        for sub in self.subdomains:
            local = sub.B @ sub.kernel  # (n_lambda_i, kernel_dim)
            if local.size == 0:
                continue
            rows = np.repeat(sub.lambda_ids, sub.kernel_dim)
            cols = np.tile(
                np.arange(sub.kernel_dim) + offsets[sub.index], sub.n_lambda
            )
            blocks_rows.append(rows)
            blocks_cols.append(cols)
            blocks_vals.append(np.asarray(local).ravel())
        if not blocks_rows:
            return sp.csr_matrix((self.n_lambda, self.total_kernel_dim))
        return sp.coo_matrix(
            (
                np.concatenate(blocks_vals),
                (np.concatenate(blocks_rows), np.concatenate(blocks_cols)),
            ),
            shape=(self.n_lambda, self.total_kernel_dim),
        ).tocsr()

    def compute_e(self) -> np.ndarray:
        """The coarse right-hand side ``e = Rᵀ f``."""
        offsets = self.kernel_offsets
        e = np.zeros(self.total_kernel_dim)
        for sub in self.subdomains:
            e[offsets[sub.index] : offsets[sub.index + 1]] = sub.kernel.T @ sub.f
        return e

    # ------------------------------------------------------------------ #
    # Reference solutions (for tests)                                     #
    # ------------------------------------------------------------------ #
    def saddle_point_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """Direct solution of the full torn saddle-point system.

        Returns the concatenated primal solution and the Lagrange multiplier
        vector.  Intended for verification on small problems only.
        """
        import scipy.sparse.linalg as spla

        Kbig = sp.block_diag([s.K for s in self.subdomains]).tocsr()
        fbig = np.concatenate([s.f for s in self.subdomains])
        B = self.gluing.global_B([s.ndofs for s in self.subdomains])
        n = Kbig.shape[0]
        system = sp.bmat([[Kbig, B.T], [B, None]]).tocsc()
        rhs = np.concatenate([fbig, self.c])
        solution = spla.spsolve(system, rhs)
        return solution[:n], solution[n:]

    def primal_solution(
        self, lam: np.ndarray, alpha: np.ndarray
    ) -> list[np.ndarray]:
        """Recover the per-subdomain primal solutions ``uᵢ`` from ``(λ, α)``.

        Implements ``u = K⁺ (f − Bᵀ λ) + R α`` using the exact generalized
        inverse provided by the regularized stiffness matrices.
        """
        import scipy.sparse.linalg as spla

        offsets = self.kernel_offsets
        solutions = []
        for sub in self.subdomains:
            rhs = sub.f - sub.Bt @ lam[sub.lambda_ids]
            u = spla.spsolve(sub.K_reg.tocsc(), rhs)
            a = alpha[offsets[sub.index] : offsets[sub.index + 1]]
            solutions.append(u + sub.kernel @ a)
        return solutions
