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
from repro.decomposition.kernel import fixing_dofs_for, regularize_stack
from repro.decomposition.partition import BoxDecomposition, Subdomain
from repro.fem.assembly import ElementStack, ScatterMap
from repro.fem.mesh import Mesh
from repro.feti.problem_helpers import dofs_per_node_of as _dofs_per_node
from repro.observe.trace import trace_span

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


def _build_shape(
    physics: object,
    group: list[Subdomain],
    gluing: GluingData,
    dofs_per_node: int,
) -> list[SubdomainProblem]:
    """Assemble every subdomain of one shape as one stack.

    One element geometry and one scatter map for the shape; ``K``, ``K_reg``
    and ``f`` of all members come out as ``(k, ·)`` stacks, and each
    member's ``K`` / ``K_reg`` is a CSR viewing its row of the stack.
    """
    meshes = [sub.mesh for sub in group]
    stack = ElementStack(meshes)
    smap = ScatterMap(physics.element_dofs(meshes[0]), physics.ndofs(meshes[0]))
    K = smap.prune(smap.matrices(physics.stiffness_kernel(stack)), [s.index for s in group])
    f = smap.vectors(physics.load_kernel(stack))
    kernels = physics.kernel_bases(stack.coords)
    del stack, smap  # the element workspaces; only the stacks are kept
    fixing_dofs = fixing_dofs_for(meshes[0], kernels, dofs_per_node)
    K_reg, _rho = regularize_stack(K, kernels, fixing_dofs)
    return [
        SubdomainProblem(
            index=sub.index,
            cluster=sub.cluster,
            mesh=sub.mesh,
            K=K_i,
            K_reg=K_reg_i,
            kernel=kernels[i],
            fixing_dofs=fixing_dofs,
            f=f[i],
            B=gluing.per_subdomain[sub.index].B,
            lambda_ids=gluing.per_subdomain[sub.index].lambda_ids,
            dof_multiplicity=gluing.per_subdomain[sub.index].dof_multiplicity,
        )
        for i, (sub, K_i, K_reg_i) in enumerate(zip(group, K.members(), K_reg.members()))
    ]


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

        The subdomains are built one shape at a time
        (:meth:`~repro.decomposition.partition.BoxDecomposition.shape_groups`),
        inside an ``assembly`` span; the gluing is one ``gluing`` span.

        Parameters
        ----------
        physics:
            A problem object from :mod:`repro.fem` (heat transfer or linear
            elasticity); it must provide ``ndofs``, ``element_dofs``,
            ``stiffness_kernel``, ``load_kernel`` and ``kernel_bases``.
        decomposition:
            The structured box decomposition.
        dirichlet_faces:
            Global box faces with (homogeneous) Dirichlet conditions,
            handled the Total-FETI way (appended to ``B`` and ``c``).
        """
        first_mesh = decomposition.subdomains[0].mesh
        dofs_per_node = _dofs_per_node(physics, first_mesh)
        with trace_span("gluing"):
            gluing = build_gluing(
                decomposition,
                dofs_per_node=dofs_per_node,
                dirichlet_faces=dirichlet_faces,
                dirichlet_value=dirichlet_value,
            )
        groups = decomposition.shape_groups()
        subdomains: list[SubdomainProblem] = []
        with trace_span("assembly", subdomains=decomposition.n_subdomains, shapes=len(groups)):
            for group in groups:
                subdomains += _build_shape(physics, group, gluing, dofs_per_node)
        subdomains.sort(key=lambda sub: sub.index)
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

    @cached_property
    def kernel_stack(self) -> np.ndarray:
        """The diagonal blocks ``Rᵢ`` of ``R``, stacked ``(n_subdomains, ndofs, dim ker)``.

        Built once: the kernels do not change across Algorithm-2 steps, and
        a box decomposition gives every subdomain the same shape.
        """
        return np.stack([s.kernel for s in self.subdomains])

    @cached_property
    def R(self) -> sp.csr_matrix:
        """Block-diagonal kernel basis: ``α`` → concatenated ``Rᵢ αᵢ``."""
        return sp.block_diag(list(self.kernel_stack), format="csr")

    def compute_e(self) -> np.ndarray:
        """The coarse right-hand side ``e = Rᵀ f`` as one batched product.

        Each ``Rᵢᵀ fᵢ`` runs the same BLAS call as a per-subdomain product
        would, so ``e`` is bitwise the per-subdomain loop's (a sparse
        ``Rᵀ @ f`` sums in another order and moves ``λ`` in its last bits).
        """
        f = np.stack([s.f for s in self.subdomains])[:, :, None]
        return np.matmul(self.kernel_stack.transpose(0, 2, 1), f).ravel()

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
