"""The torn (Total FETI) problem: per-subdomain data and dual-space metadata.

A :class:`FetiProblem` bundles everything the dual operators and the PCPG
iteration need:

* per subdomain: the singular stiffness ``Kᵢ``, its analytic regularization
  ``K_reg,ᵢ``, the kernel basis ``Rᵢ``, the load ``fᵢ``, the local gluing
  matrix ``B̃ᵢ`` together with the global indices of its Lagrange
  multipliers, and the DOF multiplicities used by the scaled preconditioners;
* globally: the number of multipliers, the constraint right-hand side ``c``,
  the natural coarse matrix ``G = B R`` and ``e = Rᵀ f``.

The values are held per **shape group** (:class:`ShapeGroup`): one
:class:`~repro.fem.assembly.CsrStack` for ``K`` and one for ``K_reg``, and
the gluing as one sorted entry list
(:class:`~repro.decomposition.gluing.GluingEntries`).  A subdomain's
``K`` / ``K_reg`` / ``B`` are SciPy matrices built on read — tests,
oracles and user code read them; the solve path reads the stacks
(:meth:`FetiProblem.csr_arrays`) and the entries instead.

A built problem is shared process-wide and read-only: every stiffness
stack, load and kernel array has ``flags.writeable = False``, so an in-place
write raises where it happens.  Other stiffness values or loads reach a
solve as arguments (:meth:`FetiProblem.stiffness`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.decomposition.gluing import GluingData, SubdomainGluing, build_gluing
from repro.decomposition.kernel import fixing_dofs_for, regularize_stack
from repro.decomposition.partition import BoxDecomposition, Subdomain
from repro.fem.assembly import CsrStack, ElementStack, ScatterMap
from repro.fem.mesh import Mesh
from repro.feti.problem_helpers import dofs_per_node_of as _dofs_per_node
from repro.observe.trace import trace_span
from repro.sparse.numeric import CsrArrays

__all__ = ["ShapeGroup", "SubdomainProblem", "FetiProblem"]


@dataclass
class ShapeGroup:
    """The subdomains of one shape and their stacked stiffness values.

    Row ``i`` of ``K`` and ``K_reg`` belongs to subdomain ``indices[i]``.
    """

    indices: np.ndarray
    K: CsrStack
    K_reg: CsrStack


class SubdomainProblem:
    """All per-subdomain data of the torn system.

    ``K`` and ``K_reg`` are CSR views of this subdomain's row of its
    :class:`ShapeGroup`'s stacks, built on every read (read-only, as the
    stacks are); ``B`` is the gluing's ``B̃ᵢ``, built on first read.
    """

    def __init__(
        self,
        index: int,
        cluster: int,
        mesh: Mesh,
        group: ShapeGroup,
        row: int,
        kernel: np.ndarray,
        fixing_dofs: np.ndarray,
        f: np.ndarray,
        gluing: SubdomainGluing,
    ) -> None:
        self.index = index
        self.cluster = cluster
        self.mesh = mesh
        self.kernel = kernel
        self.fixing_dofs = fixing_dofs
        self.f = f
        self.lambda_ids = gluing.lambda_ids
        self.dof_multiplicity = gluing.dof_multiplicity
        self._gluing = gluing
        self._group = group
        self._row = row

    @property
    def K(self) -> sp.csr_matrix:
        """The singular stiffness ``Kᵢ``."""
        return self._group.K.member(self._row)

    @property
    def K_reg(self) -> sp.csr_matrix:
        """The regularized stiffness ``K_reg,ᵢ`` (SPD, ``K_reg⁻¹`` a generalized inverse of ``K``)."""
        return self._group.K_reg.member(self._row)

    @property
    def B(self) -> sp.csr_matrix:
        """The local gluing matrix ``B̃ᵢ`` (rows follow ``lambda_ids``)."""
        return self._gluing.B

    @cached_property
    def Bt(self) -> sp.csc_matrix:
        """``B̃ᵢᵀ`` — the CSC view ``B.T`` returns, built once (``B`` is fixed)."""
        return self.B.T

    @property
    def ndofs(self) -> int:
        """Primal DOFs of the subdomain."""
        return self._group.K.n

    @property
    def n_lambda(self) -> int:
        """Lagrange multipliers connected to the subdomain."""
        return int(self.lambda_ids.shape[0])

    @property
    def kernel_dim(self) -> int:
        """Dimension of the stiffness kernel (1 for heat, 3/6 for elasticity)."""
        return int(self.kernel.shape[1])


def _build_shape(
    physics: object,
    group: list[Subdomain],
    gluing: GluingData,
    dofs_per_node: int,
) -> tuple[ShapeGroup, list[SubdomainProblem]]:
    """Assemble every subdomain of one shape as one stack.

    One element geometry and one scatter map for the shape; ``K``, ``K_reg``
    and ``f`` of all members come out as ``(k, ·)`` stacks, read-only from
    then on.  The stiffness stacks stay the :class:`ShapeGroup`'s; each
    member views its row of them and of the loads and kernels.  Three
    trace spans name the parts: ``element_kernels`` (geometry, stiffness
    and load), ``scatter`` (the map, the sums and the prune) and
    ``regularize`` (kernel bases, fixing DOFs and ``K_reg``).
    """
    meshes = [sub.mesh for sub in group]
    with trace_span("element_kernels"):
        stack = ElementStack(meshes)
        ke = physics.stiffness_kernel(stack)
        fe = physics.load_kernel(stack)
        coords = stack.coords
        del stack  # the geometry is freed before the scatter allocates
    with trace_span("scatter"):
        smap = ScatterMap(physics.element_dofs(meshes[0]), physics.ndofs(meshes[0]))
        values = smap.matrices(ke)
        del ke
        K = smap.prune(values, [s.index for s in group])
        f = smap.vectors(fe)
        del values, fe, smap
    with trace_span("regularize"):
        kernels = physics.kernel_bases(coords)
        fixing_dofs = fixing_dofs_for(meshes[0], kernels, dofs_per_node)
        K_reg, _rho = regularize_stack(K, kernels, fixing_dofs)
    shape = ShapeGroup(np.array([sub.index for sub in group], dtype=np.int64), K, K_reg)
    for array in (
        shape.indices, K.values, K.indices, K.indptr, K_reg.values, K_reg.indices,
        K_reg.indptr, f, kernels, fixing_dofs,
    ):
        array.flags.writeable = False
    return shape, [
        SubdomainProblem(
            index=sub.index,
            cluster=sub.cluster,
            mesh=sub.mesh,
            group=shape,
            row=i,
            kernel=kernels[i],
            fixing_dofs=fixing_dofs,
            f=f[i],
            gluing=gluing.per_subdomain[sub.index],
        )
        for i, sub in enumerate(group)
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
    #: The shape groups: every subdomain is a row of exactly one.
    groups: list[ShapeGroup]
    #: The built load vectors, one per subdomain: each ``f`` until rebound.
    base_loads: tuple[np.ndarray, ...]

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
        shapes: list[ShapeGroup] = []
        subdomains: list[SubdomainProblem] = []
        with trace_span("assembly", subdomains=decomposition.n_subdomains, shapes=len(groups)):
            for group in groups:
                shape, members = _build_shape(physics, group, gluing, dofs_per_node)
                shapes.append(shape)
                subdomains += members
        subdomains.sort(key=lambda sub: sub.index)
        return cls(
            physics=physics,
            decomposition=decomposition,
            gluing=gluing,
            subdomains=subdomains,
            dofs_per_node=dofs_per_node,
            groups=shapes,
            base_loads=tuple(sub.f for sub in subdomains),
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

    def stiffness(
        self, name: str, values: Sequence[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """The values of ``K`` or ``K_reg``: one ``(members, nnz)`` array per
        shape group, in :attr:`groups` order.

        ``values`` in that layout are returned as float arrays, checked
        against the stacks' shapes; ``None`` gives the built values (the
        stacks' own arrays).
        """
        stacks = [getattr(group, name).values for group in self.groups]
        if values is None:
            return stacks
        values = [np.asarray(v, dtype=float) for v in values]
        if [v.shape for v in values] != [v.shape for v in stacks]:
            raise ValueError(
                f"{name} values need one array per shape group, of shapes "
                f"{[v.shape for v in stacks]}; got {[v.shape for v in values]}"
            )
        return values

    def csr_arrays(
        self, name: str, values: Sequence[np.ndarray] | None = None
    ) -> list[CsrArrays]:
        """``(data, indices, indptr)`` of every subdomain's ``K`` or
        ``K_reg`` in index order, building no matrix: its row of ``values``
        (as in :meth:`stiffness`) on its shape group's pattern."""
        arrays: list[CsrArrays] = [None] * self.n_subdomains
        for group, stack in zip(self.groups, self.stiffness(name, values)):
            pattern = getattr(group, name)
            for row, i in enumerate(group.indices.tolist()):
                arrays[i] = (stack[row], pattern.indices, pattern.indptr)
        return arrays

    def block_diagonal(
        self, name: str = "K", values: Sequence[np.ndarray] | None = None
    ) -> sp.csr_matrix:
        """``blockdiag(Kᵢ)`` (or of ``K_reg,ᵢ``) in index order, one CSR, at
        ``values`` (as in :meth:`stiffness`).

        Concatenated from every subdomain's CSR arrays (:meth:`csr_arrays`)
        in one pass: the same matrix ``sp.block_diag`` gives, without a
        SciPy matrix per block.
        """
        arrays = self.csr_arrays(name, values)
        sizes = np.array([indptr.shape[0] - 1 for _, _, indptr in arrays], dtype=np.int64)
        nnz = np.array([indptr[-1] for _, _, indptr in arrays], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        before = np.concatenate([[0], np.cumsum(nnz)])
        indptr = np.concatenate([[0]] + [p[1:] for _, _, p in arrays]).astype(np.int64)
        indptr[1:] += np.repeat(before[:-1], sizes)
        indices = np.concatenate([i[:k] for (_, i, _), k in zip(arrays, nnz.tolist())])
        indices = indices.astype(np.int64) + np.repeat(offsets[:-1], nnz)
        data = np.concatenate([d[:k] for (d, _, _), k in zip(arrays, nnz.tolist())])
        n = int(offsets[-1])
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    def assemble_G(self) -> sp.csr_matrix:
        """The natural coarse-space matrix ``G = B R`` (``n_lambda × Σ dim ker``).

        Every row of ``B̃ᵢ`` has one entry, so ``G[λ, offᵢ + m] = val ·
        Rᵢ[col, m]``: one vectorized pass over the gluing entries, the
        entries and their order those of the per-subdomain ``B̃ᵢ Rᵢ``
        (``0.0 +`` as the sparse product accumulates, so a zero stays
        ``+0.0``).
        """
        e = self.gluing.entries
        dims = np.array(self.kernel_dims, dtype=np.int64)
        if e.lam.size == 0:
            return sp.csr_matrix((self.n_lambda, self.total_kernel_dim))
        if np.any(dims != dims[0]):
            raise ValueError("every subdomain must have the same kernel dimension")
        dim = int(dims[0])
        owner = e.subdomain
        local = e.val[:, None] * self.kernel_stack[owner, e.col, :]
        local += 0.0
        rows = np.repeat(e.lam, dim)
        cols = (self.kernel_offsets[owner][:, None] + np.arange(dim)).ravel()
        return sp.coo_matrix(
            (local.ravel(), (rows, cols)), shape=(self.n_lambda, self.total_kernel_dim)
        ).tocsr()

    @cached_property
    def kernel_stack(self) -> np.ndarray:
        """The diagonal blocks ``Rᵢ`` of ``R``, stacked ``(n_subdomains, ndofs, dim ker)``.

        Built once: the kernels do not change across Algorithm-2 steps, and
        a box decomposition gives every subdomain the same shape.
        Read-only, as every kernel is.
        """
        stack = np.stack([s.kernel for s in self.subdomains])
        stack.flags.writeable = False
        return stack

    @cached_property
    def R(self) -> sp.csr_matrix:
        """Block-diagonal kernel basis: ``α`` → concatenated ``Rᵢ αᵢ``.

        Every dense block stored whole, as ``sp.block_diag`` stores it, from
        the kernel stack in one pass.
        """
        stack = self.kernel_stack
        k, n, dim = stack.shape
        cols = np.arange(k * dim, dtype=np.int64).reshape(k, 1, dim)
        indices = np.broadcast_to(cols, stack.shape).ravel()
        indptr = np.arange(0, k * n * dim + 1, dim, dtype=np.int64)
        return sp.csr_matrix((stack.ravel(), indices, indptr), shape=(k * n, k * dim))

    def compute_e(self, loads: list[np.ndarray] | None = None) -> np.ndarray:
        """The coarse right-hand side ``e = Rᵀ f`` as one batched product.

        ``loads`` are one load vector per subdomain; ``None`` reads every
        subdomain's current ``f``.  Each ``Rᵢᵀ fᵢ`` runs the same BLAS call
        as a per-subdomain product would, so ``e`` is bitwise the
        per-subdomain loop's (a sparse ``Rᵀ @ f`` sums in another order and
        moves ``λ`` in its last bits).
        """
        f = np.stack(self.loads(loads))[:, :, None]
        return np.matmul(self.kernel_stack.transpose(0, 2, 1), f).ravel()

    def loads(self, loads: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """``loads``, or every subdomain's current ``f`` when it is ``None``."""
        return [sub.f for sub in self.subdomains] if loads is None else loads

    def check_loads(self, loads: list[np.ndarray]) -> None:
        """Raise ``ValueError`` unless ``loads`` are one finite load vector
        per subdomain, each of that subdomain's shape."""
        if len(loads) != len(self.subdomains):
            raise ValueError(
                f"got {len(loads)} load vectors but the problem has "
                f"{len(self.subdomains)} subdomains"
            )
        for sub, f in zip(self.subdomains, loads):
            if np.shape(f) != sub.f.shape:
                raise ValueError(
                    f"the load vector of subdomain {sub.index} has shape "
                    f"{np.shape(f)}, expected {sub.f.shape}"
                )
        # One pass over all entries; a subdomain-by-subdomain pass only to
        # name the culprit.
        if self.subdomains and not np.isfinite(np.concatenate(loads)).all():
            sub = next(s for s, f in zip(self.subdomains, loads) if not np.isfinite(f).all())
            raise ValueError(
                f"the load vector of subdomain {sub.index} holds non-finite entries"
            )

    # ------------------------------------------------------------------ #
    # Reference solution (for tests and the benchmark's oracle)           #
    # ------------------------------------------------------------------ #
    def saddle_point_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """Direct solution of the full torn saddle-point system.

        Returns the concatenated primal solution and the Lagrange multiplier
        vector.  Intended for verification on small problems only: an oracle,
        it assembles from every subdomain's own ``Kᵢ``, not from the stacks.
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
