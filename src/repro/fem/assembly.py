"""Finite-element assembly of one mesh: one element pass, one CSR sum.

A subdomain shape is built once, on its template mesh
(:attr:`repro.decomposition.BoxDecomposition.template`): every member of the
shape is the template translated, and a translation changes no element
matrix and no element load.

* :class:`ElementStack` computes the affine geometry of the mesh's elements
  once (:func:`vertex_adjugates`: the vertex coordinates gathered into
  component-first arrays, the closed-form adjugate rows
  ``Aₐ = det J · ∇λₐ`` with ``A₀ = −Σ Aᵢ``, and ``det J``); the stiffness
  and load kernels share it;
* P1 heat elements take a closed form: ``K_e[a, b] = κ·w·(Aₐ·A_b)/|det J|``,
  one dot product over component-first arrays per unique ``(a, b)``,
  written into the ``(ncells, m, m)`` stack the sum reads — no gradients,
  no per-element product.  It is bitwise the batched-``matmul`` kernel it
  replaced (``tests/oracles/elements.py``) wherever that kernel's products
  are exact (the structured meshes on binary-fraction coordinates, e.g.
  ``h = 2⁻ᵏ``), and within two ulp per entry elsewhere;
* P2 heat and every elasticity kernel are one batched product (``matmul``)
  over the physical gradients, which the stack computes on first read;
* :func:`sum_element_matrices` sums the ``ncells · m²`` entries into one
  canonical CSR through SciPy's compiled COO → CSR kernels (the ones
  ``coo_matrix.tocsr()`` ends in, bound directly: no sparse-matrix object)
  and drops the cancellation noise (:data:`PRUNE_TOLERANCE`), so the stored
  pattern is a function of the shape alone (:class:`CsrStack`);
  :func:`sum_element_vectors` sums the loads with one ``bincount``.

The single-mesh ``assemble_*`` functions are these steps on one mesh; the
problem build (:func:`repro.feti.problem.FetiProblem.from_physics`) runs
them on each shape's template and gives every member that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr, csr_sort_indices, csr_sum_duplicates

from repro.fem.mesh import Mesh
from repro.fem.quadrature import simplex_quadrature

__all__ = [
    "PRUNE_TOLERANCE",
    "CsrStack",
    "ElementStack",
    "vertex_adjugates",
    "element_geometry",
    "sum_element_matrices",
    "sum_element_vectors",
    "scalar_stiffness_kernel",
    "scalar_load_kernel",
    "elasticity_stiffness_kernel",
    "elasticity_load_kernel",
    "elasticity_dof_map",
    "assemble_scalar_stiffness",
    "assemble_scalar_load",
    "assemble_elasticity_stiffness",
    "assemble_elasticity_load",
]


def vertex_adjugates(coords: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``det J · ∇λₐ`` of every vertex of every cell of a mesh, and ``det J``.

    The vertex coordinates gathered into component-first arrays (one
    ``take`` per vertex, the edges formed as they arrive), then the
    closed-form adjugate: row ``j + 1`` of the result is row ``j`` of
    ``adj J`` (the cross product of the other two edges in 3D), row 0 is
    minus their sum.  Exact wherever the products are, e.g. on
    binary-fraction coordinates.

    Parameters
    ----------
    coords:
        Node coordinates, shape ``(nnodes, dim)``.
    cells:
        The connectivity, shape ``(ncells, nodes_per_cell)``.

    Returns
    -------
    adjugate:
        ``(dim + 1, dim, ncells)``: vertex, component, element.
    det:
        Signed Jacobian determinants, ``(ncells,)``.
    """
    dim = coords.shape[-1]
    ncells = cells.shape[0]
    x = np.ascontiguousarray(coords.T)  # (dim, nnodes)
    v0 = np.take(x, cells[:, 0], axis=1)
    # The Jacobian's columns are the edges from vertex 0: e[j][d] is
    # component d of edge j, shape (ncells,).
    e = np.empty((dim, dim, ncells))
    for j in range(dim):
        np.subtract(np.take(x, cells[:, j + 1], axis=1), v0, out=e[j])
    del v0
    adj = np.empty((dim + 1, dim, ncells))
    if dim == 2:
        (ax, ay), (bx, by) = e
        adj[1, 0] = by
        np.negative(bx, out=adj[1, 1])
        np.negative(ay, out=adj[2, 0])
        adj[2, 1] = ax
        det = ax * by - bx * ay
    else:
        # Rows of the adjugate: e1 × e2, e2 × e0, e0 × e1.
        term = np.empty(ncells)
        for j in range(3):
            p, q = e[(j + 1) % 3], e[(j + 2) % 3]
            for d in range(3):
                d1, d2 = (d + 1) % 3, (d + 2) % 3
                entry = np.multiply(p[d1], q[d2], out=adj[j + 1, d])
                entry -= np.multiply(p[d2], q[d1], out=term)
        ax, ay, az = e[0]
        det = ax * adj[1, 0] + ay * adj[1, 1] + az * adj[1, 2]
    first = np.add(adj[1], adj[2], out=adj[0])
    for row in adj[3:]:
        first += row
    np.negative(first, out=first)
    return adj, det


def element_geometry(coords: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine geometry of every cell of a mesh.

    Parameters
    ----------
    coords:
        Node coordinates, shape ``(nnodes, dim)``.
    cells:
        The connectivity, shape ``(ncells, nodes_per_cell)``.

    Returns
    -------
    inv_jac:
        Inverse Jacobians, shape ``(ncells, dim, dim)`` (reference →
        physical), the adjugate of :func:`vertex_adjugates` over the
        determinant.
    det_jac:
        Absolute Jacobian determinants, shape ``(ncells,)``.
    """
    adj, det = vertex_adjugates(coords, cells)
    return np.moveaxis(adj[1:] / det, (0, 1), (-2, -1)), np.abs(det)


def _refuse_degenerate(adjugate: np.ndarray, det: np.ndarray, mesh: Mesh) -> None:
    """Raise a ``ValueError`` naming the first cell the kernels cannot use.

    That is a cell whose ``|det J|``, or whose largest ``|det J · ∇λₐ|²``
    (the products of the P1 closed form), is zero, subnormal or not finite:
    a degenerate cell, or one so small that its element matrix would come
    out ``inf``, ``nan`` or flushed to zero.  In 2D the second bound follows
    from the first; a tetrahedron of edge ``h`` meets it only for
    ``h⁴ ≥ tiny``.
    """
    sizes = np.vstack([np.abs(det), (adjugate**2).sum(axis=1).max(axis=0)])
    usable = (np.isfinite(sizes) & (sizes >= np.finfo(float).tiny)).all(axis=0)
    if not usable.all():
        cell = int(np.argmin(usable))
        raise ValueError(
            f"cell {cell} is degenerate or too small for the element kernels: "
            f"det J = {float(det[cell])!r}, vertices {mesh.coords[mesh.cells[cell]].tolist()}"
        )


class ElementStack:
    """The elements of one mesh, their geometry computed once.

    Attributes
    ----------
    cells:
        The connectivity, ``(ncells, nodes_per_cell)``.
    coords:
        Node coordinates, ``(nnodes, dim)``.
    order:
        The element order (1 linear, 2 quadratic).
    shape:
        Shape functions at the quadrature points, ``(nq, nodes_per_cell)``.
    weights:
        Quadrature weights, ``(nq,)``.
    adjugate, det:
        ``det J · ∇λₐ`` of the vertices, ``(dim + 1, dim, ncells)``, and the
        signed ``det J``, ``(ncells,)`` (:func:`vertex_adjugates`).
    wdet:
        Quadrature weight times ``|det J|``, ``(ncells, nq)``.
    grads:
        Physical shape-function gradients, ``(ncells, nq, nodes_per_cell,
        dim)``, computed on first read (P1 heat elements never read them).
    """

    def __init__(self, mesh: Mesh) -> None:
        self.reference = mesh.reference_element
        quad = simplex_quadrature(mesh.dim, self.reference.quadrature_degree)
        self.dim = mesh.dim
        self.order = mesh.order
        self.nnodes = mesh.nnodes
        self.cells = mesh.cells
        self.coords = mesh.coords
        self.points = quad.points
        self.weights = quad.weights
        self.shape = self.reference.shape_functions(quad.points)  # (nq, nnodes)
        self.adjugate, self.det = vertex_adjugates(mesh.coords, mesh.cells)
        _refuse_degenerate(self.adjugate, self.det, mesh)
        self.wdet = np.abs(self.det).reshape(-1, 1) * quad.weights[None, :]

    @cached_property
    def grads(self) -> np.ndarray:
        """Physical shape-function gradients, ``(ncells, nq, m, dim)``."""
        inv_jac = np.moveaxis(self.adjugate[1:] / self.det, (0, 1), (-2, -1))  # (ncells, dim, dim)
        ref_grads = self.reference.shape_gradients(self.points)  # (nq, nnodes, dim)
        # dN/dx = dN/dxi · dxi/dx = ref_grads @ inv_jac
        nq, m, dim = ref_grads.shape
        grads = np.matmul(ref_grads.reshape(nq * m, dim), inv_jac)  # (ncells, nq·m, dim)
        return grads.reshape(-1, nq, m, dim)


#: Entries with ``|aᵢⱼ| ≤ PRUNE_TOLERANCE · sqrt(|aᵢᵢ aⱼⱼ|)`` are cancellation
#: noise and are not stored.  Couplings that cancel exactly in theory (the
#: Kuhn-split P1 elements make the heat 3D stencil 7-point) come out of the
#: element sums as ≤ 2e-16-relative rounding, or as exact zeros, depending
#: on the coordinates; the smallest genuine coupling on the structured meshes
#: (heat and elasticity, P1 and P2, 2D and 3D) is ≥ 9e-3.  Pruning makes the
#: stored pattern — and so the symbolic analysis — a function of the
#: subdomain shape alone.
PRUNE_TOLERANCE = 1e-12


@dataclass
class CsrStack:
    """``k`` square CSR matrices of one pattern.

    ``values`` is ``(k, nnz)``, one row per member, and all members share one
    ``indices`` / ``indptr`` pair.  The stack is the storage: a problem
    keeps one per shape group (:class:`~repro.feti.problem.ShapeGroup`) and
    its consumers read the rows and the pattern directly.  :meth:`member`
    builds a member's SciPy CSR (a view of its row) only for whoever reads
    one.
    """

    values: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def from_keys(cls, values: np.ndarray, keys: np.ndarray, n: int) -> "CsrStack":
        """The stack storing ``(k, nnz)`` values at sorted ``row · n + col`` keys."""
        dtype = _index_dtype(n, keys.size)
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(values, (keys % n).astype(dtype), indptr)

    @property
    def n(self) -> int:
        """Rows (and columns) of every member."""
        return int(self.indptr.shape[0] - 1)

    def keys(self) -> np.ndarray:
        """``row · n + col`` of every stored entry, sorted (the CSR order)."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return rows * self.n + self.indices

    def member(self, i: int) -> sp.csr_matrix:
        """Member ``i`` as a CSR whose ``data`` is a view of ``values[i]``."""
        matrix = sp.csr_matrix(
            (self.values[i], self.indices, self.indptr), shape=(self.n, self.n), copy=False
        )
        # The constructor copies a view that is a small part of its base.
        matrix.data = self.values[i]
        return matrix

    def members(self) -> list[sp.csr_matrix]:
        """Every member, in stack order."""
        return [self.member(i) for i in range(self.values.shape[0])]


def _index_dtype(*sizes: int) -> type:
    """``int32`` when every size fits it (SciPy's choice), else ``int64``."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def sum_element_matrices(ke: np.ndarray, dofs: np.ndarray, n: int) -> CsrStack:
    """Sum element matrices into one pruned CSR matrix: a stack of one.

    Entry ``(c, a, b)`` of ``ke`` lands at ``(dofs[c, a], dofs[c, b])``.  The
    ``ncells · m²`` entries go through the compiled kernels
    ``coo_matrix.tocsr()`` ends in — ``coo_tocsr``, ``csr_sort_indices``,
    ``csr_sum_duplicates``, called directly, so the values are bitwise that
    conversion's and no sparse-matrix object is built — and the noise is
    then dropped: every ``|aᵢⱼ| ≤`` :data:`PRUNE_TOLERANCE` ``·
    sqrt(|aᵢᵢ aⱼⱼ|)``.

    Parameters
    ----------
    ke:
        Element matrices, ``(ncells, m, m)``.
    dofs:
        Element DOF map, ``(ncells, m)``.
    n:
        DOFs of the mesh.
    """
    ncells, m = dofs.shape
    count = ncells * m * m
    dtype = _index_dtype(n, count)
    rows = np.repeat(dofs, m, axis=1).astype(dtype).ravel()
    cols = np.tile(dofs, m).astype(dtype).ravel()
    indptr = np.empty(n + 1, dtype=dtype)
    indices = np.empty(count, dtype=dtype)
    data = np.empty(count)
    coo_tocsr(n, n, count, rows, cols, ke.ravel(), indptr, indices, data)
    del rows, cols
    csr_sort_indices(n, indptr, indices, data)
    csr_sum_duplicates(n, n, indptr, indices, data)
    nnz = int(indptr[-1])
    data, indices = data[:nnz], indices[:nnz]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys = rows * n + indices
    scale = np.sqrt(np.abs(data[np.searchsorted(keys, np.arange(n, dtype=np.int64) * (n + 1))]))
    keep = np.abs(data) > PRUNE_TOLERANCE * scale[rows] * scale[indices]
    return CsrStack.from_keys(data[keep][None], keys[keep], n)


def sum_element_vectors(fe: np.ndarray, dofs: np.ndarray, n: int) -> np.ndarray:
    """Sum element vectors ``(ncells, m)`` over the DOF map into ``(n,)``: one ``bincount``."""
    return np.bincount(dofs.ravel(), weights=fe.ravel(), minlength=n)


# ---------------------------------------------------------------------- #
# Scalar diffusion (heat transfer)                                        #
# ---------------------------------------------------------------------- #
def scalar_stiffness_kernel(stack: ElementStack, conductivity: float = 1.0) -> np.ndarray:
    """Element matrices of ``-div(kappa grad u)``, ``(ncells, m, m)``.

    P1 elements take the closed form (:func:`_p1_scalar_stiffness`); higher
    orders one batched ``matmul`` over the stack's gradients.
    """
    if stack.order == 1:
        return _p1_scalar_stiffness(stack, conductivity)
    ncells, nq, m, dim = stack.grads.shape
    # Gradients as (element, node, quadrature point · component); a view for nq = 1.
    g = stack.grads.transpose(0, 2, 1, 3).reshape(ncells, m, nq * dim)
    gw = g * np.repeat(conductivity * stack.wdet, dim, axis=1)[:, None, :]
    return np.matmul(gw, g.transpose(0, 2, 1))


def _p1_scalar_stiffness(stack: ElementStack, conductivity: float) -> np.ndarray:
    """P1 element matrices in closed form: ``K[a, b] = κ·w·(Aₐ·A_b)/|det J|``.

    ``Aₐ = det J · ∇λₐ`` (:attr:`ElementStack.adjugate`) and ``w`` is the
    reference volume.  Each of the ``m (m + 1) / 2`` unique entries is one
    dot product over component-first arrays, so the matrices are exactly
    symmetric.  They are bitwise the gradient ``matmul`` wherever its
    products are exact (binary-fraction coordinates) and within two ulp of
    it elsewhere (``tests/fem/test_p1_closed_form.py``).
    """
    adj = stack.adjugate
    m, dim, count = adj.shape
    rows, cols = np.triu_indices(m)
    # The unique entries are computed in the output's own memory (its first
    # rows.size · count values), then laid out element by element.
    ke = np.empty((count, m, m))
    upper = ke.reshape(-1)[: rows.size * count].reshape(rows.size, count)
    term = np.empty(count)
    for entry, a, b in zip(upper, rows, cols):
        np.multiply(adj[a, 0], adj[b, 0], out=entry)
        for d in range(1, dim):
            entry += np.multiply(adj[a, d], adj[b, d], out=term)
    scale = conductivity * stack.weights.sum() / np.abs(stack.det)
    by_element = np.multiply(upper.T, scale[:, None], out=np.empty((count, rows.size)))
    unique = np.empty((m, m), dtype=np.intp)
    unique[rows, cols] = unique[cols, rows] = np.arange(rows.size)
    np.take(by_element, unique.ravel(), axis=1, out=ke.reshape(count, m * m), mode="clip")
    return ke


def scalar_load_kernel(stack: ElementStack, source: float | np.ndarray = 1.0) -> np.ndarray:
    """Element loads of a heat source, ``(ncells, m)``.

    ``source`` is a scalar or a per-node array (interpolated through the
    shape functions).
    """
    shape, wdet = stack.shape, stack.wdet
    if np.isscalar(source):
        fq = float(source) * wdet
    else:
        source = np.asarray(source, dtype=float)
        if source.shape != (stack.nnodes,):
            raise ValueError("per-node source must have shape (nnodes,)")
        nodal = np.einsum("qn,cn->cq", shape, source[stack.cells], optimize=True)
        fq = wdet * nodal
    return fq @ shape


def assemble_scalar_stiffness(mesh: Mesh, conductivity: float = 1.0) -> sp.csr_matrix:
    """Stiffness matrix of ``-div(kappa grad u)`` on one mesh.

    One DOF per node; the DOF numbering equals the node numbering.
    """
    ke = scalar_stiffness_kernel(ElementStack(mesh), conductivity)
    return sum_element_matrices(ke, mesh.cells, mesh.nnodes).member(0)


def assemble_scalar_load(mesh: Mesh, source: float | np.ndarray = 1.0) -> np.ndarray:
    """Load vector of a volumetric heat source on one mesh."""
    fe = scalar_load_kernel(ElementStack(mesh), source)
    return sum_element_vectors(fe, mesh.cells, mesh.nnodes)


# ---------------------------------------------------------------------- #
# Linear elasticity                                                       #
# ---------------------------------------------------------------------- #
def _elastic_moduli(dim: int, young: float, poisson: float) -> np.ndarray:
    """Constitutive matrix in Voigt notation (plane strain in 2D)."""
    e, nu = young, poisson
    lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = e / (2.0 * (1.0 + nu))
    if dim == 2:
        c = np.array(
            [
                [lam + 2.0 * mu, lam, 0.0],
                [lam, lam + 2.0 * mu, 0.0],
                [0.0, 0.0, mu],
            ]
        )
    else:
        c = np.zeros((6, 6))
        c[:3, :3] = lam
        c[np.arange(3), np.arange(3)] = lam + 2.0 * mu
        c[3:, 3:] = mu * np.eye(3)
    return c


def _strain_displacement(grads: np.ndarray, dim: int) -> np.ndarray:
    """Voigt strain-displacement matrices.

    Parameters
    ----------
    grads:
        Physical gradients, shape ``(ncells, nq, nnodes, dim)``.

    Returns
    -------
    numpy.ndarray
        B matrices, shape ``(ncells, nq, nvoigt, nnodes * dim)`` with DOFs
        interleaved per node (``u_x, u_y[, u_z]`` for node 0, then node 1...).
    """
    ncells, nq, nnodes, _ = grads.shape
    nvoigt = 3 if dim == 2 else 6
    b = np.zeros((ncells, nq, nvoigt, nnodes * dim))
    gx = grads[..., 0]
    gy = grads[..., 1]
    if dim == 2:
        b[:, :, 0, 0::2] = gx
        b[:, :, 1, 1::2] = gy
        b[:, :, 2, 0::2] = gy
        b[:, :, 2, 1::2] = gx
    else:
        gz = grads[..., 2]
        b[:, :, 0, 0::3] = gx
        b[:, :, 1, 1::3] = gy
        b[:, :, 2, 2::3] = gz
        # Voigt shear order: yz, xz, xy
        b[:, :, 3, 1::3] = gz
        b[:, :, 3, 2::3] = gy
        b[:, :, 4, 0::3] = gz
        b[:, :, 4, 2::3] = gx
        b[:, :, 5, 0::3] = gy
        b[:, :, 5, 1::3] = gx
    return b


def elasticity_dof_map(cells: np.ndarray, dim: int) -> np.ndarray:
    """Element DOF connectivity for vector-valued elements.

    Node ``n`` owns DOFs ``dim*n .. dim*n + dim - 1``.
    """
    ncells, nnodes = cells.shape
    dofs = (dim * cells[:, :, None] + np.arange(dim)[None, None, :]).reshape(
        ncells, nnodes * dim
    )
    return dofs


def elasticity_stiffness_kernel(
    stack: ElementStack, young: float = 1.0, poisson: float = 0.3
) -> np.ndarray:
    """Element matrices of linear elasticity (plane strain in 2D), ``(ncells, m, m)``."""
    c = _elastic_moduli(stack.dim, young, poisson)
    b = _strain_displacement(stack.grads, stack.dim)  # (elements, nq, nvoigt, m)
    ncells, nq, nvoigt, m = b.shape
    cbw = np.matmul(c, stack.wdet[:, :, None, None] * b).reshape(ncells, nq * nvoigt, m)
    return np.matmul(b.reshape(ncells, nq * nvoigt, m).transpose(0, 2, 1), cbw)


def elasticity_load_kernel(
    stack: ElementStack, body_force: tuple[float, ...] | np.ndarray = (0.0, -1.0)
) -> np.ndarray:
    """Element loads of a constant body force, ``(ncells, m)``."""
    force = np.asarray(body_force, dtype=float)
    if force.shape != (stack.dim,):
        raise ValueError(f"body_force must have {stack.dim} components")
    # fe[c, n, d] = force[d] * sum_q wdet[c, q] * shape[q, n]
    return ((stack.wdet @ stack.shape)[:, :, None] * force).reshape(stack.wdet.shape[0], -1)


def assemble_elasticity_stiffness(
    mesh: Mesh, young: float = 1.0, poisson: float = 0.3
) -> sp.csr_matrix:
    """Linear-elasticity stiffness matrix on one mesh."""
    ke = elasticity_stiffness_kernel(ElementStack(mesh), young, poisson)
    dofs = elasticity_dof_map(mesh.cells, mesh.dim)
    return sum_element_matrices(ke, dofs, mesh.nnodes * mesh.dim).member(0)


def assemble_elasticity_load(
    mesh: Mesh, body_force: tuple[float, ...] | np.ndarray = (0.0, -1.0)
) -> np.ndarray:
    """Load vector of a constant body force on one mesh."""
    fe = elasticity_load_kernel(ElementStack(mesh), body_force)
    return sum_element_vectors(fe, elasticity_dof_map(mesh.cells, mesh.dim), mesh.nnodes * mesh.dim)
