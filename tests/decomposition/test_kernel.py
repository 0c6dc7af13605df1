"""Tests of the kernel bases and the fixing-node regularization."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Workload
from repro.api.workload import build_problem
from repro.decomposition import decompose_box, regularize_stiffness, select_fixing_nodes
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh


CASES = [
    ("heat", 2, 1),
    ("heat", 3, 1),
    ("heat", 3, 2),
    ("elasticity", 2, 1),
    ("elasticity", 3, 1),
]

#: Every physics, dimension and element order of the workload zoo.
ZOO = [
    (name, dim, order)
    for name in ("heat", "elasticity")
    for dim in (2, 3)
    for order in (1, 2)
]


def _physics(name):
    return HeatTransferProblem() if name == "heat" else LinearElasticityProblem()


def _dofs_per_node(name, dim):
    return 1 if name == "heat" else dim


@pytest.mark.parametrize(("name", "dim", "order"), CASES)
def test_regularized_matrix_is_spd(name, dim, order):
    mesh = structured_mesh(dim, 2, order=order)
    physics = _physics(name)
    K = physics.assemble_stiffness(mesh)
    R = physics.kernel_basis(mesh)
    reg = regularize_stiffness(K, R, mesh, _dofs_per_node(name, dim))
    eigs = np.linalg.eigvalsh(reg.K_reg.toarray())
    assert eigs.min() > 0.0
    assert abs(reg.K_reg - reg.K_reg.T).max() < 1e-12


@pytest.mark.parametrize(("name", "dim", "order"), ZOO)
def test_regularization_gives_exact_generalized_inverse(name, dim, order):
    """``K K_reg⁻¹ K == K`` — the property the FETI derivation relies on.

    On the pruned ``K`` of a subdomain with ``h = 1/6`` (coordinates that
    are not binary fractions, where the pruning has noise to remove).
    """
    mesh = decompose_box(dim, 2, 3, order=order).subdomains[-1].mesh
    physics = _physics(name)
    K = physics.assemble_stiffness(mesh)
    R = physics.kernel_basis(mesh)
    reg = regularize_stiffness(K, R, mesh, _dofs_per_node(name, dim))
    K = K.toarray()
    error = np.abs(K @ np.linalg.solve(reg.K_reg.toarray(), K) - K).max()
    assert error < 1e-10 * np.abs(K).max()


def test_regularization_preserves_sparsity():
    mesh = structured_mesh(3, 3, order=1)
    physics = HeatTransferProblem()
    K = physics.assemble_stiffness(mesh)
    reg = regularize_stiffness(K, physics.kernel_basis(mesh), mesh, 1)
    # only the fixing-DOF block may be added: at most len(fixing)^2 new entries
    added = reg.K_reg.nnz - K.nnz
    assert added <= reg.fixing_dofs.size ** 2


def test_fixing_nodes_are_spread_and_distinct():
    mesh = structured_mesh(3, 3, order=1)
    nodes = select_fixing_nodes(mesh, n_nodes=4)
    assert nodes.size == 4
    assert np.unique(nodes).size == 4
    coords = mesh.coords[nodes]
    # not collinear: rank of centred coordinates is >= 2
    centred = coords - coords.mean(axis=0)
    assert np.linalg.matrix_rank(centred) >= 2


def test_custom_rho_and_invalid_kernel_shape():
    mesh = structured_mesh(2, 2, order=1)
    physics = HeatTransferProblem()
    K = physics.assemble_stiffness(mesh)
    R = physics.kernel_basis(mesh)
    reg = regularize_stiffness(K, R, mesh, 1, rho=42.0)
    assert reg.rho == 42.0
    with pytest.raises(ValueError):
        regularize_stiffness(K, R[:-1], mesh, 1)


def test_regularization_within_decomposition_workflow():
    dec = decompose_box(2, 2, 2, order=1)
    physics = LinearElasticityProblem()
    sub = dec.subdomains[3]
    K = physics.assemble_stiffness(sub.mesh)
    R = physics.kernel_basis(sub.mesh)
    reg = regularize_stiffness(K, R, sub.mesh, 2)
    # K_reg^{-1} restricted against the kernel reproduces rigid motions:
    # K_reg @ R = rho * M M^T R has support only on fixing DOFs
    residual = reg.K_reg @ R
    mask = np.ones(K.shape[0], dtype=bool)
    mask[reg.fixing_dofs] = False
    assert np.abs(residual[mask]).max() < 1e-10


def test_regularized_pattern_is_k_union_the_fixing_block_by_index():
    """Nothing value-dependent decides what ``K_reg`` stores.

    A stored zero of ``K`` survives (a sparse ``+`` would drop it), and so
    does every position of the fixing block.
    """
    mesh = structured_mesh(3, 2, order=1)
    physics = LinearElasticityProblem()
    K = physics.assemble_stiffness(mesh)
    row_of = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    K.data[np.flatnonzero(K.indices != row_of)[0]] = 0.0  # one stored zero coupling
    reg = regularize_stiffness(K, physics.kernel_basis(mesh), mesh, 3)
    fixing = reg.fixing_dofs
    K_coo, reg_coo = K.tocoo(), reg.K_reg.tocoo()
    expected = set(zip(K_coo.row.tolist(), K_coo.col.tolist()))
    expected |= {(int(i), int(j)) for i in fixing for j in fixing}
    assert set(zip(reg_coo.row.tolist(), reg_coo.col.tolist())) == expected
    assert reg.K_reg.nnz == len(expected) and reg.K_reg.has_canonical_format


#: sha256 of the concatenated ``data`` / ``indices`` / ``indptr`` of every
#: subdomain's ``K_reg``, for the workloads of record: the warm heat 2D solve,
#: the served request and the heat 3D steps.  The heat 2D coordinates are
#: binary fractions, so the couplings that cancel in theory were exact zeros
#: already.  Re-pinned once when the element geometry became closed-form:
#: the adjugate determinant of the ``h = 1/64`` triangles is exact where
#: LAPACK's LU ``det`` rounded (by 1.6e-19 of 2.4e-4), which moved the
#: ``(8, 8)`` values by ≤ 2.7e-15; the per-subdomain build with the
#: closed-form geometry reproduces the heat 2D digests bit for bit.  The
#: heat 3D ``x12`` ``data`` digest was re-pinned once more when the P1 heat
#: element matrices became closed-form (``κ·w·(Aₐ·A_b)/|det J|`` in place of
#: two batched ``matmul``): on ``h = 1/24`` 45% of the element entries move
#: by one ulp (≤ 2.5e-16 relative); its pattern digests did not move.  The
#: ``(2, 2, 2)x8`` pin (``h = 1/16``, binary fractions) was computed before
#: that change and held after it: the closed form is bitwise there.  Both
#: heat 3D ``data`` digests were re-pinned once more when each shape came to
#: be built once, on its template mesh, and summed by SciPy's COO → CSR
#: kernels (which add the duplicates of a row in their sorted order, not in
#: element order): ``x12`` moved in 74.5% of its entries (≤ 3.0e-15
#: relative: template against absolute coordinates, and the order),
#: ``(2, 2, 2)x8`` in 3.6% (≤ 3.0e-16: the order alone, as ``w = 1/6``
#: makes its element entries inexact).  The heat 2D digests did not move:
#: their element entries and sums are exact.
K_REG_SHA256 = {
    ("heat", 2, (8, 8), 8, 4): (
        "3a423c312118e378e40108ce308996054f45b5819117f9093fdedbe96fb409ee",
        "e6045fd20b24dd7070bd3bec49e03ee3572f2f29be3c68006d9c6936269efead",
        "27b44b723fd9c775c16b703c02c74082dc5042c041625f73e2854db4ba44bd5b",
    ),
    ("heat", 2, (4, 4), 8, 2): (
        "e79b57f75aa1d2bef4006ac7097296b1cad5e1ccebf61863eecab998fb899f4c",
        "e536ec6290399edb78ef881cbb80bbbe52ec05c4f87c286f1bea1fd6dbd74b3a",
        "1de2a5a7ebf70a0f1d0227c03248e1466de3bb818bbc4cef35e59ac8e559fba6",
    ),
    ("heat", 3, (2, 2, 1), 12, 1): (
        "ca0db6fbd60149455d31ae96f9255e4014546799c8881cb1d202ab190dbcd9d5",
        "7a23c80d6c22079d2d3b6e62af8045713ffb184e8549186e1c534cbf6a743f86",
        "ff82617fbb37fc46bc80f9e7c8cad4ae704d5045e6ba0cde4b15e8fddb624376",
    ),
    ("heat", 3, (2, 2, 2), 8, 1): (
        "ce016b222939739abcae55174577c3569406bab3f978c5053c09e94de6609c40",
        "a601d32b46be50f876f6f6bdb04b450e0009588a0a83c27520fd4c46039d4750",
        "c641b5b97e25200c3aa370434f1580e586b256055cb85a3ae098fd159f171b89",
    ),
}


def _key_id(key) -> str:
    physics, dim, subdomains, cells, clusters = key
    return f"{physics}{dim}d-{'x'.join(map(str, subdomains))}x{cells}-c{clusters}"


@pytest.mark.parametrize("key", list(K_REG_SHA256), ids=_key_id)
def test_k_reg_of_record_is_bit_identical(key):
    physics, dim, subdomains, cells, clusters = key
    problem = build_problem(Workload(physics, dim, subdomains, cells, n_clusters=clusters))
    digests = []
    for field in ("data", "indices", "indptr"):
        h = hashlib.sha256()
        for sub in problem.subdomains:
            h.update(getattr(sub.K_reg, field).tobytes())
        digests.append(h.hexdigest())
    assert tuple(digests) == K_REG_SHA256[key]
