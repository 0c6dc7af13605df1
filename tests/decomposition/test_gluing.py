"""Tests of the Total-FETI gluing construction."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.decomposition import build_gluing, decompose_box
from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh
from tests.oracles import gluing as gluing_oracle


@pytest.fixture(scope="module")
def simple_decomposition():
    return decompose_box(2, 2, 2, order=1)


@pytest.fixture(scope="module")
def simple_gluing(simple_decomposition):
    return build_gluing(simple_decomposition, dofs_per_node=1, dirichlet_faces=("xmin",))


def test_counts(simple_gluing):
    g = simple_gluing
    assert g.n_lambda == g.n_gluing + g.n_dirichlet
    assert g.n_lambda == g.c.shape[0]
    # xmin face: 2 subdomains x 3 boundary nodes = 6 Dirichlet rows
    assert g.n_dirichlet == 6


def test_multiplier_owners_match_the_dict_build(simple_decomposition, simple_gluing):
    g = simple_gluing
    owners = gluing_oracle.lambda_owners(g)
    assert len(owners) == g.n_lambda
    # A gluing row ties two subdomains, a Dirichlet row belongs to one.
    assert all(len(o) == 2 for o in owners[: g.n_gluing])
    assert all(len(o) == 1 for o in owners[g.n_gluing :])
    ref = gluing_oracle.build_gluing(simple_decomposition, 1, ("xmin",))
    assert owners == ref.lambda_subdomains


def test_local_matrices_are_signed_boolean(simple_gluing):
    for sub in simple_gluing.per_subdomain:
        if sub.B.nnz:
            assert set(np.unique(sub.B.data)) <= {-1.0, 1.0}
        assert sub.B.shape[0] == sub.lambda_ids.shape[0]
        assert np.all(np.diff(sub.lambda_ids) > 0)


def test_gluing_rows_have_two_entries_dirichlet_rows_one(simple_decomposition, simple_gluing):
    g = simple_gluing
    ndofs = [s.mesh.nnodes for s in simple_decomposition.subdomains]
    B = g.global_B(ndofs)
    row_nnz = np.diff(B.indptr)
    assert np.all(row_nnz[: g.n_gluing] == 2)
    assert np.all(row_nnz[g.n_gluing :] == 1)
    # gluing rows sum to zero (u_a - u_b), Dirichlet rows to one
    row_sums = np.asarray(B.sum(axis=1)).ravel()
    assert np.allclose(row_sums[: g.n_gluing], 0.0)
    assert np.allclose(row_sums[g.n_gluing :], 1.0)


def test_global_B_has_full_row_rank(simple_decomposition, simple_gluing):
    g = simple_gluing
    ndofs = [s.mesh.nnodes for s in simple_decomposition.subdomains]
    B = g.global_B(ndofs).toarray()
    assert np.linalg.matrix_rank(B) == g.n_lambda


def test_multiplicity(simple_decomposition, simple_gluing):
    # the centre node of a 2x2 decomposition is shared by all four subdomains
    maxima = [sub.dof_multiplicity.max() for sub in simple_gluing.per_subdomain]
    assert max(maxima) == 4
    assert all(sub.dof_multiplicity.min() == 1 for sub in simple_gluing.per_subdomain)


def test_dirichlet_value_propagates_to_c():
    dec = decompose_box(2, 2, 2, order=1)
    g = build_gluing(dec, dofs_per_node=1, dirichlet_faces=("xmin",), dirichlet_value=7.5)
    assert np.allclose(g.c[: g.n_gluing], 0.0)
    assert np.allclose(g.c[g.n_gluing :], 7.5)


def test_vector_dofs_gluing():
    dec = decompose_box(2, (2, 1), 2, order=1)
    g = build_gluing(dec, dofs_per_node=2, dirichlet_faces=("xmin",))
    # the interface has 3 shared nodes and none are on xmin -> 3*2 gluing rows
    assert g.n_gluing == 6
    # xmin face of the left subdomain: 3 nodes x 2 components
    assert g.n_dirichlet == 6


@pytest.mark.parametrize("dim,order", [(2, 1), (2, 2), (3, 1)])
def test_torn_system_reproduces_global_solution(dim, order):
    """The saddle-point system with B reproduces the unpartitioned FEM solve."""
    subs = 2 if dim == 2 else (2, 1, 1)
    cells = 3 if dim == 2 else 2
    dec = decompose_box(dim, subs, cells, order=order)
    heat = HeatTransferProblem()
    g = build_gluing(dec, dofs_per_node=1, dirichlet_faces=("xmin",))

    Kblocks = [heat.assemble_stiffness(s.mesh) for s in dec.subdomains]
    fblocks = [heat.assemble_load(s.mesh) for s in dec.subdomains]
    ndofs = [s.mesh.nnodes for s in dec.subdomains]
    Kbig = sp.block_diag(Kblocks).tocsr()
    B = g.global_B(ndofs)
    system = sp.bmat([[Kbig, B.T], [B, None]]).tocsc()
    rhs = np.concatenate([np.concatenate(fblocks), g.c])
    u = spla.spsolve(system, rhs)[: Kbig.shape[0]]

    # unpartitioned reference
    if dim == 2:
        global_cells = (2 * cells, 2 * cells)
    else:
        global_cells = (2 * cells, cells, cells)
    gm = structured_mesh(dim, global_cells, order=order)
    Kg = heat.assemble_stiffness(gm)
    fg = heat.assemble_load(gm)
    fixed = gm.boundary_nodes("xmin")
    free = np.setdiff1d(np.arange(gm.nnodes), fixed)
    ug = np.zeros(gm.nnodes)
    ug[free] = spla.spsolve(Kg[np.ix_(free, free)].tocsc(), fg[free])
    reference = {tuple(l): ug[i] for i, l in enumerate(gm.lattice)}

    offset = 0
    for s in dec.subdomains:
        for i, lattice in enumerate(s.mesh.lattice):
            assert u[offset + i] == pytest.approx(reference[tuple(lattice)], abs=1e-9)
        offset += s.mesh.nnodes
