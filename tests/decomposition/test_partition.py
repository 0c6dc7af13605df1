"""Tests of the box decomposition into subdomains and clusters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decomposition import decompose_box


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", [1, 2])
def test_subdomain_counts_and_shapes(dim, order):
    dec = decompose_box(dim, 2, 2, order=order)
    assert dec.n_subdomains == 2**dim
    assert dec.order == order
    assert all(s.mesh.dim == dim for s in dec.subdomains)
    assert all(s.mesh.order == order for s in dec.subdomains)


def test_subdomains_tile_the_box():
    dec = decompose_box(2, (2, 3), (2, 2))
    total = sum(s.mesh.total_volume() for s in dec.subdomains)
    assert total == pytest.approx(1.0)
    # subdomain boxes are disjoint and cover the unit square
    origins = {tuple(np.round(s.mesh.origin, 12)) for s in dec.subdomains}
    assert len(origins) == dec.n_subdomains


def test_cluster_assignment_balanced():
    dec = decompose_box(2, (4, 2), 2, n_clusters=4)
    sizes = [len(dec.cluster_members(c)) for c in range(4)]
    assert sizes == [2, 2, 2, 2]
    assert dec.n_clusters == 4


def test_cluster_count_must_divide_subdomains():
    with pytest.raises(ValueError):
        decompose_box(2, 3, 2, n_clusters=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 4, "subdomains_per_dim": 2, "cells_per_subdomain": 2},
        {"dim": 2, "subdomains_per_dim": 0, "cells_per_subdomain": 2},
        {"dim": 2, "subdomains_per_dim": 2, "cells_per_subdomain": (2,)},
        {"dim": 2, "subdomains_per_dim": 2, "cells_per_subdomain": 2, "box_size": (1.0,)},
    ],
)
def test_invalid_arguments_rejected(kwargs):
    with pytest.raises(ValueError):
        decompose_box(**kwargs)


def test_interface_nodes_shared_via_lattice():
    """Neighbouring subdomains duplicate interface nodes with equal lattice keys."""
    dec = decompose_box(2, 2, 3, order=2)
    left, right = dec.subdomains[0], dec.subdomains[2]  # differ in x position
    assert left.grid_position[0] + 1 == right.grid_position[0]
    keys_left = {tuple(l) for l in left.mesh.lattice}
    keys_right = {tuple(l) for l in right.mesh.lattice}
    shared = keys_left & keys_right
    # an order-2 face with 3 cells has 7 nodes
    assert len(shared) == 7


def test_summary_and_helpers():
    dec = decompose_box(3, 2, 2, order=1, n_clusters=2)
    text = dec.summary()
    assert "8 subdomains" in text
    assert dec.dofs_per_subdomain == dec.subdomains[0].mesh.nnodes


@pytest.mark.parametrize(
    ("dim", "subs", "cells", "order"),
    [(2, (8, 8), 8, 1), (2, (3, 2), 3, 2), (3, (2, 2, 1), 4, 1), (3, 2, (2, 3, 2), 2)],
)
def test_members_are_the_translated_template_bit_for_bit(dim, subs, cells, order):
    """One ``structured_mesh`` per shape, every member exactly its own mesh."""
    from repro.fem.mesh import structured_mesh

    dec = decompose_box(dim, subs, cells, order=order)
    n_subs = np.asarray(dec.subdomains_per_dim)
    n_cells = np.asarray(dec.cells_per_subdomain)
    sub_box = 1.0 / n_subs
    global_cell = 1.0 / (n_subs * n_cells)
    (group,) = dec.shape_groups()
    assert [s.index for s in group] == list(range(dec.n_subdomains))
    for sub in dec.subdomains:
        pos = np.asarray(sub.grid_position)
        own = structured_mesh(
            dim,
            dec.cells_per_subdomain,
            order=order,
            origin=tuple(pos * sub_box),
            box_size=tuple(sub_box),
            global_cell_size=tuple(global_cell),
            lattice_offset=tuple(int(2 * p * c) for p, c in zip(pos, n_cells)),
        )
        for field in ("coords", "lattice", "cells", "origin", "box_size"):
            got, want = getattr(sub.mesh, field), getattr(own, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        assert sub.mesh.cells is group[0].mesh.cells
