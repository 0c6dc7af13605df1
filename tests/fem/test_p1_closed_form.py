"""The closed-form P1 heat element matrices against the batched-matmul oracle.

``repro.fem.assembly`` writes every P1 heat element matrix as
``κ·w·(Aₐ·A_b)/|det J|`` from the vertex adjugates; ``tests/oracles/elements.py``
keeps the two batched ``matmul`` it replaced.  The two round differently:
they agree bitwise only where every product and partial sum of both is
exact — the structured meshes' elements on binary-fraction coordinates —
and within a few ulp of the largest entry elsewhere.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.fem.assembly import ElementStack, scalar_stiffness_kernel
from repro.fem.mesh import Mesh
from tests.oracles.elements import matmul_scalar_stiffness

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny

#: Largest ``|closed form − oracle|`` in units of ``eps · max|entry|``
#: (measured ≤ 3.2 on 20 000 random triangles, ≤ 5.0 on 20 000 random
#: tetrahedra: the sum of the two kernels' rounding errors).
ORACLE_ULPS = 8
#: Largest row sum, same unit (measured ≤ 1.9 / ≤ 2.8).
ROW_SUM_ULPS = 8


def _element(coords: np.ndarray, cells: np.ndarray | None = None) -> ElementStack:
    """The elements of a P1 mesh of the given vertices: one simplex of all
    of them unless ``cells`` says otherwise."""
    d = coords.shape[1]
    cells = np.arange(d + 1)[None] if cells is None else cells
    mesh = Mesh(
        dim=d,
        order=1,
        coords=coords,
        cells=cells,
        lattice=np.zeros((coords.shape[0], d), dtype=np.int64),
        origin=np.zeros(d),
        box_size=np.ones(d),
        ncells_per_dim=(cells.shape[0],) + (1,) * (d - 1),
    )
    return ElementStack(mesh)


def _both(coords: np.ndarray, conductivity: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    stack = _element(coords)
    return (
        scalar_stiffness_kernel(stack, conductivity)[0],
        matmul_scalar_stiffness(stack, conductivity)[0],
    )


def _volume_ratio(coords: np.ndarray) -> float:
    """``|det J|`` over the product of the edge lengths (0 when degenerate)."""
    edges = coords[1:] - coords[:1]
    lengths = np.prod(np.linalg.norm(edges, axis=1))
    return abs(np.linalg.det(edges)) / lengths if lengths > 0 else 0.0


@st.composite
def simplices(draw):
    dim = draw(st.sampled_from([2, 3]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    coords = np.array(draw(st.lists(values, min_size=dim * (dim + 1), max_size=dim * (dim + 1))))
    coords = coords.reshape(dim + 1, dim) * scale
    assume(_volume_ratio(coords) > 1e-3)
    return coords


def _underflows(coords: np.ndarray) -> bool:
    """Whether ``|det J|`` or the largest ``|det J · ∇λₐ|²`` of the simplex is
    below ``tiny`` (within a factor of 4 for the rounding of either side):
    ``det J · ∇λₐ`` is the rotated edge opposite vertex ``a`` in 2D, the
    cross product of two edges of the face opposite it in 3D."""
    edges = coords[1:] - coords[:1]
    if coords.shape[1] == 2:
        sides = [b - a for a, b in itertools.combinations(coords, 2)]
        largest = max(float(side @ side) for side in sides)
    else:
        faces = itertools.combinations(coords, 3)
        largest = max(float(n @ n) for n in (np.cross(b - a, c - a) for a, b, c in faces))
    return min(abs(np.linalg.det(edges)), largest) < 4 * TINY


@settings(max_examples=200, deadline=None)
@given(simplices(), st.floats(0.1, 10.0))
def test_p1_element_matrices_match_the_matmul_oracle(coords, conductivity):
    """Every draw either matches the oracle or, when its geometry underflows,
    is refused by name before any kernel runs."""
    try:
        ke, ref = _both(coords, conductivity)
    except ValueError as error:
        assert str(error).startswith("cell 0 is degenerate or too small")
        assert _underflows(coords)
        return
    largest = np.abs(ke).max()
    assert np.array_equal(ke, ke.T)
    assert np.abs(ke.sum(axis=1)).max() <= ROW_SUM_ULPS * EPS * largest
    assert np.abs(ke - ref).max() <= ORACLE_ULPS * EPS * np.abs(ref).max()


@pytest.mark.parametrize(
    "coords, cells, refusal",
    [
        # A Hypothesis draw of the property above: a right triangle of legs
        # 2.8e-162, whose det J underflows to a subnormal.
        (np.array([[0.0, 0.0], [2.8e-162, 0.0], [0.0, 2.8e-162]]), None, "cell 0 .*det J = 1e-323,"),
        # A normal det J (1e-270), but the P1 products |det J · ∇λₐ|² ~ h⁴
        # underflow: the closed form would read 0 where the oracle has 5e-91.
        (np.vstack([np.zeros(3), 1e-90 * np.eye(3)]), None, "cell 0 .*det J = 1e-270,"),
        # Two triangles, the second collapsed onto a segment: the first
        # unusable cell is named.
        (
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]),
            np.array([[0, 1, 2], [0, 1, 3]]),
            "cell 1 .*det J = 0.0,",
        ),
    ],
    ids=["subnormal-det", "underflowing-adjugate", "flat-second-cell"],
)
def test_a_cell_too_small_for_the_kernels_is_refused_by_name(coords, cells, refusal):
    with pytest.raises(ValueError, match=rf"^{refusal} vertices"):
        _element(coords, cells)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-8, 8),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.integers(-64, 64), min_size=2, max_size=2),
    st.integers(0, 20),
)
def test_binary_fraction_triangles_of_power_of_two_area_are_bitwise(i, j, b, shears, shift, k):
    """Every product of both kernels is exact (``w = 1/2``, ``det = ±2ⁱ⁺ʲ⁻²ᵏ``).

    The edges are a lower-triangular pair of power-of-two diagonal, sheared
    by two unimodular integer matrices.
    """
    s, t = shears
    edges = np.array([[1, s], [0, 1]]) @ np.array([[1, 0], [t, 1]]) @ np.array([[2**i, 0], [b, 2**j]])
    coords = np.vstack([np.zeros(2), edges.T]) + np.array(shift)
    ke, ref = _both(coords * 2.0**-k)
    assert np.array_equal(ke, ref)


def _kuhn_tetrahedra():
    """The six tetrahedra of the Kuhn split of the unit cube."""
    for axes in itertools.permutations(range(3)):
        path = [np.zeros(3)]
        for axis in axes:
            path.append(path[-1] + np.eye(3)[axis])
        yield np.array(path)


@pytest.mark.parametrize("tet", list(_kuhn_tetrahedra()), ids=lambda t: "".join(map(str, t.argmax(0))))
@settings(max_examples=40, deadline=None)
@given(
    st.permutations(range(4)),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
    st.lists(st.integers(-64, 64), min_size=3, max_size=3),
    st.integers(0, 20),
)
def test_structured_tetrahedra_on_binary_fractions_are_bitwise(tet, order, signs, shift, k):
    """The heat 3D meshes' elements, ``h = 2⁻ᵏ``, any vertex order or reflection."""
    coords = (tet[list(order)] * np.array(signs) + np.array(shift, dtype=float)) * 2.0**-k
    ke, ref = _both(coords)
    assert np.array_equal(ke, ref)
