"""The template problem build against the per-member and per-subdomain oracles.

``FetiProblem.from_physics`` builds every subdomain shape once, on its
template mesh (one element pass, one CSR sum, one prune), gives every
member that row, and glues with one ``lexsort``.  The oracles are
``tests/oracles/member_stack.py`` (the stack of every member's own
elements it replaced), ``tests/oracles/assembly.py`` (the per-subdomain
loop before that) and ``tests/oracles/gluing.py`` (the dict-based gluing).
Patterns, fixing DOFs and the whole gluing must be identical; the values
differ only by the summation order, the closed-form geometry and the
rounding of absolute against template coordinates.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.decomposition import decompose_box
from repro.decomposition.partition import BoxDecomposition
from repro.fem import assembly
from repro.fem.assembly import ElementStack
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.feti.problem import FetiProblem
from repro.observe.trace import trace
from tests.oracles import assembly as assembly_oracle
from tests.oracles import elements as elements_oracle
from tests.oracles import gluing as gluing_oracle
from tests.oracles import member_stack as member_oracle

#: Heat and elasticity × 2D and 3D × P1 and P2 on ``h = 1/6`` (P1) or
#: ``1/4`` (P2), the heat 2D workload of record and a two-face Dirichlet case:
#: ``(physics, dim, subdomains, cells, order, clusters, dirichlet_faces)``.
ZOO = [
    (physics, dim, (2, 2) if dim == 2 else (2, 2, 1), 3 if order == 1 else 2, order, 1, ("xmin",))
    for physics in ("heat", "elasticity")
    for dim in (2, 3)
    for order in (1, 2)
] + [
    ("heat", 2, (8, 8), 8, 1, 4, ("xmin",)),
    ("elasticity", 3, (2, 1, 2), 2, 1, 2, ("xmin", "zmax")),
]


def _id(case) -> str:
    physics, dim, subs, cells, order, clusters, faces = case
    grid = "x".join(map(str, subs))
    return f"{physics}-{dim}d-p{order}-{grid}x{cells}-c{clusters}-{'+'.join(faces)}"


def _physics(name):
    return HeatTransferProblem() if name == "heat" else LinearElasticityProblem()


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.fixture(scope="module", params=ZOO, ids=_id)
def built(request):
    name, dim, subs, cells, order, clusters, faces = request.param
    physics = _physics(name)
    dec = decompose_box(dim, subs, cells, order=order, n_clusters=clusters)
    problem = FetiProblem.from_physics(physics, dec, dirichlet_faces=faces)
    dpn = 1 if name == "heat" else dim
    return problem, assembly_oracle.build_subdomains(physics, dec), gluing_oracle.build_gluing(
        dec, dpn, dirichlet_faces=faces
    )


def test_patterns_and_fixing_dofs_are_identical(built):
    problem, oracle, _ = built
    for sub, ref in zip(problem.subdomains, oracle):
        for got, want in ((sub.K, ref.K), (sub.K_reg, ref.K_reg)):
            assert got.indices.dtype == want.indices.dtype
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(sub.fixing_dofs, ref.fixing_dofs)


def test_values_match_the_per_subdomain_build(built):
    problem, oracle, _ = built
    for sub, ref in zip(problem.subdomains, oracle):
        assert _close(sub.K.data, ref.K.data)
        assert _close(sub.K_reg.data, ref.K_reg.data)
        assert _close(sub.f, ref.f)
        assert np.allclose(sub.kernel, ref.kernel, rtol=0.0, atol=1e-14)


def test_every_array_of_the_built_problem_is_read_only(built):
    """A write into a built problem — shared by every session of a process —
    raises where it happens; its stiffness cannot be assigned either."""
    problem, _, _ = built
    arrays = [problem.kernel_stack, problem.R.data, *problem.base_loads]
    for group in problem.groups:
        arrays += [group.indices]
        arrays += [getattr(s, a) for s in (group.K, group.K_reg) for a in ("values", "indices", "indptr")]
    for sub in problem.subdomains:
        arrays += [sub.f, sub.kernel, sub.fixing_dofs]
        arrays += [getattr(m, a) for m in (sub.K, sub.K_reg) for a in ("data", "indices", "indptr")]
    assert not [a for a in arrays if a.flags.writeable]
    sub = problem.subdomains[0]
    K, f = sub.K.data.copy(), sub.f.copy()
    with pytest.raises(ValueError, match="read-only"):
        sub.K.data *= 2
    with pytest.raises(ValueError, match="read-only"):
        sub.f[0] = 0
    with pytest.raises(AttributeError):
        sub.K = 2.0 * sub.K
    with pytest.raises(AttributeError):
        sub.K_reg = 2.0 * sub.K_reg
    assert np.array_equal(sub.K.data, K) and np.array_equal(sub.f, f)


@pytest.mark.parametrize("case", [c for c in ZOO if c[0] == "heat"], ids=_id)
def test_heat_stiffness_matches_the_matmul_kernel_build(case):
    """The closed-form P1 element matrices, summed and pruned, against the
    same build on the batched-``matmul`` kernel (``tests/oracles/elements.py``)."""
    _name, dim, subs, cells, order, clusters, faces = case
    physics = HeatTransferProblem()
    dec = decompose_box(dim, subs, cells, order=order, n_clusters=clusters)
    problem = FetiProblem.from_physics(physics, dec, dirichlet_faces=faces)
    template = dec.template
    ke = elements_oracle.matmul_scalar_stiffness(ElementStack(template))
    ref = assembly.sum_element_matrices(
        ke, physics.element_dofs(template), physics.ndofs(template)
    )
    (shape,) = problem.groups
    assert np.array_equal(shape.K.indices, ref.indices)
    for row in shape.K.values:
        assert _close(row, ref.values[0])


#: The two 2D problems of record (``benchmarks/perf``'s ``heat2d_warm_solve``
#: and ``serve_closed_loop``): ``h = 2⁻⁶`` and ``2⁻⁵``, binary fractions.
BINARY_FRACTION = [
    ("heat", 2, (8, 8), 8, 1, 4, ("xmin",)),
    ("heat", 2, (4, 4), 8, 1, 2, ("xmin",)),
]


@pytest.mark.parametrize("case", ZOO + BINARY_FRACTION, ids=_id)
def test_the_template_build_matches_every_members_own_elements(case):
    """Each member's ``K``, ``K_reg`` and ``f`` against the stack of every
    member's own elements (``tests/oracles/member_stack.py``): bitwise on
    the binary-fraction problems of record, where every element product and
    every sum is exact, and within 1e-13 per entry elsewhere."""
    name, dim, subs, cells, order, clusters, faces = case
    physics = _physics(name)
    dec = decompose_box(dim, subs, cells, order=order, n_clusters=clusters)
    problem = FetiProblem.from_physics(physics, dec, dirichlet_faces=faces)
    (group,) = dec.shape_groups()
    K, K_reg, f = member_oracle.build_shape(physics, group, problem.dofs_per_node)
    (shape,) = problem.groups
    for got, want in ((shape.K, K), (shape.K_reg, K_reg)):
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
    pairs = [(shape.K.values, K.values), (shape.K_reg.values, K_reg.values)]
    pairs.append((np.stack(problem.base_loads), f))
    for got, want in pairs:
        if case in BINARY_FRACTION:
            assert np.array_equal(got, want)
        else:
            assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


def _moved_by_one_ulp(dec: BoxDecomposition, index: int) -> BoxDecomposition:
    subdomains = list(dec.subdomains)
    sub = subdomains[index]
    mesh = dataclasses.replace(sub.mesh, coords=np.nextafter(sub.mesh.coords, np.inf))
    subdomains[index] = dataclasses.replace(sub, mesh=mesh)
    return dataclasses.replace(dec, subdomains=subdomains)


def test_a_member_that_is_not_the_template_translated_is_refused():
    """The template build rests on every member being the template moved by
    its origin, bitwise: a member off by one ulp is named, before any
    element work."""
    dec = decompose_box(2, (2, 2), 3)
    FetiProblem.from_physics(HeatTransferProblem(), dec)  # the premise holds
    moved = _moved_by_one_ulp(dec, 1)
    assert moved.subdomains[1].mesh.cells is dec.template.cells
    geometry = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assembly, "vertex_adjugates", lambda *a: geometry.append(a))
        with pytest.raises(ValueError, match="subdomain 1 is not the template mesh translated"):
            FetiProblem.from_physics(HeatTransferProblem(), moved)
    assert geometry == []


def test_gluing_is_bit_identical_to_the_dict_build(built):
    problem, _, ref = built
    got = problem.gluing
    assert (got.n_lambda, got.n_gluing, got.n_dirichlet) == (
        ref.n_lambda,
        ref.n_gluing,
        ref.n_dirichlet,
    )
    assert got.c.tobytes() == ref.c.tobytes()
    assert gluing_oracle.lambda_owners(got) == ref.lambda_subdomains
    for sub, want in zip(got.per_subdomain, ref.per_subdomain):
        assert sub.lambda_ids.dtype == want.lambda_ids.dtype
        assert np.array_equal(sub.lambda_ids, want.lambda_ids)
        assert sub.B.shape == want.B.shape
        _same_csr(sub.B, want.B)
        assert sub.dof_multiplicity.tobytes() == want.dof_multiplicity.tobytes()


def test_members_view_one_stack_and_share_one_pattern(built):
    problem, _, _ = built
    first = problem.subdomains[0]
    for sub in problem.subdomains[1:]:
        for name in ("K", "K_reg"):
            got, base = getattr(sub, name), getattr(first, name)
            assert np.shares_memory(got.indices, base.indices)
            assert np.shares_memory(got.indptr, base.indptr)
            assert np.shares_memory(got.data, base.data.base)


# --------------------------------------------------------------------- #
# Call budget                                                            #
# --------------------------------------------------------------------- #
def _count(monkeypatch, owner, name) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "workload",
    [
        Workload("heat", 3, (2, 2, 1), 12),
        Workload("heat", 2, (8, 8), 8, n_clusters=4),
        Workload("heat", 2, (32, 32), 8, n_clusters=4),
    ],
    ids=["heat3d-2x2x1x12", "heat2d-8x8x8-c4", "heat2d-32x32x8-c4"],
)
def test_build_computes_one_template_not_one_per_subdomain(workload, monkeypatch):
    """One shape, so one geometry pass over one mesh's cells and one COO sum
    — for 4, 64 and 1 024 members alike — and no scatter map, no sparse
    conversion."""
    cells = []
    adjugates = assembly.vertex_adjugates

    def geometry(coords, mesh_cells):
        cells.append(mesh_cells.shape[0])
        return adjugates(coords, mesh_cells)

    monkeypatch.setattr(assembly, "vertex_adjugates", geometry)
    sums = _count(monkeypatch, assembly, "coo_tocsr")
    conversions = _count(monkeypatch, sp.coo_matrix, "tocsr")
    build_problem.cache_clear()
    try:
        problem = build_problem(workload)
    finally:
        build_problem.cache_clear()
    assert problem.n_subdomains == workload.n_subdomains
    assert cells == [problem.decomposition.template.ncells]
    assert (sums[0], conversions[0]) == (len(problem.groups), 0) == (1, 0)
    assert not hasattr(assembly, "ScatterMap")


# --------------------------------------------------------------------- #
# Observability                                                          #
# --------------------------------------------------------------------- #
def test_a_cold_traced_solve_names_the_problem_build():
    workload = Workload("heat", 2, (4, 4), 4, n_clusters=2)
    build_problem.cache_clear()
    try:
        with trace() as tracer, Session(SolverSpec()) as session:
            session.solve(workload)
    finally:
        build_problem.cache_clear()
    (build,) = tracer.find("problem_build")
    assert build.attrs == {"subdomains": 16, "shapes": 1}
    children = {s.name: s for s in tracer.spans if s.parent_id == build.span_id}
    assert set(children) == {"assembly", "gluing"}
    assert children["assembly"].attrs == {"subdomains": 16, "shapes": 1}
    # One of each part per shape, in build order.
    parts = sorted(
        (s for s in tracer.spans if s.parent_id == children["assembly"].span_id),
        key=lambda s: s.start_us,
    )
    assert [s.name for s in parts] == ["element_kernels", "scatter", "regularize"]
    assert sum(s.duration_us for s in parts) <= children["assembly"].duration_us
    assert sum(s.duration_us for s in children.values()) <= build.duration_us
    (solve,) = tracer.find("session.solve")
    ancestors, span = set(), build
    by_id = {s.span_id: s for s in tracer.spans}
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        ancestors.add(span.span_id)
    assert solve.span_id in ancestors
