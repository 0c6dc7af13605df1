"""The stacked problem build against the per-subdomain oracles.

``FetiProblem.from_physics`` assembles every subdomain shape as one stack
(one element geometry, one scatter map, one ``bincount``) and glues with one
``lexsort``.  The oracles in ``tests/oracles/assembly.py`` and
``tests/oracles/gluing.py`` are the per-subdomain loop and the dict-based
gluing it replaced.  Patterns, fixing DOFs and the whole gluing must be
identical; the values differ only by the summation order and the
closed-form geometry.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.decomposition import decompose_box
from repro.fem import assembly
from repro.fem.assembly import ElementStack, PatternMismatchError, ScatterMap
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.feti.problem import FetiProblem
from repro.observe.trace import trace
from tests.oracles import assembly as assembly_oracle
from tests.oracles import elements as elements_oracle
from tests.oracles import gluing as gluing_oracle

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


@pytest.mark.parametrize("case", [c for c in ZOO if c[0] == "heat"], ids=_id)
def test_heat_stiffness_matches_the_matmul_kernel_build(case):
    """The closed-form P1 element matrices, summed and pruned, against the
    same build on the batched-``matmul`` kernel (``tests/oracles/elements.py``)."""
    _name, dim, subs, cells, order, clusters, faces = case
    physics = HeatTransferProblem()
    dec = decompose_box(dim, subs, cells, order=order, n_clusters=clusters)
    problem = FetiProblem.from_physics(physics, dec, dirichlet_faces=faces)
    for shape, group in zip(problem.groups, dec.shape_groups()):
        meshes = [sub.mesh for sub in group]
        smap = ScatterMap(physics.element_dofs(meshes[0]), physics.ndofs(meshes[0]))
        ke = elements_oracle.matmul_scalar_stiffness(ElementStack(meshes))
        ref = smap.prune(smap.matrices(ke))
        assert np.array_equal(shape.K.indices, ref.indices)
        assert _close(shape.K.values, ref.values)


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
    [Workload("heat", 2, (8, 8), 8, n_clusters=4), Workload("heat", 3, (2, 2, 1), 12)],
    ids=["heat2d-8x8x8-c4", "heat3d-2x2x1x12"],
)
def test_build_computes_geometry_once_and_one_scatter_map(workload, monkeypatch):
    """One shape, so one geometry pass and one COO → CSR map — not per subdomain."""
    geometry = _count(monkeypatch, assembly, "vertex_adjugates")
    maps = _count(monkeypatch, ScatterMap, "__init__")
    conversions = _count(monkeypatch, sp.coo_matrix, "tocsr")
    build_problem.cache_clear()
    try:
        problem = build_problem(workload)
    finally:
        build_problem.cache_clear()
    assert problem.n_subdomains == workload.n_subdomains
    assert (geometry[0], maps[0], conversions[0]) == (1, 1, 0)


def test_a_mismatched_prune_mask_names_the_member():
    mesh = decompose_box(2, 2, 3).subdomains[0].mesh
    smap = ScatterMap(mesh.cells, mesh.nnodes)
    values = smap.matrices(assembly.scalar_stiffness_kernel(ElementStack([mesh, mesh, mesh])))
    values[2, np.flatnonzero(smap.rows != smap.cols)[0]] = 0.0  # one coupling cancels
    with pytest.raises(PatternMismatchError, match="member 12 ") as err:
        smap.prune(values, names=[10, 11, 12])
    assert isinstance(err.value, ValueError)


def test_a_stack_needs_one_connectivity():
    a = decompose_box(2, 2, 3).subdomains[0].mesh
    b = decompose_box(2, 2, 4).subdomains[0].mesh
    with pytest.raises(ValueError, match="member 1"):
        ElementStack([a, b])


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
