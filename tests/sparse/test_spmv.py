"""The bound CSR kernel is bitwise ``A @ x`` on every matrix routed through it."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.workload import Workload, build_problem
from repro.feti.operators.batch import SubdomainBatchEngine
from repro.feti.preconditioner import DirichletPreconditioner, LumpedPreconditioner
from repro.feti.projector import build_projector
from repro.sparse.spmv import CsrProduct

WORKLOADS = [
    pytest.param(Workload("heat", 2, (4, 4), 3, n_clusters=2), id="heat-2d"),
    pytest.param(
        Workload("heat", 3, (2, 2, 1), 2, dirichlet_faces=("zmin",)), id="heat-3d"
    ),
    pytest.param(Workload("elasticity", 3, (2, 1, 1), 2), id="elasticity-3d"),
]


def _routed_products(problem) -> dict[str, CsrProduct]:
    """Every bound product the solve path applies: G, Gᵀ, both M, B̃ and B̃ᵀ."""
    projector = build_projector(problem)
    engine = SubdomainBatchEngine(problem)
    return {
        "G": projector.G_product,
        "Gt": projector.Gt_product,
        "M lumped": LumpedPreconditioner(problem).product,
        "M dirichlet": DirichletPreconditioner(problem).product,
        "B": engine.B_product,
        "Bt": engine.Bt_product,
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bound_products_are_bitwise_matmul(workload):
    rng = np.random.default_rng(7)
    for name, product in _routed_products(build_problem(workload)).items():
        A = product.matrix
        assert A.format == "csr" and A.nnz > 0, name
        n = A.shape[1]
        x = rng.standard_normal(n)
        X = rng.standard_normal((n, 3))
        for arg in (x, X, np.asfortranarray(X), X[:, 1], X[:, :2]):
            got, want = product(arg), A @ arg
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


def test_inputs_off_the_fast_path_fall_back_to_matmul():
    A = sp.random(7, 5, density=0.5, format="csr", random_state=3)
    product = CsrProduct(A)
    rng = np.random.default_rng(3)
    column = rng.standard_normal((5, 1))
    for arg in (column, column.astype(np.float32), rng.standard_normal((5, 0)), [1.0] * 5):
        got, want = product(arg), A @ arg
        assert got.shape == want.shape and np.array_equal(got, want)
    with pytest.raises(ValueError, match="dimension mismatch"):
        product(np.ones(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        product(np.ones((4, 2)))


def test_binding_needs_an_fp64_csr_matrix():
    A = sp.random(4, 4, density=0.5, format="csr", random_state=0)
    assert CsrProduct(A).matrix is A
    for bad in (A.tocsc(), A.astype(np.float32), A.toarray()):
        with pytest.raises(TypeError, match="fp64 CSR"):
            CsrProduct(bad)


def test_refresh_rebinds_the_preconditioner():
    problem = build_problem(Workload("heat", 2, (2, 2), 3))
    pre = LumpedPreconditioner(problem)
    before = pre.product
    pre.refresh()
    assert pre.product is not before and pre.product.matrix is pre.matrix
