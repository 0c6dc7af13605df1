"""Shared fixtures of the test suite.

The fixtures keep the problems intentionally small (a handful of subdomains
with a few dozen DOFs each) so that the whole suite runs in seconds while
still exercising every code path: 2D/3D, linear/quadratic elements, heat
transfer and elasticity, CPU and simulated-GPU dual operators.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.topology import MachineConfig
from repro.decomposition import decompose_box, regularize_stiffness
from repro.fem.elasticity import LinearElasticityProblem
from repro.fem.heat import HeatTransferProblem
from repro.fem.mesh import structured_mesh
from repro.feti.problem import FetiProblem


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator shared by the suite."""
    return np.random.default_rng(20250612)


@pytest.fixture(scope="session")
def heat() -> HeatTransferProblem:
    """A heat-transfer physics object."""
    return HeatTransferProblem(conductivity=1.0, source=1.0)


@pytest.fixture(scope="session")
def elasticity() -> LinearElasticityProblem:
    """A linear-elasticity physics object."""
    return LinearElasticityProblem(young=1.0, poisson=0.3)


@pytest.fixture(scope="session")
def small_machine_config() -> MachineConfig:
    """Per-cluster resources small enough for fast tests (4 threads/streams)."""
    return MachineConfig(threads_per_cluster=4, streams_per_cluster=4)


@pytest.fixture(scope="session")
def heat_problem_2d(heat) -> FetiProblem:
    """A 2×2-subdomain 2D heat problem (linear triangles)."""
    dec = decompose_box(2, 2, 4, order=1, n_clusters=2)
    return FetiProblem.from_physics(heat, dec, dirichlet_faces=("xmin",))


@pytest.fixture(scope="session")
def heat_problem_3d(heat) -> FetiProblem:
    """A 2×2×1-subdomain 3D heat problem (linear tetrahedra)."""
    dec = decompose_box(3, (2, 2, 1), 2, order=1, n_clusters=1)
    return FetiProblem.from_physics(heat, dec, dirichlet_faces=("zmin",))


@pytest.fixture(scope="session")
def elasticity_problem_2d(elasticity) -> FetiProblem:
    """A 2×1-subdomain 2D elasticity problem (quadratic triangles)."""
    dec = decompose_box(2, (2, 1), 2, order=2, n_clusters=1)
    return FetiProblem.from_physics(elasticity, dec, dirichlet_faces=("xmin",))


def random_spd_matrix(
    n: int, density: float, rng: np.random.Generator
) -> sp.csr_matrix:
    """A random sparse symmetric positive definite matrix (test helper)."""
    a = sp.random(n, n, density=density, random_state=rng, data_rvs=rng.standard_normal)
    a = (a + a.T).tocsr()
    return (a + sp.identity(n) * (abs(a).sum(axis=1).max() + 1.0)).tocsr()


def fem_stiffness(physics, dim: int, cells: int = 3) -> sp.spmatrix:
    """A regularized FEM stiffness matrix (the paper's subdomain workload)."""
    mesh = structured_mesh(dim, cells, order=1)
    K = physics.assemble_stiffness(mesh)
    dofs_per_node = 1 if isinstance(physics, HeatTransferProblem) else dim
    return regularize_stiffness(K, physics.kernel_basis(mesh), mesh, dofs_per_node).K_reg


@pytest.fixture(scope="session")
def spd_matrix_factory(rng):
    """Factory fixture producing random SPD matrices."""

    def factory(n: int, density: float = 0.1) -> sp.csr_matrix:
        return random_spd_matrix(n, density, rng)

    return factory
