"""Tests of the PCPG iteration on synthetic dual systems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.feti.pcpg import PcpgResult, pcpg


def _identity(x):
    return x


def _make_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_pcpg_solves_unconstrained_spd_system():
    n = 40
    F = _make_spd(n)
    d = np.arange(1.0, n + 1.0)
    result = pcpg(
        apply_F=lambda x: F @ x,
        apply_P=_identity,
        apply_M=_identity,
        d=d,
        lambda_0=np.zeros(n),
        tolerance=1e-12,
        max_iterations=200,
    )
    assert result.converged
    assert np.allclose(F @ result.lam, d, atol=1e-6)
    assert result.iterations <= n + 2
    assert result.relative_residual < 1e-10


def test_pcpg_with_projector_stays_in_subspace():
    """With P projecting onto a subspace, iterates stay feasible."""
    n = 30
    F = _make_spd(n, seed=1)
    rng = np.random.default_rng(2)
    G = rng.standard_normal((n, 3))
    P = np.eye(n) - G @ np.linalg.solve(G.T @ G, G.T)
    d = rng.standard_normal(n)
    lam0 = G @ np.linalg.solve(G.T @ G, rng.standard_normal(3))
    result = pcpg(
        apply_F=lambda x: F @ x,
        apply_P=lambda x: P @ x,
        apply_M=_identity,
        d=d,
        lambda_0=lam0,
        tolerance=1e-11,
        max_iterations=200,
    )
    assert result.converged
    # the constraint G^T lambda = G^T lambda_0 is preserved by the projection
    assert np.allclose(G.T @ result.lam, G.T @ lam0, atol=1e-8)
    # the projected residual vanishes
    assert np.allclose(P @ (d - F @ result.lam), 0.0, atol=1e-6)


def test_preconditioner_reduces_iteration_count():
    n = 60
    rng = np.random.default_rng(3)
    diag = np.logspace(0, 4, n)
    F = np.diag(diag)
    d = rng.standard_normal(n)
    opts = dict(tolerance=1e-10, max_iterations=500)
    plain = pcpg(lambda x: F @ x, _identity, _identity, d, np.zeros(n), **opts)
    precond = pcpg(
        lambda x: F @ x, _identity, lambda x: x / diag, d, np.zeros(n), **opts
    )
    assert precond.converged
    assert precond.iterations < plain.iterations


def test_zero_rhs_converges_immediately():
    n = 10
    F = _make_spd(n)
    result = pcpg(lambda x: F @ x, _identity, _identity, np.zeros(n), np.zeros(n))
    assert result.converged
    assert result.iterations == 0
    assert np.allclose(result.lam, 0.0)


def test_max_iterations_reported_as_not_converged():
    n = 50
    diag = np.logspace(0, 8, n)
    F = np.diag(diag)
    d = np.ones(n)
    result = pcpg(
        lambda x: F @ x, _identity, _identity, d, np.zeros(n),
        tolerance=1e-14, max_iterations=3,
    )
    assert not result.converged
    assert result.iterations == 3
    assert len(result.residual_norms) >= 3


def test_callback_invoked_each_iteration():
    n = 20
    F = _make_spd(n, seed=5)
    calls = []
    pcpg(
        lambda x: F @ x, _identity, _identity, np.ones(n), np.zeros(n),
        tolerance=1e-10, max_iterations=100,
        callback=lambda k, norm: calls.append((k, norm)),
    )
    assert len(calls) >= 1
    assert calls[0][0] == 1
    assert all(norm >= 0 for _, norm in calls)


def test_indefinite_operator_detected():
    n = 10
    F = -np.eye(n)
    result = pcpg(lambda x: F @ x, _identity, _identity, np.ones(n), np.zeros(n))
    assert not result.converged


def test_result_dataclass_fields():
    result = PcpgResult(lam=np.zeros(3), iterations=0, converged=True)
    assert result.relative_residual == 0.0
    assert result.condition_estimate is None


def test_condition_estimate_matches_dense_spectrum_on_range_of_projector():
    """The Lanczos estimate is ``κ(P M P F)`` restricted to ``range(P)``."""
    n = 40
    rng = np.random.default_rng(7)
    F = np.diag(np.logspace(0, 3, n))
    M = _make_spd(n, seed=8)
    G = rng.standard_normal((n, 4))
    P = np.eye(n) - G @ np.linalg.solve(G.T @ G, G.T)
    result = pcpg(
        lambda x: F @ x, lambda x: P @ x, lambda x: M @ x,
        rng.standard_normal(n), np.zeros(n), tolerance=1e-12, max_iterations=200,
    )
    assert result.converged
    Q = np.linalg.eigh(P)[1][:, 4:]  # orthonormal basis of range(P)
    spectrum = np.linalg.eigvals((Q.T @ M @ Q) @ (Q.T @ F @ Q)).real
    assert result.condition_estimate == pytest.approx(spectrum.max() / spectrum.min(), rel=0.1)


def test_condition_estimate_needs_an_iteration_and_a_positive_preconditioner():
    n = 10
    F = _make_spd(n)
    at_solution = pcpg(lambda x: F @ x, _identity, _identity, np.zeros(n), np.zeros(n))
    assert at_solution.condition_estimate is None
    one_step = pcpg(lambda x: 2.0 * x, _identity, _identity, np.ones(n), np.zeros(n))
    assert one_step.iterations == 1
    assert one_step.condition_estimate == 1.0
    negative = pcpg(lambda x: F @ x, _identity, lambda x: -x, np.ones(n), np.zeros(n))
    assert negative.condition_estimate is None
