"""End-to-end tests of the HTTP solve service.

Each test boots a real :class:`SolveServer` on an ephemeral port (via
``ServerThread``) and talks to it through ``ServeClient`` — the full wire
path, not handler calls.  Workloads are the quick presets, so each solve is
a few tens of milliseconds.
"""

import threading
import time
from importlib import import_module

import pytest

import repro.serve.server as server_module
from repro.api import Workload
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread
from repro.serve.server import SolveServer

#: The module (``repro.feti.pcpg`` the attribute is the function).
pcpg_module = import_module("repro.feti.pcpg")

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture()
def server():
    with ServerThread(ServeConfig(port=0, concurrency=2, queue_limit=4)) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


# --------------------------------------------------------------------- #
# Contract: health and metrics                                           #
# --------------------------------------------------------------------- #
def test_health_reports_capacity_without_touching_sessions(client):
    doc = client.health()
    assert doc["status"] == "ok"
    assert doc["sessions"] == 0  # health alone must not build sessions
    assert doc["concurrency"] == 2
    assert doc["queue_limit"] == 4


def test_metrics_contract(client):
    client.solve("heat-2d-quick", rhs=2.0)
    doc = client.metrics()
    assert {"counters", "latency_seconds", "result_cache", "session_pool"} <= set(doc)
    assert doc["counters"]["solve_completed"] == 1
    assert doc["counters"]["solve_cache_misses"] == 1
    assert doc["latency_seconds"]["window"] == 1
    assert doc["latency_seconds"]["p50"] > 0
    assert doc["result_cache"]["entries"] == 1
    assert doc["session_pool"]["sessions"] == 1


def test_unknown_path_404_and_wrong_method_405(client):
    with pytest.raises(ServeError) as exc_info:
        client._request("GET", "/v1/nope")
    assert exc_info.value.status == 404
    with pytest.raises(ServeError) as exc_info:
        client._request("GET", "/v1/solve")
    assert exc_info.value.status == 405
    with pytest.raises(ServeError) as exc_info:
        client._request("POST", "/v1/health", {})
    assert exc_info.value.status == 405


# --------------------------------------------------------------------- #
# Solving                                                                #
# --------------------------------------------------------------------- #
def test_solve_round_trip_with_primal(client):
    reply = client.solve("heat-2d-quick", spec="cpu-explicit", rhs=2.0, return_primal=True)
    assert reply["cached"] is False
    assert reply["result"]["converged"] is True
    assert reply["result"]["iterations"] > 0
    assert len(reply["result"]["primal"]) == 4  # 2x2 subdomains
    assert reply["result"]["lam_norm"] > 0


def test_invalid_requests_get_actionable_400s(client):
    with pytest.raises(ServeError, match="registered presets") as exc_info:
        client.solve("no-such-preset")
    assert exc_info.value.status == 400
    with pytest.raises(ServeError, match="unknown request field") as exc_info:
        client._request("POST", "/v1/solve", {"workloads": "heat-2d-quick"})
    assert exc_info.value.status == 400
    for removed in ({"batched": False}, {"blocked": True}, {"coarse": "dense"}):
        (field,) = removed
        with pytest.raises(ServeError, match=f"unknown solver-spec.*'{field}'") as exc_info:
            client.solve("heat-2d-quick", spec={"approach": "expl mkl", **removed})
        assert exc_info.value.status == 400


def test_the_deleted_refinement_policy_is_a_400_before_any_session(client):
    """A spec naming the removed ``fp32`` + refinement policy is refused, not a 500."""
    with pytest.raises(ServeError, match="invalid spec.*'fp64', 'fp32'") as exc_info:
        client.solve("heat-2d-quick", spec={"approach": "expl mkl", "precision": "fp32" + "_ir"})
    assert exc_info.value.status == 400
    doc = client.metrics()
    assert doc["counters"]["solve_rejected_400"] == 1
    assert doc["session_pool"]["sessions"] == 0


def test_a_spec_asking_for_worker_threads_is_a_400_before_any_session(client):
    """A request's ``execution`` may not nest a thread pool in the solve."""
    with pytest.raises(ServeError, match="invalid spec: execution threads:2") as exc_info:
        client.solve("heat-2d-quick", spec={"approach": "expl mkl", "execution": "threads:2"})
    assert exc_info.value.status == 400
    doc = client.metrics()
    assert doc["counters"]["solve_rejected_400"] == 1
    assert doc["session_pool"]["sessions"] == 0


def test_non_finite_rhs_is_a_400_before_any_solve(client):
    """A ``NaN`` load is refused at parse time, not after a capped solve."""
    for rhs in (float("nan"), [[1.0, float("inf")]]):
        with pytest.raises(ServeError, match="finite") as exc_info:
            client.solve("heat-2d-quick", rhs=rhs)
        assert exc_info.value.status == 400
    doc = client.metrics()
    assert doc["counters"]["solve_rejected_400"] == 2
    assert doc["counters"].get("solve_completed", 0) == 0
    assert doc["session_pool"]["sessions"] == 0


def test_non_numeric_rhs_vectors_are_a_400_before_any_session(client):
    """A string, bool or object inside ``rhs`` builds no session."""
    for rhs in (["12", "3"], [[True, 2]], [{"1": 0}]):
        with pytest.raises(ServeError, match="rhs") as exc_info:
            client.solve("heat-2d-quick", rhs=rhs)
        assert exc_info.value.status == 400
    doc = client.metrics()
    assert doc["counters"]["solve_rejected_400"] == 3
    assert doc["counters"].get("solve_completed", 0) == 0
    assert doc["session_pool"]["sessions"] == 0


def test_result_cache_serves_repeat_requests(client):
    first = client.solve("heat-2d-quick", rhs=2.0)
    second = client.solve("heat-2d-quick", rhs=2.0)
    assert first["cached"] is False and second["cached"] is True
    assert second["result"] == first["result"]
    different = client.solve("heat-2d-quick", rhs=3.0)
    assert different["cached"] is False
    counters = client.metrics()["counters"]
    assert counters["solve_cache_hits"] == 1
    assert counters["solve_cache_misses"] == 2


def test_result_cache_does_not_memoise_non_converged_solves(client):
    spec = {"approach": "expl mkl", "max_iterations": 1}
    replies = [client.solve("heat-2d-quick", spec=spec, rhs=2.0) for _ in range(2)]
    for reply in replies:
        assert reply["result"]["converged"] is False
        assert reply["cached"] is False
    doc = client.metrics()
    assert doc["counters"].get("solve_cache_hits", 0) == 0
    assert doc["counters"]["solve_cache_misses"] == 2
    assert doc["result_cache"]["entries"] == 0


def _count_calls(monkeypatch, module, name) -> list[int]:
    """Count the calls of ``module.name`` (a one-element list)."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_disabled_result_cache_never_hashes_a_request(monkeypatch):
    fingerprints = _count_calls(monkeypatch, server_module, "request_fingerprint")
    with ServerThread(ServeConfig(port=0, cache_size=0)) as server:
        with ServeClient(port=server.port) as client:
            replies = [client.solve("heat-2d-quick", rhs=2.0) for _ in range(2)]
            doc = client.metrics()
    assert [reply["cached"] for reply in replies] == [False, False]
    assert replies[1]["result"]["lam"] == replies[0]["result"]["lam"]
    assert fingerprints == [0]
    # Every uncached solve still counts as a miss, on both counters.
    assert doc["counters"]["solve_cache_misses"] == 2
    assert doc["result_cache"]["misses"] == 2 and doc["result_cache"]["entries"] == 0


def test_served_request_never_estimates_the_condition_number(monkeypatch, client):
    """No reply carries ``κ``, so no served solve pays LAPACK for it."""
    estimates = _count_calls(monkeypatch, pcpg_module, "eigvalsh_tridiagonal")
    for factor in (2.0, 3.0):
        assert client.solve("heat-2d-quick", rhs=factor)["result"]["converged"]
    assert estimates == [0]


def test_same_pattern_requests_share_one_symbolic_analysis(client):
    """N same-pattern solves pay for exactly one symbolic analysis."""
    for factor in (1.0, 2.0, 3.0):  # distinct fingerprints: all real solves
        client.solve("heat-2d-quick", rhs=factor)
    patterns = client.metrics()["session_pool"]["patterns"]
    assert len(patterns) == 1
    (pattern,) = patterns
    assert pattern["solves"] == 3
    assert pattern["symbolic_analyses"] == 1
    assert pattern["solver_reuses"] == 2


def test_distinct_patterns_get_distinct_sessions(client):
    client.solve("heat-2d-quick")
    client.solve("elasticity-2d-quick", spec="cpu-explicit")
    pool = client.metrics()["session_pool"]
    assert pool["sessions"] == 2


# --------------------------------------------------------------------- #
# Admission control and timeouts                                         #
# --------------------------------------------------------------------- #
def _slow_solve(monkeypatch, delay: float):
    """Make every pooled solve take at least ``delay`` seconds."""
    from repro.api import Session

    original = Session.solve_request

    def slowed(self, workload, spec, rhs):
        time.sleep(delay)
        return original(self, workload, spec, rhs)

    monkeypatch.setattr(Session, "solve_request", slowed)


def test_saturation_yields_429_with_retry_after(monkeypatch):
    _slow_solve(monkeypatch, 0.8)
    config = ServeConfig(
        port=0, concurrency=1, queue_limit=1, retry_after_seconds=0.25
    )
    with ServerThread(config) as server:
        background_error = []

        def occupy():
            try:
                with ServeClient(port=server.port) as c:
                    c.solve("heat-2d-quick", rhs=1.0)
            except ServeError as exc:  # pragma: no cover - diagnostic only
                background_error.append(exc)

        occupant = threading.Thread(target=occupy)
        occupant.start()
        try:
            time.sleep(0.2)  # let the occupant get admitted
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeError, match="queue is full") as exc_info:
                    client.solve("heat-2d-quick", rhs=2.0)
                assert exc_info.value.status == 429
                assert exc_info.value.retry_after == 0.25
        finally:
            occupant.join()
        assert not background_error

        # Once the occupant finished, admission reopens.
        with ServeClient(port=server.port) as client:
            reply = client.solve("heat-2d-quick", rhs=3.0)
            assert reply["result"]["converged"] is True
            assert client.metrics()["counters"]["solve_rejected_429"] == 1


def test_timeout_yields_504_and_session_stays_serviceable(client):
    # A cold 16-subdomain solve takes tens of milliseconds: it cannot finish
    # inside the event loop's first GIL slice and beat the 1 µs timer.
    workload = Workload("heat", 2, (4, 4), 10).to_dict()
    with pytest.raises(ServeError, match="did not finish") as exc_info:
        client.solve(workload, rhs=2.0, timeout=1e-6)
    assert exc_info.value.status == 504

    # The abandoned solve finishes in the background under the session's
    # locks; the very same pattern keeps serving subsequent requests.
    reply = client.solve(workload, rhs=3.0)
    assert reply["result"]["converged"] is True
    counters = client.metrics()["counters"]
    assert counters["solve_timeouts_504"] == 1
    assert counters["solve_completed"] >= 1


def test_config_validation():
    with pytest.raises(ValueError, match="concurrency"):
        ServeConfig(concurrency=0)
    with pytest.raises(ValueError, match="queue_limit"):
        ServeConfig(concurrency=4, queue_limit=2)
    with pytest.raises(ValueError, match="timeout_seconds"):
        ServeConfig(timeout_seconds=0)


def test_server_binds_an_ephemeral_port():
    server = SolveServer(ServeConfig(port=0))
    assert server.port == 0  # not bound yet

    import asyncio

    async def check():
        await server.start()
        bound = server.port
        await server.aclose()
        return bound

    assert asyncio.run(check()) > 0


def test_metrics_accumulate_coarse_seconds(client):
    client.solve("heat-2d-quick", rhs=3.0)
    doc = client.metrics()
    # One name per quantity: the served solutions' coarse seconds are a
    # serve counter, the projectors' cumulative seconds a pool value.
    assert "totals" not in doc
    assert doc["counters"]["solve_coarse_seconds"] >= 0.0
    pool = doc["session_pool"]
    assert "coarse_applies" in pool
    assert "coarse_seconds" in pool
    assert "hierarchical_projectors" not in pool


def test_solution_payload_reports_coarse_seconds(client):
    reply = client.solve("heat-2d-quick", rhs=4.0)
    assert "coarse_seconds" in reply["result"]
    assert reply["result"]["coarse_seconds"] >= 0.0
