"""Serve-layer observability: Prometheus endpoint, request ids, access logs."""

import http.client
import logging
import re

import pytest

from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")

_HELP = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_TYPE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
_SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$")


@pytest.fixture()
def server():
    with ServerThread(ServeConfig(port=0, concurrency=2, queue_limit=4)) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


def _assert_valid_exposition(text: str) -> None:
    for line in text.splitlines():
        if not line:
            continue
        assert (
            _HELP.match(line) or _TYPE.match(line) or _SAMPLE.match(line)
        ), f"invalid exposition line: {line!r}"


def test_prometheus_endpoint_is_valid_exposition(client):
    client.solve("heat-2d-quick", rhs=2.0)
    text = client.metrics_prometheus()
    _assert_valid_exposition(text)
    assert "# TYPE repro_serve_requests_total counter" in text
    assert "# TYPE repro_serve_uptime_seconds gauge" in text


def test_prometheus_counters_move_with_solves(client):
    def counter(text: str, name: str) -> float:
        match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
        return float(match.group(1)) if match else 0.0

    before = client.metrics_prometheus()
    client.solve("heat-2d-quick", rhs=5.0)
    client.solve("heat-2d-quick", rhs=5.0)  # result-cache hit
    after = client.metrics_prometheus()
    assert (
        counter(after, "repro_serve_solve_completed_total")
        == counter(before, "repro_serve_solve_completed_total") + 1
    )
    assert (
        counter(after, "repro_serve_solve_cache_hits_total")
        == counter(before, "repro_serve_solve_cache_hits_total") + 1
    )
    # the PR-9 tier/pool gauges are present after a solve
    assert "repro_tier_resident_bytes" in after
    assert "repro_pool_sessions 1" in after
    assert "repro_serve_request_latency_seconds_bucket" in after


def test_metrics_json_has_uptime_and_schema(client):
    doc = client.metrics()
    assert doc["uptime_seconds"] > 0.0
    assert "schema_version" in doc


def test_client_rejects_schema_mismatch(server, monkeypatch):
    import repro.serve.client as client_mod

    with ServeClient(port=server.port) as c:
        monkeypatch.setattr(client_mod, "SCHEMA_VERSION", -1)
        with pytest.raises(ServeError, match="schema_version mismatch"):
            c.metrics()


def test_request_id_echoed(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        conn.request("GET", "/v1/health", headers={"X-Repro-Request-Id": "trace-me-42"})
        response = conn.getresponse()
        response.read()
        assert response.getheader("X-Repro-Request-Id") == "trace-me-42"
    finally:
        conn.close()


def test_request_id_generated_when_absent_or_malformed(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        conn.request("GET", "/v1/health")
        response = conn.getresponse()
        response.read()
        generated = response.getheader("X-Repro-Request-Id")
        assert generated and re.fullmatch(r"[0-9a-f]{16}", generated)

        conn.request(
            "GET", "/v1/health", headers={"X-Repro-Request-Id": "bad id with spaces"}
        )
        response = conn.getresponse()
        response.read()
        sanitized = response.getheader("X-Repro-Request-Id")
        assert sanitized != "bad id with spaces"
        assert re.fullmatch(r"[0-9a-f]{16}", sanitized)
    finally:
        conn.close()


def test_access_log_records_solve(client, caplog):
    with caplog.at_level(logging.INFO, logger="repro.serve.access"):
        client.solve("heat-2d-quick", rhs=4.0)
    records = [r for r in caplog.records if getattr(r, "repro_event", "") == "request"]
    assert records, "expected an access-log record per request"
    fields = records[-1].repro_fields
    assert fields["method"] == "POST"
    assert fields["path"] == "/v1/solve"
    assert fields["status"] == 200
    assert fields["latency_ms"] >= 0.0
    assert fields["disposition"] in ("solved", "cached")
    assert "pattern" in fields
    assert re.fullmatch(r"[0-9a-f]{16}", fields["request_id"])


def test_access_log_disposition_for_validation_error(client, caplog):
    with caplog.at_level(logging.INFO, logger="repro.serve.access"):
        with pytest.raises(ServeError):
            client.solve("no-such-preset")
    records = [r for r in caplog.records if getattr(r, "repro_event", "") == "request"]
    assert records[-1].repro_fields["disposition"] == "invalid-400"
    assert records[-1].repro_fields["status"] == 400


def test_404_and_405_still_carry_request_id(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        conn.request("GET", "/nope")
        response = conn.getresponse()
        response.read()
        assert response.status == 404
        assert response.getheader("X-Repro-Request-Id")

        conn.request("POST", "/v1/metrics/prometheus")
        response = conn.getresponse()
        response.read()
        assert response.status == 405
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# One vocabulary: /v1/metrics and the Prometheus scrape read the same    #
# registries                                                             #
# --------------------------------------------------------------------- #
def _samples(text: str) -> dict[str, float]:
    """The unlabelled samples of an exposition, by name."""
    return {
        name: float(value)
        for name, value in re.findall(r"^([a-zA-Z_:][a-zA-Z0-9_:]*) (\S+)$", text, re.MULTILINE)
    }


def test_metrics_json_and_prometheus_are_one_vocabulary():
    from repro.api import Workload

    with ServerThread(ServeConfig(port=0, concurrency=3, queue_limit=8)) as server:
        with ServeClient(port=server.port) as client:
            client.solve("heat-2d-quick", rhs=1.0)
            client.solve("heat-2d-quick", rhs=1.0)  # result-cache hit
            client.solve("elasticity-2d-quick", spec="cpu-explicit")
            heat = Workload.from_preset("heat-2d-quick")
            session = server.server.pool.session_for(heat)
            session.solve_many(heat, [None, None])
            session.solve_many(heat, [None, None, None])
            for j in range(3):
                client.solve("heat-2d-quick", rhs=20.0 + j)
            doc = client.metrics()
            text = client.metrics_prometheus()
    samples = _samples(text)
    pool = doc["session_pool"]
    assert pool["stacked_solves"] == samples["repro_pool_stacked_solves"] == 2
    assert pool["stacked_columns"] == samples["repro_pool_stacked_columns"] == 5
    assert pool["resident_bytes"] == samples["repro_tier_resident_bytes"] > 0
    assert doc["counters"]["solve_completed"] == samples["repro_serve_solve_completed_total"] == 5
    assert doc["result_cache"]["hits"] == samples["repro_result_cache_hits"] == 1
    types = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.MULTILINE))
    totals = {name: kind for name, kind in types.items() if name.endswith("_total")}
    assert "repro_tier_releases_total" in totals
    assert set(totals.values()) == {"counter"}, totals


def test_an_evicted_session_lowers_no_total():
    with ServerThread(ServeConfig(port=0, pool_size=1)) as server:
        with ServeClient(port=server.port) as client:
            client.solve("heat-2d-quick", rhs=1.0)
            client.solve("heat-2d-quick", rhs=2.0)
            before = _samples(client.metrics_prometheus())
            client.solve("elasticity-2d-quick", spec="cpu-explicit")  # evicts heat
            after = _samples(client.metrics_prometheus())
    assert after["repro_pool_evictions"] == 1
    assert after["repro_pool_sessions"] == 1
    assert after["repro_pool_solves"] == 3
    lowered = {
        name: (value, after.get(name))
        for name, value in before.items()
        if name.endswith("_total") and after.get(name, 0.0) < value
    }
    assert not lowered


def test_bad_content_length_is_answered_and_counted(server):
    import socket

    def raw(length: str) -> bytes:
        head = f"POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(head.encode("latin-1"))
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    assert raw("abc").startswith(b"HTTP/1.1 400 ")
    assert raw("-5").startswith(b"HTTP/1.1 400 ")
    too_big = raw(str(64 * 1024 * 1024 + 1))
    assert too_big.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in too_big
    with ServeClient(port=server.port) as client:
        assert client.health()["status"] == "ok"
        counters = client.metrics()["counters"]
    assert counters["http_rejected_400"] == 2
    assert counters["http_rejected_413"] == 1
