"""The closed-loop load generator against a stand-in HTTP server."""

from __future__ import annotations

import http.server
import threading

import pytest

from benchmarks.perf.gauge import SpeedGauge
from benchmarks.perf.serve_bench import BLOCK_REQUESTS, ServeClient, closed_loop


class _Echo(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        status = 429 if body == b"reject" else 200
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def echo_port():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.mark.parametrize("clients", [1, 2, 3])
def test_reply_i_answers_body_i_whatever_the_client_count(echo_port, clients):
    bodies = [str(i).encode() for i in range(20)]
    replies = closed_loop(echo_port, bodies, SpeedGauge(), clients=clients)
    assert [r.body for r in replies] == bodies
    assert all(r.status == 200 and r.end >= r.start and r.slowdown > 0 for r in replies)


def test_one_client_reads_the_gauge_between_blocks_never_inside_one(echo_port):
    gauge = SpeedGauge()
    replies = closed_loop(echo_port, [b"x"] * (2 * BLOCK_REQUESTS + 1), gauge)
    assert len(gauge.kernel_seconds) == 1 + 3  # before the pass, after each block
    slowdowns = [r.slowdown for r in replies]
    assert len(set(slowdowns[:BLOCK_REQUESTS])) == 1
    assert len(set(slowdowns[BLOCK_REQUESTS : 2 * BLOCK_REQUESTS])) == 1


def test_non_200_and_refused_requests_come_back_as_failed_replies(echo_port):
    (rejected,) = closed_loop(echo_port, [b"reject"], SpeedGauge())
    assert rejected.status == 429
    client = ServeClient(1)  # nothing listens on port 1
    try:
        assert client.request("POST", "/v1/solve", b"x").status == 0
    finally:
        client.close()
