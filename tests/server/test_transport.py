"""Wire-level behaviour of the HTTP front: each response leaves in one send on
a TCP_NODELAY socket, so keep-alive calls never wait out the client's
delayed ACK, and errors the stdlib raises before routing still come back as
the typed JSON envelope."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.server.app import SubDExRequestHandler

# the delayed-ACK stall costs ~40 ms per response; the fixed path well under 1
STALL_FREE_MS = 10.0


def keepalive_median_ms(address, method, path, body=None, expect=200, n=20):
    """Median wall time of ``n`` calls on one keep-alive connection."""
    host, port = address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    samples = []
    try:
        for __ in range(n):
            start = time.perf_counter()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            response.read()
            samples.append((time.perf_counter() - start) * 1000.0)
            assert response.status == expect
            assert not response.will_close
    finally:
        connection.close()
    return statistics.median(samples)


def raw_exchange(address, request: bytes) -> tuple[bytes, bytes]:
    """Send raw bytes, read until the server closes; split head from body."""
    with socket.create_connection(address[:2], timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, __, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, body


def header(head: bytes, name: str) -> str | None:
    for line in head.decode("latin-1").split("\r\n")[1:]:
        key, __, value = line.partition(":")
        if key.strip().lower() == name.lower():
            return value.strip()
    return None


@pytest.mark.parametrize(
    "method, path, body, expect",
    [
        ("GET", "/health", None, 200),
        ("GET", "/no/such/endpoint", None, 404),
        ("POST", "/sessions", json.dumps({"dataset": "missing"}).encode(), 400),
    ],
    ids=["health", "not_found", "post_4xx"],
)
def test_keepalive_calls_skip_the_delayed_ack(server, method, path, body, expect):
    median = keepalive_median_ms(server.server_address, method, path, body, expect)
    assert median < STALL_FREE_MS, f"{method} {path}: median {median:.1f} ms"


def test_each_response_is_one_send_on_a_nodelay_socket(server, monkeypatch):
    writes: list[int] = []
    nodelay: list[int] = []
    original_setup = SubDExRequestHandler.setup

    class CountingWriter:
        def __init__(self, inner):
            self._inner = inner

        def write(self, data):
            writes.append(len(data))
            return self._inner.write(data)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def setup(handler):
        original_setup(handler)
        nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = CountingWriter(handler.wfile)

    monkeypatch.setattr(SubDExRequestHandler, "setup", setup)
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for path in ("/health", "/metrics?format=prometheus", "/nope"):
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            assert body
    finally:
        connection.close()
    assert nodelay == [1]
    assert len(writes) == 3  # head and body together, once per response


def test_malformed_request_line_gets_a_json_envelope(server):
    head, body = raw_exchange(server.server_address, b"GARBAGE\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert header(head, "Content-Type").startswith("application/json")
    assert header(head, "Connection") == "close"
    assert int(header(head, "Content-Length")) == len(body)
    error = json.loads(body)["error"]
    assert error["code"] == "malformed_request"
    assert "GARBAGE" in error["message"]


def test_unsupported_method_gets_a_501_envelope(server):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("PUT", "/health", body=b"{}")
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 501
    assert response.getheader("Content-Type").startswith("application/json")
    assert payload["error"]["code"] == "method_not_implemented"


def test_head_gets_headers_and_no_body(server):
    head, body = raw_exchange(
        server.server_address, b"HEAD /health HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    assert head.startswith(b"HTTP/1.1 501 ")
    assert header(head, "Content-Type").startswith("application/json")
    assert int(header(head, "Content-Length")) > 0
    assert body == b""


def test_oversized_request_line_gets_a_414_envelope(server):
    path = b"/" + b"a" * 70000
    head, body = raw_exchange(
        server.server_address, b"GET " + path + b" HTTP/1.1\r\n\r\n"
    )
    assert head.startswith(b"HTTP/1.1 414 ")
    assert json.loads(body)["error"]["code"] == "uri_too_long"


def test_http09_request_still_gets_a_bare_body(server):
    head, body = raw_exchange(server.server_address, b"GET /health\r\n\r\n")
    payload = json.loads(head)  # no status line: the whole reply is JSON
    assert payload["status"] == "ok"
    assert body == b""
