"""Shared fixtures: deterministic embedding tables and a configurable
in-process HTTP server standing in for remote endpoints, in a one-request
(HTTP/1.0) and a keep-alive (HTTP/1.1) flavour."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from textkg.matching.embeddings import EmbeddingTable


@pytest.fixture()
def tiny_table():
    """Hand-built 4-dim table over a tiny vocabulary."""
    vectors = {
        "hammer": [1.0, 0.0, 0.0, 0.0],
        "nail": [0.9, 0.1, 0.0, 0.0],
        "wood": [0.8, 0.0, 0.2, 0.0],
        "party": [0.0, 1.0, 0.0, 0.0],
        "dance": [0.0, 0.9, 0.1, 0.0],
        "beer": [0.0, 0.8, 0.0, 0.2],
    }
    return EmbeddingTable.from_mapping(vectors)


def random_table(words, dim=16, seed=0, loc=None):
    rng = np.random.default_rng(seed)
    base = loc if loc is not None else np.zeros(dim)
    return EmbeddingTable.from_mapping(
        {w: base + rng.normal(0, 1.0, dim) for w in words})


class _Handler(BaseHTTPRequestHandler):
    server_version = "MockAPI/0"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.state["requests"].append({
            "path": self.path,
            "body": body,
            "authorization": self.headers.get("Authorization"),
        })
        behavior = self.server.state["behavior"]
        status, payload = behavior(self.server.state, body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_Handler):
    """Serves many requests per connection and records the client port of
    each connection it accepts. Nagle's algorithm is off, or the body
    written after the headers would wait for the client's delayed ACK."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.state["client_ports"].append(self.client_address[1])


class MockServer:
    def __init__(self, handler=_Handler):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.httpd.state = {"requests": [], "client_ports": [],
                            "behavior": self.echo_behavior}
        # a short poll interval keeps shutdown() from waiting out the default 0.5 s
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/complete"

    @property
    def requests(self) -> list:
        return self.httpd.state["requests"]

    @property
    def client_ports(self) -> list:
        """Client port of every connection accepted (keep-alive flavour only)."""
        return self.httpd.state["client_ports"]

    def set_behavior(self, fn) -> None:
        """fn(state, request_body) -> (status, payload); a bytes payload
        is sent as it is, anything else as JSON."""
        self.httpd.state["behavior"] = fn

    @staticmethod
    def echo_behavior(state, body):
        n = body.get("n", 1)
        return 200, {"choices": [{"text": f"echo:{body['prompt']}"} for _ in range(n)]}

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture()
def mock_server():
    server = MockServer()
    yield server
    server.close()


@pytest.fixture()
def keepalive_server():
    server = MockServer(_KeepAliveHandler)
    yield server
    server.close()
