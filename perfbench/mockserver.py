"""Mock completion and relevance endpoint, run as its own process.

    python3 mockserver.py --seed 1 --latency-ms 2 --share-503 0.05

It prints ``PORT <n>`` on its first stdout line once it listens on
127.0.0.1 and serves until its stdin closes or it gets SIGTERM.

Routes:
  POST /complete   completion API; answers ``answer_for(prompt)``
  POST /relevance  external fact-linker; answers ``relevance_for(body)``
  GET  /stats      counters since the last reset, as JSON
  POST /reset      clears counters and the per-prompt attempt index

Every POST sleeps ``--latency-ms`` before answering. Fault injection is
keyed on the seed, the prompt and that prompt's attempt index since the
last reset: a seeded share of prompts gets one 503 on its first attempt,
another share one 429 with ``Retry-After: 0``. The same seed and request
sequence therefore give the same status mix on every run.

Nagle's algorithm is disabled on every accepted socket. With HTTP/1.1
keep-alive the default handler writes headers and body separately; with
Nagle on, the second small write waits for the client's delayed ACK
(about 40 ms on Linux) and the mock measures that stall, not the client.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def _unit(*parts: object) -> float:
    """Deterministic value in [0, 1) from the hashed parts."""
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def answer_for(prompt: str) -> str:
    """The completion the mock returns for ``prompt``."""
    return "ans-" + hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]


def relevance_for(body: dict) -> float:
    """The relevance the mock returns for a scorer request body."""
    return _unit(body.get("context"), body.get("head"), body.get("relation"), body.get("tail"))


class _Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.attempts: dict[str, int] = {}  # per-prompt attempt index
        self.status: dict[str, int] = {}  # of /complete answers
        self.complete_requests = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self.complete_ms: list[float] = []  # handling time of /complete requests

    def snapshot(self) -> dict:
        return {
            "complete_requests": self.complete_requests,
            "distinct_prompts": len(self.attempts),
            "status": dict(self.status),
            "in_flight_max": self.in_flight_max,
            "complete_ms": list(self.complete_ms),
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as real completion APIs serve

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, *args):
        pass

    def _send(self, status: int, payload: dict, headers: dict | None = None) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            return self._send(404, {"error": "not found"})
        stats = self.server.stats
        with stats.lock:
            payload = stats.snapshot()
        self._send(200, payload)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        stats = self.server.stats
        if self.path == "/reset":
            with stats.lock:
                stats.reset()
            return self._send(200, {})
        if self.path not in ("/complete", "/relevance"):
            return self._send(404, {"error": "not found"})
        start = time.perf_counter()
        with stats.lock:
            stats.in_flight += 1
            stats.in_flight_max = max(stats.in_flight_max, stats.in_flight)
            if self.path == "/complete":
                stats.complete_requests += 1
                prompt = body["prompt"]
                attempt = stats.attempts.get(prompt, 0)
                stats.attempts[prompt] = attempt + 1
        opts = self.server.opts
        time.sleep(opts.latency_ms / 1000.0)
        headers = None
        if self.path == "/relevance":
            status, payload = 200, {"relevance": relevance_for(body)}
        else:
            draw = _unit(opts.seed, prompt)
            if attempt == 0 and draw < opts.share_503:
                status, payload = 503, {"error": "injected unavailable"}
            elif attempt == 0 and draw < opts.share_503 + opts.share_429:
                status, payload = 429, {"error": "injected rate limit"}
                headers = {"Retry-After": "0"}
            else:
                n = int(body.get("n", 1))
                status, payload = 200, {"choices": [{"text": answer_for(prompt)}] * n}
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        with stats.lock:
            stats.in_flight -= 1
            if self.path == "/complete":
                stats.status[str(status)] = stats.status.get(str(status), 0) + 1
                stats.complete_ms.append(elapsed_ms)
        self._send(status, payload, headers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency-ms", type=float, default=2.0)
    parser.add_argument("--share-503", type=float, default=0.0)
    parser.add_argument("--share-429", type=float, default=0.0)
    opts = parser.parse_args(argv)

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.opts = opts
    server.stats = _Stats()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
