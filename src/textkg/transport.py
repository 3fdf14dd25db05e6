"""The one HTTP client, on the stdlib's :mod:`http.client`. Every remote
call goes through :func:`post_json`, so the retry policy and the mapping
of HTTP outcomes to errors live here. HTTPS trusts the system CA store
(``ssl.create_default_context()``); ``HTTPS_PROXY`` and ``NO_PROXY`` are
not honoured."""

from __future__ import annotations

import http.client
import json
import logging
import queue
import time
import weakref
from urllib.parse import urlsplit

from .errors import ApiError, CredentialError, TransportError

logger = logging.getLogger(__name__)


class Session:
    """Keeps up to ``max_idle`` idle keep-alive connections (RFC 9112, §9)
    per (scheme, host, port), the most recently used handed out first."""

    def __init__(self, max_idle: int):
        self.max_idle = max(max_idle, 1)
        self.idle: dict[tuple, queue.LifoQueue] = {}
        weakref.finalize(self, _close_idle, self.idle)  # for a session dropped unclosed

    def post(self, url: str, data: bytes, headers: dict,
             timeout: float) -> tuple[int, bytes]:
        """Send one POST and return the status and the whole body."""
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise http.client.InvalidURL(f"unsupported URL {url!r}")
        key = (parts.scheme, parts.hostname, parts.port)
        pool = self.idle.get(key) or self.idle.setdefault(key, queue.LifoQueue(self.max_idle))
        try:
            conn = pool.get_nowait()
        except queue.Empty:
            cls = (http.client.HTTPSConnection if parts.scheme == "https"
                   else http.client.HTTPConnection)
            conn = cls(parts.hostname, parts.port)
        conn.timeout = timeout
        reused = conn.sock is not None
        if reused:
            conn.sock.settimeout(timeout)
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        while True:
            try:
                conn.request("POST", path, body=data, headers=headers)
                response = conn.getresponse()
                body = response.read()
                break
            except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one
                conn.close()
                if not reused:
                    raise
                reused = False  # the server closed it while idle: reconnect once, uncharged
            except BaseException:
                conn.close()
                raise
        if not response.will_close:  # http.client has closed those that will
            try:
                pool.put_nowait(conn)
            except queue.Full:
                conn.close()
        return response.status, body

    def close(self) -> None:
        """Close every idle connection; later requests open new ones."""
        _close_idle(self.idle)


def _close_idle(idle: dict[tuple, queue.LifoQueue]) -> None:
    for pool in list(idle.values()):
        while True:
            try:
                pool.get_nowait().close()
            except queue.Empty:
                break


def new_session(max_connections: int) -> Session:
    """A session keeping up to ``max_connections`` idle connections per host."""
    return Session(max_connections)


def post_json(session: Session, url: str, body: dict, *,
              headers: dict | None = None, timeout: float,
              max_attempts: int, backoff_base: float) -> dict:
    """POST ``body`` as JSON and return the decoded JSON response.

    Connection errors and 5xx responses are tried up to ``max_attempts``
    times in all (at least once), sleeping ``backoff_base * 2**(k-1)``
    before retry ``k``; then the last one raises, a 5xx as ApiError. 401
    and 403 raise CredentialError; any other non-200 status, or a body
    that is not JSON, raises ApiError at once. A reused connection that
    the server has closed is reopened once without using up an attempt.
    """
    data = json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json", **(headers or {})}
    last_error: TransportError | None = None
    for attempt in range(max(max_attempts, 1)):
        if attempt:
            time.sleep(backoff_base * (2 ** (attempt - 1)))
        try:
            status, payload = session.post(url, data, headers, timeout)
        except (OSError, http.client.HTTPException, ValueError) as e:
            # a ValueError is a malformed URL or header value
            logger.debug("POST %s attempt %d failed: %s", url, attempt + 1, e)
            last_error = TransportError(f"endpoint unreachable after {attempt + 1} "
                                        f"attempt(s): {e}")
            continue
        text = payload.decode("utf-8", "replace")
        if status in (401, 403):
            raise CredentialError(f"API rejected credentials (status {status})")
        if 500 <= status < 600:
            last_error = ApiError("server error", status=status, body=text)
            continue
        if status != 200:
            raise ApiError("unexpected response", status=status, body=text)
        try:
            return json.loads(text)
        except ValueError as e:
            raise ApiError(f"body is not JSON: {e}", status=status, body=text) from e
    raise last_error
