"""The one HTTP client. Every remote call goes through :func:`post_json`,
so the retry policy and the mapping of HTTP outcomes to errors live here."""

from __future__ import annotations

import logging
import time

import requests

from .errors import ApiError, CredentialError, TransportError

logger = logging.getLogger(__name__)


def new_session(max_connections: int) -> requests.Session:
    """A session that keeps up to ``max_connections`` connections per host
    open for reuse; a smaller pool would discard some, with a warning."""
    session = requests.Session()
    adapter = requests.adapters.HTTPAdapter(pool_maxsize=max(max_connections, 1))
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


def post_json(session: requests.Session, url: str, body: dict, *,
              headers: dict | None = None, timeout: float,
              max_attempts: int, backoff_base: float) -> dict:
    """POST ``body`` as JSON and return the decoded JSON response.

    Connection errors and 5xx responses are tried up to ``max_attempts``
    times in all (at least once), sleeping ``backoff_base * 2**(k-1)``
    before retry ``k``; then the last one raises, a 5xx as ApiError. 401
    and 403 raise CredentialError; any other non-200 status, or a body
    that is not JSON, raises ApiError at once.
    """
    last_error: TransportError | None = None
    for attempt in range(max(max_attempts, 1)):
        if attempt:
            time.sleep(backoff_base * (2 ** (attempt - 1)))
        try:
            response = session.post(url, json=body, headers=headers, timeout=timeout)
        except requests.RequestException as e:
            logger.debug("POST %s attempt %d failed: %s", url, attempt + 1, e)
            last_error = TransportError(f"endpoint unreachable after {attempt + 1} "
                                        f"attempt(s): {e}")
            continue
        status = response.status_code
        if status in (401, 403):
            raise CredentialError(f"API rejected credentials (status {status})")
        if 500 <= status < 600:
            last_error = ApiError("server error", status=status, body=response.text)
            continue
        if status != 200:
            raise ApiError("unexpected response", status=status, body=response.text)
        try:
            return response.json()
        except ValueError as e:
            raise ApiError(f"body is not JSON: {e}", status=status, body=response.text) from e
    raise last_error
