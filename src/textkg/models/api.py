"""Remote text-completion backend.

Wire protocol: HTTP POST of JSON ``{prompt, max_tokens, temperature,
stop, n}`` to the configured endpoint; the response carries a JSON list
of ``{text}`` choices (completion-API shape). Credentials come from the
``KOGITO_API_KEY`` environment variable (endpoint base from
``KOGITO_API_URL``) unless set explicitly.

Requests go through :func:`textkg.transport.post_json` on the endpoint's
one session, which retries connection errors and 5xx responses with
exponential backoff up to a bounded attempt budget. Per-tuple API
failures leave that tuple's tails empty and are reported as diagnostics
instead of aborting the batch; connection-level failures raise, carrying
the partial results. A rejected credential raises, and once one is seen
no further request starts.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from ..core.knowledge import KnowledgeGraph, KnowledgeTuple
from ..core.relations import RelationRegistry, build_few_shot_prompt, default_registry
from ..errors import ApiError, CredentialError, TransportError, ValidationError
from ..transport import new_session, post_json
from .base import DecodeConfig, GenerationFailure, KnowledgeModel

API_KEY_ENV = "KOGITO_API_KEY"
API_URL_ENV = "KOGITO_API_URL"


@dataclass
class CompletionRequest:
    prompt: str
    max_tokens: int = 24
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ("\n",)
    n_samples: int = 1

    def __post_init__(self):
        if not self.prompt:
            raise ValidationError("prompt must be non-empty")
        if self.max_tokens < 1:
            raise ValidationError("max_tokens must be >= 1")
        if self.n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if self.temperature < 0:
            raise ValidationError("temperature must be non-negative")


@dataclass
class CompletionEndpoint:
    """Connection settings for the completion API."""

    url: str | None = None
    api_key: str | None = None
    timeout: float = 30.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    max_in_flight: int = 4
    _session: Any = field(default=None, init=False, repr=False, compare=False)

    def session(self):
        """The endpoint's one HTTP session, made on first use and reused,
        with its open connections, by every later request."""
        if self._session is None:
            self._session = new_session(self.max_in_flight)
        return self._session

    def resolved_url(self) -> str:
        url = self.url or os.environ.get(API_URL_ENV)
        if not url:
            raise CredentialError(f"no API endpoint configured (set {API_URL_ENV})")
        return url

    def resolved_key(self) -> str:
        key = self.api_key or os.environ.get(API_KEY_ENV)
        if not key:
            raise CredentialError(f"missing API key (set {API_KEY_ENV})")
        return key


def _truncate(text: str, stop_sequences: tuple[str, ...]) -> str:
    for stop in stop_sequences:
        cut = text.find(stop)
        if cut != -1:
            text = text[:cut]
    return text


def complete_via_api(endpoint: CompletionEndpoint, req: CompletionRequest) -> list[str]:
    """POST the request and return ``n_samples`` completions, each
    truncated at the first stop sequence.

    The credential is checked before any network call. Retries and the
    mapping of failures to errors are those of :func:`post_json`.
    """
    url = endpoint.resolved_url()
    key = endpoint.resolved_key()
    body = {
        "prompt": req.prompt,
        "max_tokens": req.max_tokens,
        "temperature": req.temperature,
        "stop": list(req.stop_sequences),
        "n": req.n_samples,
    }
    payload = post_json(endpoint.session(), url, body,
                        headers={"Authorization": f"Bearer {key}"},
                        timeout=endpoint.timeout, max_attempts=endpoint.max_attempts,
                        backoff_base=endpoint.backoff_base)
    try:
        texts = [c["text"] for c in payload["choices"]]
    except (KeyError, TypeError) as e:
        raise ApiError(f"malformed response body: {e!r}", status=200,
                       body=str(payload)) from e
    return [_truncate(t, req.stop_sequences) for t in texts]


class CompletionAPIModel(KnowledgeModel):
    """Knowledge model backed by the remote completion endpoint.

    Prompts use each relation's verbalizer: zero-shot by default, or
    few-shot when a sample graph is supplied (samples are grouped by
    relation; relations with no samples fall back to zero-shot).
    """

    def __init__(self, endpoint: CompletionEndpoint | None = None,
                 registry: RelationRegistry | None = None,
                 samples: KnowledgeGraph | None = None):
        self.endpoint = endpoint or CompletionEndpoint()
        self.registry = registry or default_registry()
        self._samples_by_relation: dict[str, KnowledgeGraph] = {}
        if samples is not None:
            for t in samples:
                self._samples_by_relation.setdefault(t.relation, KnowledgeGraph()).append(t)

    def prompt_for(self, tup: KnowledgeTuple) -> str:
        samples = self._samples_by_relation.get(tup.relation)
        if samples is not None and len(samples):
            rel = self.registry[tup.relation]
            return build_few_shot_prompt(rel, samples, tup.head)
        return self.registry.verbalize_name(tup.relation, tup.head.text)

    def generate_with_diagnostics(
            self, partial: KnowledgeGraph,
            decode: DecodeConfig | None = None) -> tuple[KnowledgeGraph, list[GenerationFailure]]:
        decode = decode or DecodeConfig()
        # fail before any network call when unconfigured
        self.endpoint.resolved_url()
        self.endpoint.resolved_key()
        self.endpoint.session()  # made here, not raced for by the workers
        tuples = list(partial)
        rejected = threading.Event()  # once set, no further request starts

        def fetch(tup: KnowledgeTuple) -> list[str] | Exception:
            if rejected.is_set():
                return []
            req = CompletionRequest(
                prompt=self.prompt_for(tup),
                max_tokens=decode.max_tokens,
                temperature=decode.temperature,
                stop_sequences=tuple(decode.stop),
                n_samples=decode.n_samples,
            )
            try:
                completions = complete_via_api(self.endpoint, req)
            except Exception as e:  # returned per tuple, classified below
                if isinstance(e, CredentialError):
                    rejected.set()
                return e
            tails = []
            for text in completions:
                tail = text.strip()
                if tail and tail not in tails:
                    tails.append(tail)
            return tails

        with ThreadPoolExecutor(max_workers=max(1, self.endpoint.max_in_flight)) as pool:
            results = list(pool.map(fetch, tuples))

        failures: list[GenerationFailure] = []
        out = KnowledgeGraph()
        transport: TransportError | None = None
        for i, (tup, res) in enumerate(zip(tuples, results)):
            if isinstance(res, Exception):
                if isinstance(res, CredentialError):
                    raise res
                if isinstance(res, TransportError) and not isinstance(res, ApiError):
                    transport = res
                failures.append(GenerationFailure(i, tup.head.text, tup.relation, str(res)))
                out.append(tup.with_tails([]))
            else:
                out.append(tup.with_tails(res))
        if transport is not None:
            raise TransportError(str(transport), partial=out)
        return out, failures
