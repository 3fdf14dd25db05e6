"""Contextual relevance scoring and graph filtering.

The built-in scorer verbalizes each fact through its relation and
compares mean-pooled word embeddings of the context and the fact by
cosine, mapped to [0, 1] via (cos + 1) / 2. It pools the context once
per call and all facts together. A pluggable external scorer posts
``{context, head, relation, tail}`` to a classifier endpoint that
answers ``{"relevance": p}``, one request per tuple, through
:func:`textkg.transport.post_json` with no retry. It sends the first
tuple alone, then up to ``max_in_flight`` requests at once, and returns
the results in tuple order.

:func:`filter_graph` makes one ``score_all(context, tuples)`` call per
graph; a custom scorer implements that method (see
:class:`RelevanceScorer`). It returns one entry per tuple, in order:
``(score, flagged)``, or the :class:`TransportError` or
:class:`ValidationError` that scoring that tuple raised. A
:class:`CredentialError` (a rejected credential) or any other exception
ends the call and propagates. Filtering is fail-open by default: a tuple
whose entry is an error is kept and flagged rather than dropped.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..core.knowledge import KnowledgeGraph, KnowledgeTuple
from ..core.relations import RelationRegistry, default_registry
from ..errors import (ApiError, CredentialError, TransportError, UsageError,
                      ValidationError)
from ..matching.embeddings import EmbeddingTable
from ..transport import new_session, post_json

logger = logging.getLogger(__name__)

UNINFORMATIVE_SCORE = 0.5


@dataclass
class RelevanceJudgment:
    tuple: KnowledgeTuple
    score: float | None
    keep: bool
    flagged: bool = False
    note: str = ""


ScoreResult = tuple[float, bool] | TransportError | ValidationError


class RelevanceScorer(Protocol):
    def score_all(self, context: str,
                  tuples: Sequence[KnowledgeTuple]) -> list[ScoreResult]:
        """Return, per tuple and in order, (score in [0, 1], flagged) or
        the TransportError or ValidationError raised for that tuple; raise
        a CredentialError."""
        ...


def _check_inputs(context: str, k: KnowledgeTuple) -> None:
    if not context.strip():
        raise ValidationError("context must be non-empty")
    if not k.tails:
        raise ValidationError("tuple has no tails to judge")


def _unwrap(result: ScoreResult) -> tuple[float, bool]:
    if isinstance(result, Exception):
        raise result
    return result


class EmbeddingCosineScorer:
    """Cosine of pooled embeddings between context and verbalized fact."""

    def __init__(self, table: EmbeddingTable, registry: RelationRegistry | None = None):
        self.table = table
        self.registry = registry or default_registry()

    def score(self, context: str, k: KnowledgeTuple) -> tuple[float, bool]:
        return _unwrap(self.score_all(context, [k])[0])

    def score_all(self, context: str,
                  tuples: Sequence[KnowledgeTuple]) -> list[ScoreResult]:
        results: list = [None] * len(tuples)
        facts, slots = [], []
        for i, k in enumerate(tuples):
            try:
                _check_inputs(context, k)
                facts.append(self.registry.verbalize_name(k.relation, k.head.text,
                                                          tail=k.tails[0]))
            except (TransportError, ValidationError) as e:
                results[i] = e
            else:
                slots.append(i)
        a, *pooled = self.table.pool_many([context, *facts])
        na = float((a @ a) ** 0.5)
        # one dot product per fact: a matrix product rounds differently
        for i, b in zip(slots, pooled):
            nb = float((b @ b) ** 0.5)
            if na == 0.0 or nb == 0.0:
                results[i] = (UNINFORMATIVE_SCORE, True)  # no token in vocabulary
            else:
                cos = float(a @ b) / (na * nb)
                results[i] = (min(1.0, max(0.0, (cos + 1.0) / 2.0)), False)
        return results


class ExternalScorer:
    """Delegates scoring to a fact-linking classifier endpoint, with no
    retry, on one session made on the first request.

    ``score_all`` sends the first tuple alone, so that a rejected
    credential costs one request, then the rest with up to
    ``max_in_flight`` in flight; results keep the tuple order. After a
    CredentialError no new request starts, and it is raised once the
    requests in flight have ended.
    """

    def __init__(self, url: str, timeout: float = 30.0, max_in_flight: int = 4):
        self.url = url
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self.session = None  # made on first use

    def __enter__(self) -> "ExternalScorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        if self.session is not None:
            self.session.close()

    def score(self, context: str, k: KnowledgeTuple) -> tuple[float, bool]:
        _check_inputs(context, k)
        body = {
            "context": context,
            "head": k.head.text,
            "relation": k.relation,
            "tail": k.tails[0],
        }
        if self.session is None:
            self.session = new_session(self.max_in_flight)
        payload = post_json(self.session, self.url, body, timeout=self.timeout,
                            max_attempts=1, backoff_base=0.0)
        try:
            value = float(payload["relevance"])
        except (ValueError, KeyError, TypeError) as e:
            raise ApiError(f"malformed relevance response: {e!r}", status=200,
                           body=str(payload)) from e
        return min(1.0, max(0.0, value)), False

    def score_all(self, context: str,
                  tuples: Sequence[KnowledgeTuple]) -> list[ScoreResult]:
        rejected: list[CredentialError] = []  # once filled, no further request starts

        def one(k: KnowledgeTuple) -> ScoreResult | None:
            if rejected:
                return None
            try:
                return self.score(context, k)  # looked up here: callers may wrap it
            except CredentialError as e:
                rejected.append(e)
            except (TransportError, ValidationError) as e:
                return e

        results = [one(k) for k in tuples[:1]]
        if len(tuples) > 1 and not rejected:
            if self.session is None:  # made here, not raced for by the workers
                self.session = new_session(self.max_in_flight)
            with ThreadPoolExecutor(max_workers=max(1, self.max_in_flight)) as pool:
                results += pool.map(one, tuples[1:])
        if rejected:
            raise rejected[0]
        return results


def relevance_score(context: str, k: KnowledgeTuple, scorer: RelevanceScorer) -> float:
    """Relevance of one tuple to its originating context, in [0, 1]."""
    score, _ = _unwrap(scorer.score_all(context, [k])[0])
    return score


def filter_graph(g: KnowledgeGraph, context: str, threshold: float,
                 scorer: RelevanceScorer,
                 fail_open: bool = True) -> tuple[KnowledgeGraph, list[RelevanceJudgment]]:
    """Keep tuples scoring at or above ``threshold``, preserving order.

    Judgments cover every input tuple. Scorer failures keep the tuple
    flagged when ``fail_open`` (the default), or drop it otherwise.
    """
    if not 0.0 <= threshold <= 1.0:
        raise UsageError("threshold must be within [0, 1]")
    kept = KnowledgeGraph()
    judgments: list[RelevanceJudgment] = []
    for t, result in zip(g, scorer.score_all(context, g.tuples), strict=True):
        if isinstance(result, (TransportError, ValidationError)):
            logger.warning("scoring failed for (%s, %s): %s", t.head.text, t.relation, result)
            judgments.append(RelevanceJudgment(t, None, keep=fail_open,
                                               flagged=True, note=str(result)))
            if fail_open:
                kept.append(t)
            continue
        score, flagged = result
        keep = score >= threshold
        judgments.append(RelevanceJudgment(t, score, keep=keep, flagged=flagged))
        if keep:
            kept.append(t)
    return kept, judgments
