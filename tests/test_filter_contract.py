"""The embedding filter's contract: batched scoring judges every tuple
exactly as scoring one tuple at a time did.

``reference_pool``, ``reference_score`` and ``reference_filter`` are
verbatim copies of the one-tuple-at-a-time pooling, cosine scorer and
filter loop, kept here as the oracle. Scores are compared with exact
``==`` and pooled vectors byte for byte, because ``textkg filter
--judgments`` prints them and a keep decision can sit on the threshold.
"""

from __future__ import annotations

import logging
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from textkg.core.knowledge import KnowledgeGraph, KnowledgeTuple
from textkg.core.relations import KnowledgeRelation, RelationRegistry
from textkg.errors import TransportError, ValidationError
from textkg.filtering.relevance import (
    UNINFORMATIVE_SCORE,
    EmbeddingCosineScorer,
    RelevanceJudgment,
    filter_graph,
)
from textkg.matching.embeddings import EmbeddingTable
from textkg.tokenization import word_tokens

from conftest import random_table

LOGGER = "textkg.filtering.relevance"


def reference_pool(table: EmbeddingTable, text: str) -> np.ndarray:
    rows = [table.vocab[t] for t in word_tokens(text) if t in table.vocab]
    if not rows:
        return np.zeros(table.dim, dtype=np.float64)
    return table.matrix[rows].mean(axis=0)


def reference_score(table, registry, context, k):
    if not context.strip():
        raise ValidationError("context must be non-empty")
    if not k.tails:
        raise ValidationError("tuple has no tails to judge")
    fact_text = registry.verbalize_name(k.relation, k.head.text, tail=k.tails[0])
    a = reference_pool(table, context)
    b = reference_pool(table, fact_text)
    na = float((a @ a) ** 0.5)
    nb = float((b @ b) ** 0.5)
    if na == 0.0 or nb == 0.0:
        return UNINFORMATIVE_SCORE, True  # no token in vocabulary
    cos = float(a @ b) / (na * nb)
    return min(1.0, max(0.0, (cos + 1.0) / 2.0)), False


def reference_filter(g, context, threshold, table, registry, fail_open):
    """Judgments and warning lines of the one-call-per-tuple filter loop."""
    kept = KnowledgeGraph()
    judgments, warnings = [], []
    for t in g:
        try:
            score, flagged = reference_score(table, registry, context, t)
        except (TransportError, ValidationError) as e:
            warnings.append(f"scoring failed for ({t.head.text}, {t.relation}): {e}")
            judgments.append(RelevanceJudgment(t, None, keep=fail_open,
                                               flagged=True, note=str(e)))
            if fail_open:
                kept.append(t)
            continue
        keep = score >= threshold
        judgments.append(RelevanceJudgment(t, score, keep=keep, flagged=flagged))
        if keep:
            kept.append(t)
    return kept, judgments, warnings


def _as_rows(judgments):
    return [(j.tuple, j.score, j.keep, j.flagged, j.note) for j in judgments]


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "rel", "near", "of"]


def _registry() -> RelationRegistry:
    registry = RelationRegistry()
    registry.register(KnowledgeRelation("rel"))
    registry.register(KnowledgeRelation("templated", template="{head} is near {tail}"))
    registry.register(KnowledgeRelation(
        "spoken", verbalizer=lambda head, tail=None: f"of {head} of {tail} of"))
    return registry


T = KnowledgeTuple
CASES = {
    "plain": ("alpha beta gamma", [T("alpha beta", "rel", ["gamma"]),
                                   T("delta", "rel", ["epsilon zeta"]),
                                   T("zeta gamma", "rel", ["delta"])]),
    "empty context": ("", [T("alpha", "rel", ["beta"])]),
    "whitespace-only context": (" \t\n ", [T("alpha", "rel", ["beta"]),
                                           T("gamma", "rel", ["delta"])]),
    "tailless tuple in the middle": ("alpha gamma", [T("alpha", "rel", ["beta"]),
                                                     T("gamma", "rel", []),
                                                     T("delta", "rel", ["zeta"])]),
    "all-OOV context": ("unknown words only", [T("alpha", "rel", ["beta"])]),
    "all-OOV fact": ("alpha beta", [T("mystery", "unregistered", ["unseen"]),
                                    T("alpha", "rel", ["beta"])]),
    "repeated tokens in a fact": ("alpha beta", [T("alpha alpha alpha", "rel",
                                                   ["beta alpha beta beta"])]),
    "empty graph": ("alpha", []),
    "single tuple": ("delta epsilon", [T("zeta", "rel", ["delta"])]),
    "duplicate tuples": ("alpha beta", [T("gamma", "rel", ["delta"]),
                                        T("gamma", "rel", ["delta"]),
                                        T("gamma", "rel", ["delta"])]),
    "custom template relation": ("alpha near beta", [T("alpha", "templated", ["beta"]),
                                                     T("zeta", "templated", ["gamma"])]),
    "custom verbalizer relation": ("of alpha", [T("alpha", "spoken", ["beta"]),
                                                T("delta", "spoken", ["zeta"])]),
}


@pytest.mark.parametrize("fail_open", [True, False])
@pytest.mark.parametrize("case", CASES)
def test_filter_judgments_match_one_tuple_at_a_time(case, fail_open, caplog):
    context, tuples = CASES[case]
    table = random_table(WORDS, dim=8, seed=13)
    registry = _registry()
    graph = KnowledgeGraph(tuples)
    threshold = 0.55
    want_kept, want, want_warnings = reference_filter(graph, context, threshold, table,
                                                      registry, fail_open)
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        kept, got = filter_graph(graph, context, threshold,
                                 EmbeddingCosineScorer(table, registry), fail_open=fail_open)
    assert _as_rows(got) == _as_rows(want)
    assert kept.tuples == want_kept.tuples
    assert [r.getMessage() for r in caplog.records if r.name == LOGGER] == want_warnings


# -------------------------------------------------------------- properties

IN_VOCAB = st.text(string.ascii_lowercase[:13], min_size=1, max_size=5)
OUT_OF_VOCAB = st.text(string.ascii_lowercase[13:] + string.digits, min_size=1, max_size=5)
SEPARATORS = st.sampled_from([" ", "  ", ", ", "-", "\n"])
VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw) -> EmbeddingTable:
    words = draw(st.lists(IN_VOCAB, min_size=1, max_size=20, unique=True))
    dim = draw(st.integers(1, 6) | st.just(100))
    matrix = draw(arrays(np.float64, (len(words), dim), elements=VALUES))
    return EmbeddingTable({w: i for i, w in enumerate(words)}, matrix)


@st.composite
def texts(draw, table: EmbeddingTable) -> str:
    token = st.sampled_from(sorted(table.vocab)) | OUT_OF_VOCAB
    tokens = draw(st.lists(token, max_size=6) | st.lists(token, min_size=30, max_size=150))
    sep = draw(SEPARATORS)
    return sep.join(tokens)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pool_many_rows_equal_pooling_each_text(data):
    table = data.draw(tables())
    batch = data.draw(st.lists(texts(table), max_size=12))
    batch += ["", "zzz qq 9"]  # no token at all, no token in vocabulary
    pooled = table.pool_many(batch)
    assert pooled.shape == (len(batch), table.dim)
    for row, text in zip(pooled, batch):
        want = reference_pool(table, text)
        assert np.array_equal(row, want)
        assert row.tobytes() == want.tobytes()  # also the sign of zero


def _outcome(fn):
    try:
        return fn()
    except (TransportError, ValidationError) as e:
        return type(e), str(e)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_score_all_equals_scoring_each_tuple(data):
    table = data.draw(tables())
    registry = _registry()
    fact = st.builds(KnowledgeTuple, texts(table).filter(str.strip),
                     st.sampled_from(["rel", "templated", "spoken", "unregistered"]),
                     st.lists(texts(table), max_size=2))
    tuples = data.draw(st.lists(fact, max_size=10))
    context = data.draw(texts(table))
    scorer = EmbeddingCosineScorer(table, registry)
    got = [r if isinstance(r, tuple) else (type(r), str(r))
           for r in scorer.score_all(context, tuples)]
    assert got == [_outcome(lambda: scorer.score(context, k)) for k in tuples]
    assert got == [_outcome(lambda: reference_score(table, registry, context, k))
                   for k in tuples]
