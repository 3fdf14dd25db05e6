import math
import random
import time

import pytest

from textkg.core.knowledge import KnowledgeGraph, KnowledgeTuple
from textkg.core.relations import RelationRegistry
from textkg.errors import CredentialError, UsageError, ValidationError
from textkg.filtering.relevance import (
    EmbeddingCosineScorer,
    ExternalScorer,
    filter_graph,
    relevance_score,
)
from textkg.matching.embeddings import EmbeddingTable
from textkg.tokenization import word_tokens

from conftest import random_table


def brute_force_score(table_dict, context, fact_text):
    """Independent oracle: pooled cosine computed with plain Python."""
    def pool(text):
        vecs = [table_dict[t] for t in word_tokens(text) if t in table_dict]
        if not vecs:
            return None
        dim = len(vecs[0])
        return [sum(v[i] for v in vecs) / len(vecs) for i in range(dim)]

    a, b = pool(context), pool(fact_text)
    if a is None or b is None:
        return 0.5
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0 or nb == 0:
        return 0.5
    return max(0.0, min(1.0, (dot / (na * nb) + 1.0) / 2.0))


def test_identical_text_scores_one():
    table = EmbeddingTable.from_mapping({
        "h": [0.3, 0.7], "r": [1.0, -0.2], "t": [-0.4, 0.1]})
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    k = KnowledgeTuple("h", "r", ["t"])
    # default verbalization of (h, r, t) is the text "h r t"
    assert relevance_score("h r t", k, scorer) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_vocabularies_score_half():
    table = EmbeddingTable.from_mapping({
        "left": [1.0, 0.0], "right": [0.0, 1.0]})
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    k = KnowledgeTuple("right", "rel", ["right"])
    # context pools to e1, fact to e2: cosine 0 maps to 0.5
    assert relevance_score("left left", k, scorer) == pytest.approx(0.5, abs=1e-12)


def test_all_unknown_tokens_flagged_uninformative():
    table = EmbeddingTable.from_mapping({"known": [1.0]})
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    score, flagged = scorer.score("known", KnowledgeTuple("mystery", "rel", ["unseen"]))
    assert score == 0.5 and flagged


def test_scorer_requires_context_and_tails():
    table = EmbeddingTable.from_mapping({"x": [1.0]})
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    with pytest.raises(ValidationError):
        scorer.score("  ", KnowledgeTuple("x", "r", ["x"]))
    with pytest.raises(ValidationError):
        scorer.score("x", KnowledgeTuple("x", "r", []))


def fixture_graph():
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "rel"]
    table = random_table(words, dim=8, seed=13)
    graph = KnowledgeGraph([
        KnowledgeTuple("alpha beta", "rel", ["gamma"]),
        KnowledgeTuple("delta", "rel", ["epsilon zeta"]),
        KnowledgeTuple("alpha", "rel", ["alpha beta"]),
        KnowledgeTuple("zeta gamma", "rel", ["delta"]),
    ])
    return table, graph


def test_filter_matches_brute_force_oracle():
    table, graph = fixture_graph()
    registry = RelationRegistry()
    scorer = EmbeddingCosineScorer(table, registry)
    context = "alpha beta gamma"
    table_dict = {w: list(table.matrix[i]) for w, i in table.vocab.items()}
    expected_scores = [
        brute_force_score(table_dict, context,
                          f"{t.head.text} {t.relation} {t.tails[0]}")
        for t in graph
    ]
    threshold = 0.62
    kept, judgments = filter_graph(graph, context, threshold, scorer)
    assert [j.score for j in judgments] == pytest.approx(expected_scores, abs=1e-12)
    expected_kept = [t for t, s in zip(graph, expected_scores) if s >= threshold]
    assert kept.tuples == expected_kept
    assert 0 < len(kept) < len(graph)  # fixture exercises both outcomes


def test_threshold_zero_keeps_everything():
    table, graph = fixture_graph()
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    kept, judgments = filter_graph(graph, "alpha beta", 0.0, scorer)
    assert kept.tuples == graph.tuples
    assert all(j.keep for j in judgments)


def test_threshold_one_drops_non_identical_texts():
    table, graph = fixture_graph()
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    context = "alpha beta gamma"
    table_dict = {w: list(table.matrix[i]) for w, i in table.vocab.items()}
    # oracle confirms the max score is below 1 on this fixture
    assert max(brute_force_score(table_dict, context,
                                 f"{t.head.text} {t.relation} {t.tails[0]}")
               for t in graph) < 1.0
    kept, _ = filter_graph(graph, context, 1.0, scorer)
    assert len(kept) == 0


def test_threshold_monotonicity():
    table, graph = fixture_graph()
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    rnd = random.Random(5)
    for _ in range(20):
        t1 = rnd.random()
        t2 = min(1.0, t1 + rnd.random() * (1 - t1))
        kept1, _ = filter_graph(graph, "alpha beta gamma", t1, scorer)
        kept2, _ = filter_graph(graph, "alpha beta gamma", t2, scorer)
        assert set(kept2.tuples) <= set(kept1.tuples)


def test_judgments_cover_inputs_in_order():
    table, graph = fixture_graph()
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    kept, judgments = filter_graph(graph, "alpha", 0.5, scorer)
    assert len(judgments) == len(graph)
    assert [j.tuple for j in judgments] == graph.tuples
    assert [t for t in graph if t in set(kept.tuples)] == kept.tuples


def test_keep_flag_consistent_with_threshold():
    table, graph = fixture_graph()
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    _, judgments = filter_graph(graph, "alpha beta", 0.55, scorer)
    for j in judgments:
        assert j.keep == (j.score >= 0.55)
        assert 0.0 <= j.score <= 1.0


def test_threshold_validation():
    table, graph = fixture_graph()
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    with pytest.raises(UsageError):
        filter_graph(graph, "alpha", 1.5, scorer)


def test_tailless_tuple_fails_open_and_flags():
    table, _ = fixture_graph()
    scorer = EmbeddingCosineScorer(table, RelationRegistry())
    graph = KnowledgeGraph([KnowledgeTuple("alpha", "rel", [])])
    kept, judgments = filter_graph(graph, "alpha", 0.9, scorer)
    assert len(kept) == 1
    assert judgments[0].flagged and judgments[0].score is None
    kept_closed, _ = filter_graph(graph, "alpha", 0.9, scorer, fail_open=False)
    assert len(kept_closed) == 0


def test_external_scorer_round_trip(mock_server):
    mock_server.set_behavior(lambda state, body: (200, {"relevance": 0.73}))
    scorer = ExternalScorer(mock_server.url)
    k = KnowledgeTuple("h", "r", ["t"])
    assert relevance_score("some context", k, scorer) == pytest.approx(0.73)
    body = mock_server.requests[0]["body"]
    assert body == {"context": "some context", "head": "h", "relation": "r", "tail": "t"}


def test_external_scorer_failure_fails_open(mock_server):
    mock_server.set_behavior(lambda state, body: (500, {"error": "down"}))
    scorer = ExternalScorer(mock_server.url)
    graph = KnowledgeGraph([KnowledgeTuple("h", "r", ["t"])])
    kept, judgments = filter_graph(graph, "ctx", 0.5, scorer)
    assert len(kept) == 1 and judgments[0].flagged
    kept_closed, judgments_closed = filter_graph(graph, "ctx", 0.5, scorer, fail_open=False)
    assert len(kept_closed) == 0 and judgments_closed[0].flagged


def test_external_scorer_clamps_to_unit_interval(mock_server):
    mock_server.set_behavior(lambda state, body: (200, {"relevance": 1.7}))
    scorer = ExternalScorer(mock_server.url)
    assert relevance_score("c", KnowledgeTuple("h", "r", ["t"]), scorer) == 1.0


def test_external_scorer_failure_stays_in_its_slot(mock_server):
    mock_server.set_behavior(lambda state, body: (500, {"error": "down"}) if body["head"] == "b"
                             else (200, {"relevance": 0.8}))
    graph = KnowledgeGraph([KnowledgeTuple(h, "r", ["t"]) for h in "abc"])
    kept, judgments = filter_graph(graph, "ctx", 0.5,
                                   ExternalScorer(mock_server.url, max_in_flight=1),
                                   fail_open=False)
    assert [j.score for j in judgments] == [0.8, None, 0.8]
    assert judgments[1].flagged and "status 500" in judgments[1].note
    assert [t.head.text for t in kept] == ["a", "c"]
    assert [r["body"]["head"] for r in mock_server.requests] == ["a", "b", "c"]


def test_scorer_must_return_one_result_per_tuple():
    class ShortScorer:
        def score_all(self, context, tuples):
            return [(1.0, False)] * (len(tuples) - 1)

    _, graph = fixture_graph()
    with pytest.raises(ValueError):
        filter_graph(graph, "alpha", 0.5, ShortScorer())


def test_tuple_scoring_exactly_the_threshold_is_kept():
    class FixedScorer:
        def score_all(self, context, tuples):
            return [(0.5, False)] * len(tuples)

    _, graph = fixture_graph()
    kept, judgments = filter_graph(graph, "alpha", 0.5, FixedScorer())
    assert kept.tuples == graph.tuples
    assert all(j.keep for j in judgments)


def test_concurrent_scoring_keeps_tuple_order(mock_server):
    def early_ones_slowest(state, body):
        i = int(body["head"][1:])
        time.sleep(0.02 * max(0, 5 - i))
        state.setdefault("answered", []).append(i)
        return 200, {"relevance": i / 10}

    mock_server.set_behavior(early_ones_slowest)
    graph = KnowledgeGraph([KnowledgeTuple(f"h{i}", "r", ["t"]) for i in range(8)])
    _, judgments = filter_graph(graph, "ctx", 0.0,
                                ExternalScorer(mock_server.url, max_in_flight=4))
    assert [j.score for j in judgments] == [i / 10 for i in range(8)]
    assert mock_server.httpd.state["answered"] != list(range(8))  # answered out of order


def test_rejected_credential_stops_concurrent_scoring(mock_server):
    mock_server.set_behavior(lambda state, body: (401, {"error": "bad key"})
                             if len(state["requests"]) > 3 else (200, {"relevance": 0.8}))
    graph = KnowledgeGraph([KnowledgeTuple(f"h{i}", "r", ["t"]) for i in range(20)])
    with pytest.raises(CredentialError):
        filter_graph(graph, "ctx", 0.5, ExternalScorer(mock_server.url, max_in_flight=4))
    # the first 401 reaches the client while at most 4 requests are in flight
    assert len(mock_server.requests) <= 3 + 4


@pytest.mark.parametrize("status", [401, 403])
def test_rejected_relevance_credential_stops_the_filter(mock_server, status):
    mock_server.set_behavior(lambda state, body: (status, {"error": "bad key"}))
    graph = KnowledgeGraph([KnowledgeTuple(f"h{i}", "r", ["t"]) for i in range(20)])
    with pytest.raises(CredentialError):
        filter_graph(graph, "ctx", 0.5, ExternalScorer(mock_server.url))
    assert len(mock_server.requests) == 1
