"""The one HTTP transport: connection reuse and status mapping, seen
through the completion backend and the external scorer."""

import sys
import time

import pytest

from textkg import transport
from textkg.core.knowledge import KnowledgeGraph, KnowledgeTuple
from textkg.errors import ApiError, TransportError
from textkg.filtering.relevance import ExternalScorer, filter_graph
from textkg.models.api import (
    CompletionAPIModel,
    CompletionEndpoint,
    CompletionRequest,
    complete_via_api,
)


def test_model_reuses_one_connection_per_worker(keepalive_server):
    model = CompletionAPIModel(CompletionEndpoint(url=keepalive_server.url, api_key="k",
                                                  max_in_flight=2))
    graph = KnowledgeGraph([KnowledgeTuple(f"head {i}", "xNeed") for i in range(8)])
    out = model.generate(graph)
    assert all(t.tails for t in out)
    assert len(keepalive_server.requests) == 8
    assert len(keepalive_server.client_ports) <= 2
    model.generate(graph)  # the session outlives the call
    assert len(keepalive_server.requests) == 16
    assert len(keepalive_server.client_ports) <= 2


@pytest.mark.parametrize("max_in_flight", [8, 16])  # 16 is past requests' default pool
def test_shared_session_keeps_each_answer_with_its_tuple(keepalive_server, max_in_flight):
    def slow_echo(state, body):
        time.sleep(0.01)  # keeps every worker's request in flight at once
        return 200, {"choices": [{"text": f"ans:{body['prompt']}"}]}

    keepalive_server.set_behavior(slow_echo)
    model = CompletionAPIModel(CompletionEndpoint(url=keepalive_server.url, api_key="k",
                                                  max_in_flight=max_in_flight, timeout=5.0))
    graph = KnowledgeGraph([KnowledgeTuple(f"head {i}", "xNeed") for i in range(64)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more thread switches inside the shared session
    try:
        outs = [model.generate(graph) for _ in range(2)]
    finally:
        sys.setswitchinterval(interval)
    for out in outs:
        assert [t.tails for t in out] == [[f"ans:head {i} xNeed"] for i in range(64)]
    assert len(keepalive_server.client_ports) <= max_in_flight


def test_scorer_reuses_one_connection_across_calls(keepalive_server):
    keepalive_server.set_behavior(lambda state, body: (200, {"relevance": 0.9}))
    scorer = ExternalScorer(keepalive_server.url)
    assert scorer.session is None  # nothing is opened before the first request
    graph = KnowledgeGraph([KnowledgeTuple(h, "r", ["t"]) for h in "abc"])
    for _ in range(2):
        kept, _ = filter_graph(graph, "ctx", 0.5, scorer)
        assert len(kept) == 3
    assert len(keepalive_server.requests) == 6
    assert len(keepalive_server.client_ports) == 1


def test_rate_limited_completion_is_not_retried(mock_server):
    mock_server.set_behavior(lambda state, body: (429, {"error": "slow down"}))
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="k", backoff_base=0.0)
    with pytest.raises(ApiError) as err:
        complete_via_api(endpoint, CompletionRequest(prompt="p"))
    assert err.value.status == 429
    assert len(mock_server.requests) == 1


@pytest.mark.parametrize("payload", [b"<html>busy</html>", {"choices": 5}])
def test_malformed_completion_body_is_api_error(mock_server, payload):
    mock_server.set_behavior(lambda state, body: (200, payload))
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="k", backoff_base=0.0)
    with pytest.raises(ApiError) as err:
        complete_via_api(endpoint, CompletionRequest(prompt="p"))
    assert err.value.status == 200
    assert len(mock_server.requests) == 1


@pytest.mark.parametrize("payload", [b"not json", {"score": 0.5}])
def test_malformed_relevance_body_flags_the_tuple(mock_server, payload):
    mock_server.set_behavior(lambda state, body: (200, payload))
    graph = KnowledgeGraph([KnowledgeTuple("h", "r", ["t"])])
    kept, judgments = filter_graph(graph, "ctx", 0.5, ExternalScorer(mock_server.url))
    assert len(kept) == 1
    assert judgments[0].flagged and "status 200" in judgments[0].note


def test_retries_sleep_twice_as_long_each_time(mock_server, monkeypatch):
    mock_server.set_behavior(lambda state, body: (503, {"error": "busy"}))
    sleeps = []
    monkeypatch.setattr(transport.time, "sleep", sleeps.append)
    with pytest.raises(ApiError):
        transport.post_json(transport.new_session(1), mock_server.url, {}, timeout=5.0,
                            max_attempts=4, backoff_base=0.25)
    assert sleeps == [0.25, 0.5, 1.0]
    assert len(mock_server.requests) == 4


def test_unreachable_endpoint_error_counts_the_attempts():
    with pytest.raises(TransportError) as err:
        transport.post_json(transport.new_session(1), "http://127.0.0.1:9/complete", {},
                            timeout=0.3, max_attempts=3, backoff_base=0.0)
    assert str(err.value).startswith("endpoint unreachable after 3 attempt(s): ")
