"""The one HTTP transport: connection reuse and status mapping, seen
through the completion backend and the external scorer."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from textkg import pipeline as pl
from textkg import transport
from textkg.cli import main
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


@pytest.mark.parametrize("max_in_flight", [8, 16])  # workers contend for one idle queue
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
    scorer = ExternalScorer(keepalive_server.url, max_in_flight=1)
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


def test_unreachable_https_endpoint_error_counts_the_attempts():
    with pytest.raises(TransportError) as err:
        transport.post_json(transport.new_session(1), "https://127.0.0.1:9/complete", {},
                            timeout=0.3, max_attempts=2, backoff_base=0.0)
    assert str(err.value).startswith("endpoint unreachable after 2 attempt(s): ")


def test_dropped_keepalive_connection_is_reopened_without_an_attempt(dropping_server):
    dropping_server.set_behavior(lambda state, body: (200, {"ok": body["n"]}))
    session = transport.new_session(1)
    for n in range(2):
        assert transport.post_json(session, dropping_server.url, {"n": n}, timeout=5.0,
                                   max_attempts=1, backoff_base=0.0) == {"ok": n}
    assert len(dropping_server.requests) == 2
    assert len(dropping_server.client_ports) == 2


def idle_connections(session) -> int:
    return sum(pool.qsize() for pool in session.idle.values())


def test_closed_scorer_holds_no_idle_connection_and_reconnects(keepalive_server):
    keepalive_server.set_behavior(lambda state, body: (200, {"relevance": 0.9}))
    graph = KnowledgeGraph([KnowledgeTuple(h, "r", ["t"]) for h in "abc"])
    with ExternalScorer(keepalive_server.url, max_in_flight=1) as scorer:
        filter_graph(graph, "ctx", 0.5, scorer)
        assert idle_connections(scorer.session) == 1
    assert idle_connections(scorer.session) == 0
    kept, _ = filter_graph(graph, "ctx", 0.5, scorer)
    assert len(kept) == 3
    assert len(keepalive_server.client_ports) == 2


def test_closed_endpoint_holds_no_idle_connection_and_reconnects(keepalive_server):
    with CompletionEndpoint(url=keepalive_server.url, api_key="k") as endpoint:
        assert complete_via_api(endpoint, CompletionRequest(prompt="p")) == ["echo:p"]
        assert idle_connections(endpoint.session()) == 1
    assert idle_connections(endpoint.session()) == 0
    assert complete_via_api(endpoint, CompletionRequest(prompt="q")) == ["echo:q"]
    assert len(keepalive_server.client_ports) == 2


def test_infer_closes_only_the_components_it_resolved(keepalive_server, monkeypatch):
    keepalive_server.set_behavior(
        lambda state, body: (200, {"choices": [{"text": "t"}], "relevance": 0.9}))
    monkeypatch.setenv("KOGITO_API_URL", keepalive_server.url)
    monkeypatch.setenv("KOGITO_API_KEY", "k")
    resolved = []

    def keeping(resolve):
        def wrapper(*args):
            resolved.append(resolve(*args))
            return resolved[-1]
        return wrapper

    monkeypatch.setattr(pl, "resolve_model", keeping(pl.resolve_model))
    monkeypatch.setattr(pl, "resolve_scorer", keeping(pl.resolve_scorer))
    config = pl.PipelineConfig(backend="api", relations=["xNeed"], filter="external",
                               external_url=keepalive_server.url)
    assert pl.infer("PersonX eats.", config)
    model, scorer = resolved
    assert idle_connections(model.endpoint.session()) == 0
    assert idle_connections(scorer.session) == 0

    passed_model = CompletionAPIModel(CompletionEndpoint(url=keepalive_server.url, api_key="k"))
    passed_scorer = ExternalScorer(keepalive_server.url)
    assert pl.infer("PersonX eats.", config, model=passed_model, scorer=passed_scorer)
    assert len(resolved) == 2
    assert idle_connections(passed_model.endpoint.session()) >= 1
    assert idle_connections(passed_scorer.session) >= 1


def test_filter_command_closes_its_scorer(tmp_path, keepalive_server, monkeypatch):
    keepalive_server.set_behavior(lambda state, body: (200, {"relevance": 0.9}))
    closed = []
    monkeypatch.setattr(transport.Session, "close", lambda self: closed.append(self))
    graph = tmp_path / "g.jsonl"
    KnowledgeGraph([KnowledgeTuple("h", "xNeed", ["t"])]).to_jsonl(graph)
    assert main(["filter", "--graph", str(graph), "--context", "ctx", "--scorer", "external",
                 "--external-url", keepalive_server.url, "--out", str(tmp_path / "o")]) == 0
    assert len(closed) == 1


def test_the_package_imports_no_third_party_http_client():
    code = "import sys, textkg.cli; print('requests' in sys.modules)"
    src = str(Path(transport.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "False\n"
