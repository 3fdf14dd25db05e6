import pytest

from textkg.core.knowledge import KnowledgeGraph, KnowledgeTuple
from textkg.core.relations import KnowledgeRelation, default_registry
from textkg.errors import ApiError, CredentialError, TransportError, ValidationError
from textkg.models.api import (
    API_KEY_ENV,
    API_URL_ENV,
    CompletionAPIModel,
    CompletionEndpoint,
    CompletionRequest,
    complete_via_api,
)
from textkg.models.base import DecodeConfig, KnowledgeModel
from textkg.models.stub import StubModel


def partial_graph():
    return KnowledgeGraph([
        KnowledgeTuple("X goes running", "xNeed"),
        KnowledgeTuple("hammer", "AtLocation"),
    ])


# ------------------------------------------------------------------ stub

def test_stub_template_exact():
    out = StubModel().generate(partial_graph())
    assert out[0].tails == ["to <stub:xNeed:X goes running>"]
    assert out[1].tails == ["to <stub:AtLocation:hammer>"]


def test_stub_preserves_pairs_and_order():
    graph = partial_graph()
    out = StubModel().generate(graph)
    assert [(t.head.text, t.relation) for t in out] == \
           [(t.head.text, t.relation) for t in graph]
    assert len(out) == len(graph)


def test_stub_generate_is_idempotent():
    model = StubModel()
    once = model.generate(partial_graph())
    twice = model.generate(once)
    assert twice == once
    assert [t.tails for t in twice] == [t.tails for t in once]


# -------------------------------------------------------------- requests

def test_completion_request_validation():
    with pytest.raises(ValidationError):
        CompletionRequest(prompt="")
    with pytest.raises(ValidationError):
        CompletionRequest(prompt="p", max_tokens=0)
    with pytest.raises(ValidationError):
        CompletionRequest(prompt="p", n_samples=0)
    with pytest.raises(ValidationError):
        CompletionRequest(prompt="p", temperature=-0.1)


def test_missing_key_fails_before_any_network_call(mock_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    endpoint = CompletionEndpoint(url=mock_server.url)
    with pytest.raises(CredentialError):
        complete_via_api(endpoint, CompletionRequest(prompt="hello"))
    assert mock_server.requests == []


def test_env_configuration(mock_server, monkeypatch):
    monkeypatch.setenv(API_URL_ENV, mock_server.url)
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    out = complete_via_api(CompletionEndpoint(), CompletionRequest(prompt="ping"))
    assert out == ["echo:ping"]
    assert mock_server.requests[0]["authorization"] == "Bearer sk-test"


def test_echo_and_wire_format(mock_server):
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="k")
    out = complete_via_api(endpoint, CompletionRequest(
        prompt="zap", max_tokens=11, temperature=0.5, stop_sequences=("###",), n_samples=2))
    assert out == ["echo:zap", "echo:zap"]
    body = mock_server.requests[0]["body"]
    assert body == {"prompt": "zap", "max_tokens": 11, "temperature": 0.5,
                    "stop": ["###"], "n": 2}


def test_stop_sequence_truncation(mock_server):
    mock_server.set_behavior(lambda state, body: (200, {"choices": [{"text": "a\nb"}]}))
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="k")
    out = complete_via_api(endpoint, CompletionRequest(prompt="p", stop_sequences=("\n",)))
    assert out == ["a"]


def test_retries_on_server_error_then_success(mock_server):
    def flaky(state, body):
        if len(state["requests"]) < 3:
            return 503, {"error": "busy"}
        return 200, {"choices": [{"text": "ok"}]}
    mock_server.set_behavior(flaky)
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="k",
                                  max_attempts=3, backoff_base=0.0)
    assert complete_via_api(endpoint, CompletionRequest(prompt="p")) == ["ok"]
    assert len(mock_server.requests) == 3


def test_retry_budget_is_bounded(mock_server):
    mock_server.set_behavior(lambda state, body: (500, {"error": "down"}))
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="k",
                                  max_attempts=3, backoff_base=0.0)
    with pytest.raises(ApiError):
        complete_via_api(endpoint, CompletionRequest(prompt="p"))
    assert len(mock_server.requests) == 3


def test_client_error_status_raises_without_retry(mock_server):
    mock_server.set_behavior(lambda state, body: (404, {"error": "nope"}))
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="k", backoff_base=0.0)
    with pytest.raises(ApiError) as err:
        complete_via_api(endpoint, CompletionRequest(prompt="p"))
    assert err.value.status == 404
    assert len(mock_server.requests) == 1


def test_auth_rejection_is_credential_error(mock_server):
    mock_server.set_behavior(lambda state, body: (401, {"error": "bad key"}))
    endpoint = CompletionEndpoint(url=mock_server.url, api_key="wrong")
    with pytest.raises(CredentialError):
        complete_via_api(endpoint, CompletionRequest(prompt="p"))


def test_unreachable_endpoint_is_transport_error():
    endpoint = CompletionEndpoint(url="http://127.0.0.1:9/complete", api_key="k",
                                  max_attempts=2, backoff_base=0.0, timeout=0.3)
    with pytest.raises(TransportError):
        complete_via_api(endpoint, CompletionRequest(prompt="p"))


# --------------------------------------------------------------- backend

def test_api_model_fills_tails_with_truncated_completion(mock_server):
    mock_server.set_behavior(
        lambda state, body: (200, {"choices": [{"text": "to practice hard\nextra"}]}))
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="k"))
    out = model.generate(partial_graph(), DecodeConfig(stop=("\n",)))
    assert [t.tails for t in out] == [["to practice hard"], ["to practice hard"]]


def test_api_model_preserves_order_under_concurrency(mock_server):
    mock_server.set_behavior(
        lambda state, body: (200, {"choices": [{"text": f"ans:{body['prompt']}"}]}))
    registry = default_registry()
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="k",
                                                  max_in_flight=4), registry)
    graph = KnowledgeGraph([KnowledgeTuple(f"head {i}", "xNeed") for i in range(8)])
    out = model.generate(graph)
    assert [t.head.text for t in out] == [f"head {i}" for i in range(8)]
    for i, t in enumerate(out):
        assert t.tails == [f"ans:head {i} xNeed"]


def test_api_model_dedups_sampled_tails(mock_server):
    mock_server.set_behavior(
        lambda state, body: (200, {"choices": [{"text": "same"}, {"text": "same"},
                                               {"text": "other"}]}))
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="k"))
    out = model.generate(KnowledgeGraph([KnowledgeTuple("h", "xNeed")]),
                         DecodeConfig(n_samples=3))
    assert out[0].tails == ["same", "other"]


def test_api_model_per_tuple_failure_keeps_batch(mock_server):
    def sometimes(state, body):
        if "hammer" in body["prompt"]:
            return 404, {"error": "no"}
        return 200, {"choices": [{"text": "fine"}]}
    mock_server.set_behavior(sometimes)
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="k",
                                                  backoff_base=0.0))
    out, failures = model.generate_with_diagnostics(partial_graph())
    assert out[0].tails == ["fine"]
    assert out[1].tails == []
    assert len(failures) == 1 and failures[0].relation == "AtLocation"


def test_api_model_unreachable_raises_transport_with_partial():
    model = CompletionAPIModel(CompletionEndpoint(url="http://127.0.0.1:9/x", api_key="k",
                                                  max_attempts=1, backoff_base=0.0,
                                                  timeout=0.3))
    with pytest.raises(TransportError) as err:
        model.generate(partial_graph())
    partial = err.value.partial
    assert partial is not None
    assert [(t.head.text, t.relation) for t in partial] == \
           [("X goes running", "xNeed"), ("hammer", "AtLocation")]


def test_api_model_missing_key_raises_before_network(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    monkeypatch.delenv(API_URL_ENV, raising=False)
    model = CompletionAPIModel(CompletionEndpoint())
    with pytest.raises(CredentialError):
        model.generate(partial_graph())


def test_api_model_uses_few_shot_prompt_when_samples_given(mock_server):
    def x_wishes_verbalizer(head, **kwargs):
        index = kwargs.get("index")
        subject = head.split()[0]
        return f"Situation {index}: {head}. As a result, {subject} wishes"

    registry = default_registry()
    registry.register(KnowledgeRelation(
        "xWishes", verbalizer=x_wishes_verbalizer,
        instruction="How does the situation affect the character's wishes?"))
    samples = KnowledgeGraph([
        KnowledgeTuple("John is at a party", "xWishes", ["to drink beer and dance"]),
    ])
    mock_server.set_behavior(lambda state, body: (200, {"choices": [{"text": "to undo it"}]}))
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="k"),
                               registry, samples=samples)
    out = model.generate(KnowledgeGraph([KnowledgeTuple("Isaac makes a huge mistake",
                                                        "xWishes")]))
    prompt = mock_server.requests[0]["body"]["prompt"]
    assert prompt.splitlines()[0] == "How does the situation affect the character's wishes?"
    assert "Situation 1: John is at a party." in prompt
    assert prompt.endswith("Situation 2: Isaac makes a huge mistake. As a result, Isaac wishes")
    assert out[0].tails == ["to undo it"]


def test_empty_partial_graph_passes_through(mock_server):
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="k"))
    out = model.generate(KnowledgeGraph())
    assert len(out) == 0


def test_rejected_credential_stops_the_batch(mock_server):
    mock_server.set_behavior(lambda state, body: (401, {"error": "bad key"}))
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="wrong",
                                                  max_in_flight=2))
    graph = KnowledgeGraph([KnowledgeTuple(f"head {i}", "xNeed") for i in range(50)])
    with pytest.raises(CredentialError):
        model.generate(graph)
    assert 1 <= len(mock_server.requests) <= 2


def test_generate_is_the_base_wrapper_of_generate_with_diagnostics(mock_server, caplog):
    assert KnowledgeModel.__abstractmethods__ == {"generate_with_diagnostics"}
    mock_server.set_behavior(lambda state, body: (404, {"error": "no"}))
    model = CompletionAPIModel(CompletionEndpoint(url=mock_server.url, api_key="k"))
    with caplog.at_level("WARNING", logger="textkg.models.base"):
        out = model.generate(partial_graph())
    assert [t.tails for t in out] == [[], []]
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert messages[0].startswith("tuple 0 (X goes running, xNeed): unexpected response")
