from collections import Counter
from pathlib import Path

import pytest

from textkg import PipelineConfig, infer, serialize_graph
from textkg.core.relations import default_registry
from textkg.errors import (
    ConfigurationError,
    StageError,
    UsageError,
    ValidationError,
    exit_code_for,
)
from textkg.filtering.relevance import EmbeddingCosineScorer
from textkg.matching.embeddings import EmbeddingTable
from textkg.matching.swem import MatcherModel
from textkg.models.stub import StubModel

from conftest import random_table

GOLDEN = Path(__file__).parent / "data" / "golden_infer.jsonl"
TEXT = "PersonX becomes a great basketball player"


def test_dry_run_matches_golden_file():
    graph = infer(TEXT, PipelineConfig(dry_run=True))
    assert serialize_graph(graph, "jsonl") == GOLDEN.read_bytes()


def test_dry_run_tails_stay_empty():
    graph = infer(TEXT, PipelineConfig(dry_run=True))
    assert len(graph) > 0
    assert all(t.tails == [] for t in graph)
    heads = {t.head.text for t in graph}
    assert TEXT in heads and "basketball player" in heads


def test_stub_run_fills_every_tail_with_template():
    graph = infer(TEXT, PipelineConfig(backend="stub"))
    assert all(t.tails == [f"to <stub:{t.relation}:{t.head.text}>"] for t in graph)


def test_dry_run_and_full_run_have_identical_pairs():
    dry = infer(TEXT, PipelineConfig(dry_run=True))
    full = infer(TEXT, PipelineConfig(backend="stub"))
    assert Counter((t.head.text, t.relation) for t in dry) == \
           Counter((t.head.text, t.relation) for t in full)
    assert [(t.head.text, t.relation) for t in dry] == \
           [(t.head.text, t.relation) for t in full]


def test_infer_is_deterministic_for_stub_backend():
    config = PipelineConfig(backend="stub")
    assert infer(TEXT, config) == infer(TEXT, config)


def test_explicit_heads_bypass_extraction():
    config = PipelineConfig(heads=("hammer",), relations=("AtLocation",), dry_run=True)
    graph = infer("completely different text", config)
    assert [(t.head.text, t.relation) for t in graph] == [("hammer", "AtLocation")]


def test_explicit_heads_allow_empty_text():
    config = PipelineConfig(heads=("hammer",), relations=("xNeed",), matcher="base")
    graph = infer("", config)
    assert graph[0].tails == ["to <stub:xNeed:hammer>"]


def test_empty_text_without_heads_rejected():
    with pytest.raises(ValidationError):
        infer("   ", PipelineConfig())


def test_empty_head_set_yields_empty_graph():
    graph = infer("the", PipelineConfig(extractors=("noun_phrase",)))
    assert len(graph) == 0


def test_single_explicit_head_single_relation_stub():
    config = PipelineConfig(heads=("X goes running",), relations=("xNeed",), matcher="base")
    graph = infer("", config)
    assert len(graph) == 1
    assert graph[0].tails == ["to <stub:xNeed:X goes running>"]


def test_relation_subset_restricts_output():
    config = PipelineConfig(relations=("xIntent", "AtLocation"), dry_run=True)
    graph = infer(TEXT, config)
    assert {t.relation for t in graph} <= {"xIntent", "AtLocation"}


def test_filter_stage_runs_with_injected_scorer():
    words = ["personx", "becomes", "a", "great", "basketball", "player",
             "become", "xneed", "to", "stub"]
    table = random_table(words, dim=8, seed=3)
    scorer = EmbeddingCosineScorer(table, default_registry())
    config = PipelineConfig(backend="stub", filter="embedding", threshold=0.0)
    graph = infer(TEXT, config, scorer=scorer)
    assert len(graph) > 0  # threshold 0 keeps everything scored

    config_strict = PipelineConfig(backend="stub", filter="embedding", threshold=1.0)
    strict = infer(TEXT, config_strict, scorer=scorer)
    assert len(strict) <= len(graph)


def test_filter_is_noop_under_dry_run():
    config = PipelineConfig(dry_run=True, filter="embedding")
    graph = infer(TEXT, config)  # would raise if the scorer were resolved
    assert all(t.tails == [] for t in graph)


def test_model_matcher_without_model_is_stage_error():
    with pytest.raises(StageError) as err:
        infer(TEXT, PipelineConfig(matcher="model", dry_run=True))
    assert err.value.stage == "relation-matching"
    assert isinstance(err.value.__cause__, ConfigurationError)
    assert exit_code_for(err.value) == 2


def test_filter_without_embeddings_is_stage_error():
    with pytest.raises(StageError) as err:
        infer(TEXT, PipelineConfig(backend="stub", filter="embedding"))
    assert err.value.stage == "filtering"
    assert exit_code_for(err.value) == 2


def test_config_validation():
    with pytest.raises(UsageError):
        PipelineConfig(matcher="nope")
    with pytest.raises(UsageError):
        PipelineConfig(backend="nope")
    with pytest.raises(UsageError):
        PipelineConfig(filter="nope")


def test_config_from_mapping_flat_keys():
    config = PipelineConfig.from_mapping({
        "matcher": "base",
        "extractors": ["sentence"],
        "relations": ["xNeed"],
        "max_tokens": 48,
        "temperature": 0.7,
        "stop": ["###"],
        "dry_run": True,
    })
    assert config.matcher == "base"
    assert config.extractors == ("sentence",)
    assert config.relations == ("xNeed",)
    assert config.decode.max_tokens == 48
    assert config.decode.temperature == 0.7
    assert config.decode.stop == ("###",)
    assert config.dry_run is True


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(UsageError):
        PipelineConfig.from_mapping({"matcherr": "base"})


def test_model_matcher_end_to_end_from_files(tmp_path):
    from synthdata import separable_matcher_corpus
    from textkg.matching.swem import TrainConfig, train_swem_matcher

    train, _, table = separable_matcher_corpus(n_per_group=60, vocab_per_group=20, dim=16)
    emb_path = tmp_path / "emb.txt"
    table.save(emb_path)
    model_path = tmp_path / "matcher.json"
    train_swem_matcher(train, table, TrainConfig(epochs=10, learning_rate=0.01,
                                                 seed=4)).save(model_path)

    config = PipelineConfig(matcher="model", matcher_model=str(model_path),
                            embeddings=str(emb_path), dry_run=True,
                            heads=("physicalw0 physicalw1",))
    graph = infer("", config)
    registry = default_registry()
    groups = {registry[t.relation].group for t in graph}
    assert groups == {"physical"}


def _model_filter_config(tmp_path) -> PipelineConfig:
    """Model matcher and embedding filter over one saved embedding file."""
    from synthdata import separable_matcher_corpus
    from textkg.matching.swem import TrainConfig, train_swem_matcher

    train, _, table = separable_matcher_corpus(n_per_group=30, vocab_per_group=10, dim=8)
    emb_path = tmp_path / "emb.txt"
    table.save(emb_path)
    model_path = tmp_path / "matcher.json"
    train_swem_matcher(train, table, TrainConfig(epochs=2, seed=4)).save(model_path)
    return PipelineConfig(matcher="model", matcher_model=str(model_path),
                          embeddings=str(emb_path), filter="embedding", threshold=0.0,
                          heads=("physicalw0 physicalw1",))


def _count_embedding_loads(monkeypatch) -> list:
    loaded = []
    load = EmbeddingTable.load

    def counting_load(cls, path):
        loaded.append(str(path))
        return load(path)

    monkeypatch.setattr(EmbeddingTable, "load", classmethod(counting_load))
    return loaded


def test_model_matcher_and_embedding_filter_load_embeddings_once(tmp_path, monkeypatch):
    config = _model_filter_config(tmp_path)
    loaded = _count_embedding_loads(monkeypatch)
    graph = infer("physicalw0 physicalw1 socialw2", config)
    assert len(graph) > 0
    assert loaded == [config.embeddings]


def test_caller_matcher_model_is_not_shared_with_the_scorer(tmp_path, monkeypatch):
    config = _model_filter_config(tmp_path)
    matcher_model = MatcherModel.load(config.matcher_model,
                                      EmbeddingTable.load(config.embeddings))
    loaded = _count_embedding_loads(monkeypatch)
    infer("physicalw0 physicalw1 socialw2", config, matcher_model=matcher_model)
    assert loaded == [config.embeddings]  # the scorer's own table


def test_external_filter_without_url_is_config_error():
    with pytest.raises(StageError) as err:
        infer(TEXT, PipelineConfig(backend="stub", filter="external"))
    assert isinstance(err.value.__cause__, ConfigurationError)


def test_injected_model_overrides_backend():
    class Uppercase(StubModel):
        def generate(self, partial, decode=None):
            out = super().generate(partial, decode)
            for t in out:
                t.tails = [x.upper() for x in t.tails]
            return out

    config = PipelineConfig(heads=("hammer",), relations=("xNeed",), matcher="base")
    graph = infer("", config, model=Uppercase())
    assert graph[0].tails == ["TO <STUB:XNEED:HAMMER>"]
