"""End-to-end inference pipeline: extract heads, match relations,
generate tails, filter for contextual relevance.

Stages run in that order; dry-run mode stops after matching and returns
the partial graph with empty tails (filtering is a no-op without tails).
Stage failures propagate wrapped in :class:`StageError` naming the stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

from .core.knowledge import KnowledgeGraph, KnowledgeHead
from .core.relations import RelationRegistry, default_registry
from .errors import ConfigurationError, StageError, UsageError, ValidationError
from .extraction.heads import EXTRACTOR_NAMES, extract_heads
from .filtering.relevance import EmbeddingCosineScorer, ExternalScorer, filter_graph
from .matching.embeddings import EmbeddingTable
from .matching.matchers import MATCHER_NAMES, match_relations, pairs_to_graph
from .matching.swem import MatcherModel
from .models.api import CompletionAPIModel, CompletionEndpoint
from .models.base import DecodeConfig, KnowledgeModel
from .models.stub import StubModel

logger = logging.getLogger(__name__)

FILTER_MODES = ("off", "embedding", "external")
BACKENDS = ("stub", "api")


@dataclass
class PipelineConfig:
    extractors: tuple[str, ...] = EXTRACTOR_NAMES
    matcher: str = "heuristic"
    matcher_model: Optional[str] = None  # path to a trained matcher model
    embeddings: Optional[str] = None  # path to the embedding text file
    relations: Optional[tuple[str, ...]] = None  # restrict to this subset
    backend: str = "stub"
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    filter: str = "off"
    threshold: float = 0.5
    external_url: Optional[str] = None
    dry_run: bool = False
    heads: Optional[tuple[str, ...]] = None  # explicit heads bypass extraction
    fail_closed: bool = False

    def __post_init__(self):
        if self.matcher not in MATCHER_NAMES:
            raise UsageError(f"unknown matcher {self.matcher!r}")
        if self.backend not in BACKENDS:
            raise UsageError(f"unknown backend {self.backend!r}")
        if self.filter not in FILTER_MODES:
            raise UsageError(f"unknown filter mode {self.filter!r}")

    @classmethod
    def from_mapping(cls, data: dict) -> "PipelineConfig":
        """Build a config from a flat key/value mapping (config file)."""
        kwargs = {}
        decode_kwargs = {}
        for key, value in data.items():
            if key in ("max_tokens", "temperature", "n_samples"):
                decode_kwargs[key] = value
            elif key == "stop":
                decode_kwargs["stop"] = tuple(value)
            elif key in ("extractors", "relations", "heads"):
                kwargs[key] = tuple(value) if value is not None else None
            elif key in {f.name for f in fields(cls)}:
                kwargs[key] = value
            else:
                raise UsageError(f"unknown config key {key!r}")
        config = cls(**kwargs)
        if decode_kwargs:
            config.decode = replace(config.decode, **decode_kwargs)
        return config


def _load_embeddings(config: PipelineConfig) -> EmbeddingTable:
    if not config.embeddings:
        raise ConfigurationError("an embeddings file is required for this configuration")
    return EmbeddingTable.load(config.embeddings)


def resolve_model(config: PipelineConfig,
                  registry: RelationRegistry | None = None) -> KnowledgeModel:
    if config.backend == "stub":
        return StubModel()
    return CompletionAPIModel(endpoint=CompletionEndpoint(), registry=registry)


def resolve_matcher_model(config: PipelineConfig,
                          embeddings: EmbeddingTable | None = None) -> MatcherModel:
    if not config.matcher_model:
        raise ConfigurationError("model matcher selected but no matcher model path set")
    table = embeddings if embeddings is not None else _load_embeddings(config)
    return MatcherModel.load(config.matcher_model, table)


def resolve_scorer(config: PipelineConfig, registry: RelationRegistry,
                   embeddings: EmbeddingTable | None = None):
    if config.filter == "embedding":
        table = embeddings if embeddings is not None else _load_embeddings(config)
        return EmbeddingCosineScorer(table, registry)
    if config.filter == "external":
        if not config.external_url:
            raise ConfigurationError("external filter selected but no endpoint URL set")
        return ExternalScorer(config.external_url)
    raise ConfigurationError(f"no scorer for filter mode {config.filter!r}")


def infer(text: str, config: PipelineConfig | None = None, *,
          registry: RelationRegistry | None = None,
          model: KnowledgeModel | None = None,
          matcher_model: MatcherModel | None = None,
          scorer=None) -> KnowledgeGraph:
    """Run the pipeline on ``text`` and return the knowledge graph.

    Explicit ``config.heads`` bypass extraction entirely; ``text`` may
    then be empty (an empty text with no explicit heads is an error).
    Components resolved from the config can be overridden by passing
    instances directly. A matcher model resolved here shares its
    embedding table with the embedding scorer, so one call parses
    ``config.embeddings`` at most once; long-running callers resolve the
    components once and pass ``matcher_model`` and ``scorer``.
    """
    config = config or PipelineConfig()
    registry = registry or default_registry()
    if not text.strip() and not config.heads:
        raise ValidationError("text must be non-empty unless explicit heads are provided")

    # -- head extraction
    try:
        if config.heads:
            heads: Sequence[KnowledgeHead] = [KnowledgeHead(h) for h in config.heads]
        else:
            heads = [e.head for e in extract_heads(text, config.extractors)]
    except Exception as e:
        raise StageError("head-extraction", e) from e
    if not heads:
        return KnowledgeGraph()

    # -- relation matching
    embeddings = None  # the table of a matcher model resolved here
    try:
        if config.matcher == "model" and matcher_model is None:
            matcher_model = resolve_matcher_model(config)
            embeddings = matcher_model.embeddings
        pairs = match_relations(heads, config.matcher, registry,
                                subset=config.relations, model=matcher_model)
    except StageError:
        raise
    except Exception as e:
        raise StageError("relation-matching", e) from e
    graph = pairs_to_graph(pairs)

    if config.dry_run:
        return graph  # tails stay empty; filtering has nothing to judge

    # -- tail generation
    try:
        backend = model or resolve_model(config, registry)
        graph = backend.generate(graph, config.decode)
    except StageError:
        raise
    except Exception as e:
        raise StageError("generation", e) from e

    # -- relevance filtering
    if config.filter != "off":
        if not text.strip():
            raise StageError("filtering", UsageError(
                "filtering requires the original text as context"))
        try:
            active_scorer = scorer or resolve_scorer(config, registry, embeddings)
            graph, judgments = filter_graph(graph, text, config.threshold,
                                            active_scorer,
                                            fail_open=not config.fail_closed)
            flagged = sum(1 for j in judgments if j.flagged)
            if flagged:
                logger.info("%d of %d judgments flagged", flagged, len(judgments))
        except StageError:
            raise
        except Exception as e:
            raise StageError("filtering", e) from e
    return graph
