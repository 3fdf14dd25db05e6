"""End-to-end inference pipeline: extract heads, match relations,
generate tails, filter for contextual relevance.

Stages run in that order; dry-run mode stops after matching and returns
the partial graph with empty tails (filtering is a no-op without tails).
Stage failures propagate wrapped in :class:`StageError` naming the stage.
"""

from __future__ import annotations

import json
import logging
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
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


def option(default, type, flag=None, help=None, **cli):
    """A config key whose value must be a ``type`` (str, int, float, bool, or
    tuple: a list of strings), and a CLI ``flag`` if given. ``cli`` may add
    choices, nargs, comma=True (a comma-list flag) and aliases ({subcommand: flag})."""
    return field(default=default, metadata={"type": type, "flag": flag, "help": help, **cli})


@dataclass
class PipelineConfig:
    extractors: tuple[str, ...] = option(EXTRACTOR_NAMES, tuple, "--extractors", comma=True,
                                         help="comma list: sentence,noun_phrase,verb_phrase")
    matcher: str = option("heuristic", str, "--matcher", choices=MATCHER_NAMES)
    matcher_model: Optional[str] = option(None, str, "--model", help="trained matcher model path")
    embeddings: Optional[str] = option(None, str, "--embeddings", help="embedding text file")
    relations: Optional[tuple[str, ...]] = option(None, tuple, "--relations", comma=True,
                                                  help="comma list restricting relations")
    backend: str = option("stub", str, "--backend", choices=BACKENDS, aliases={"eval": "--model"})
    decode: DecodeConfig = field(default_factory=DecodeConfig)  # its keys sit flat in a file
    filter: str = option("off", str, "--filter", choices=FILTER_MODES,
                         aliases={"filter": "--scorer"})
    threshold: float = option(0.5, float, "--threshold")
    external_url: Optional[str] = option(None, str, "--external-url")
    dry_run: bool = option(False, bool, "--dry-run",
                           help="skip generation; emit (head, relation) pairs with empty tails")
    heads: Optional[tuple[str, ...]] = option(None, tuple, "--heads", nargs="+",
                                              help="explicit heads (bypass extraction)")
    fail_closed: bool = option(False, bool)

    def __post_init__(self):
        if self.matcher not in MATCHER_NAMES:
            raise UsageError(f"unknown matcher {self.matcher!r}")
        if self.backend not in BACKENDS:
            raise UsageError(f"unknown backend {self.backend!r}")
        if self.filter not in FILTER_MODES:
            raise UsageError(f"unknown filter mode {self.filter!r}")

    @classmethod
    def from_mapping(cls, data: dict) -> "PipelineConfig":
        """Build a config from a flat key/value mapping (config file),
        checking each value against its option's declared type."""
        kwargs, decode = {}, {}
        for key, value in data.items():
            if key not in OPTIONS:
                raise UsageError(f"unknown config key {key!r}")
            f, kind = OPTIONS[key], OPTIONS[key].metadata["type"]
            if value is not None or f.default is not None:  # None is fine where it is the default
                expected, fits = _KINDS[kind]
                if not fits(value):
                    raise UsageError(f"config key {key!r} must be {expected}, "
                                     f"got {json.dumps(value, default=repr)}")
                value = kind(value)
            (decode if f in fields(DecodeConfig) else kwargs)[key] = value
        return cls(**kwargs, decode=DecodeConfig(**decode))


# the JSON values each declared type takes: an int is also a float, a bool is neither
_KINDS = {
    str: ("a string", lambda v: type(v) is str),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    bool: ("true or false", lambda v: type(v) is bool),
    tuple: ("a list of strings",
            lambda v: type(v) in (list, tuple) and all(type(s) is str for s in v)),
}
# every config key, PipelineConfig's and DecodeConfig's, by name
OPTIONS = {f.name: f for cls in (PipelineConfig, DecodeConfig) for f in fields(cls) if f.metadata}


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


def closed_with(stack: ExitStack, component):
    """Return ``component``; ``stack`` closes it on exit if it has a
    ``close`` method, as the HTTP backend and the external scorer do."""
    if hasattr(component, "close"):
        stack.callback(component.close)
    return component


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
    components once and pass ``matcher_model`` and ``scorer``. Components
    resolved here are closed before it returns; passed ones stay open.
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

    with ExitStack() as owned:
        # -- tail generation
        try:
            backend = model or closed_with(owned, resolve_model(config, registry))
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
                active_scorer = scorer or closed_with(
                    owned, resolve_scorer(config, registry, embeddings))
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
