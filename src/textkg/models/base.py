"""Model-agnostic knowledge-model interface.

A knowledge model consumes a graph of (head, relation) pairs and returns
the same pairs, in the same order, with tails filled in. Tails already
present on input tuples are ignored and overwritten, which makes
generation idempotent for deterministic backends.
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass, field

from ..core.knowledge import KnowledgeGraph

logger = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    # Each field is also a config key, declared as textkg.pipeline.option
    # declares them: the type a config file must give, and the CLI flag.
    max_tokens: int = field(default=24, metadata={"type": int, "flag": "--max-tokens"})
    temperature: float = field(default=0.0, metadata={"type": float, "flag": "--temperature"})
    stop: tuple[str, ...] = field(default=("\n",), metadata={"type": tuple})
    n_samples: int = field(default=1, metadata={"type": int, "flag": "--n-samples"})


@dataclass
class GenerationFailure:
    """Diagnostics record for a tuple whose tails could not be generated."""

    index: int
    head: str
    relation: str
    error: str


class KnowledgeModel(abc.ABC):
    """Abstract knowledge model: concrete backends implement
    generate_with_diagnostics."""

    @abc.abstractmethod
    def generate_with_diagnostics(
            self, partial: KnowledgeGraph,
            decode: DecodeConfig | None = None) -> tuple[KnowledgeGraph, list[GenerationFailure]]:
        """Fill tails for every (head, relation) pair of ``partial``, and
        return one failure record per tuple left without tails."""

    def generate(self, partial: KnowledgeGraph,
                 decode: DecodeConfig | None = None) -> KnowledgeGraph:
        """Like generate_with_diagnostics, logging each failure as a
        warning instead of returning it."""
        graph, failures = self.generate_with_diagnostics(partial, decode)
        for f in failures:
            logger.warning("tuple %d (%s, %s): %s", f.index, f.head, f.relation, f.error)
        return graph
