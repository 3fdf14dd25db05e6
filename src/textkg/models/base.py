"""Model-agnostic knowledge-model interface.

A knowledge model consumes a graph of (head, relation) pairs and returns
the same pairs, in the same order, with tails filled in. Tails already
present on input tuples are ignored and overwritten, which makes
generation idempotent for deterministic backends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..core.knowledge import KnowledgeGraph


@dataclass
class DecodeConfig:
    max_tokens: int = 24
    temperature: float = 0.0
    stop: tuple[str, ...] = ("\n",)
    n_samples: int = 1


@dataclass
class GenerationFailure:
    """Diagnostics record for a tuple whose tails could not be generated."""

    index: int
    head: str
    relation: str
    error: str


class KnowledgeModel(abc.ABC):
    """Abstract knowledge model: concrete backends implement generate."""

    @abc.abstractmethod
    def generate(self, partial: KnowledgeGraph,
                 decode: DecodeConfig | None = None) -> KnowledgeGraph:
        """Fill tails for every (head, relation) pair of ``partial``."""

    def generate_with_diagnostics(
            self, partial: KnowledgeGraph,
            decode: DecodeConfig | None = None) -> tuple[KnowledgeGraph, list[GenerationFailure]]:
        """Like generate, also returning per-tuple failure records.

        Default implementation assumes no per-tuple failures.
        """
        return self.generate(partial, decode), []
