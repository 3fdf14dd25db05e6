"""Deterministic template backend for tests and offline runs."""

from __future__ import annotations

from ..core.knowledge import KnowledgeGraph
from .base import DecodeConfig, GenerationFailure, KnowledgeModel


class StubModel(KnowledgeModel):
    """Fills every tail with ``to <stub:{relation}:{head}>``.

    Pure and idempotent: regenerating overwrites tails identically.
    """

    def generate_with_diagnostics(
            self, partial: KnowledgeGraph,
            decode: DecodeConfig | None = None) -> tuple[KnowledgeGraph, list[GenerationFailure]]:
        return KnowledgeGraph(
            t.with_tails([f"to <stub:{t.relation}:{t.head.text}>"]) for t in partial
        ), []
