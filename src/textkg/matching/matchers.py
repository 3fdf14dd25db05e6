"""Head-to-relation matching: base, heuristic, and model-based.

Every matcher is a group predictor, from a head text to relation groups:
base predicts every group (``custom`` included), heuristic maps noun
phrases to physical and sentences / verb phrases to social plus event, and
the model predicts the groups whose probability clears its threshold. A
head with no predicted group gets the heuristic's groups, so a relation in
the ``custom`` group is paired only by the base matcher. Pairs follow head
order, then registry order, with no duplicate (head, relation) pairs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..core.knowledge import KnowledgeGraph, KnowledgeHead, KnowledgeTuple
from ..core.relations import CUSTOM, EVENT, GROUPS, PHYSICAL, SOCIAL, RelationRegistry
from ..errors import ConfigurationError, UsageError
from ..extraction.heads import NOUN_PHRASE, classify_head_form
from .swem import MatcherModel

MATCHER_NAMES = ("base", "heuristic", "model")

GroupPredictor = Callable[[str], frozenset[str]]


def base_group_predictor(head: str) -> frozenset[str]:
    """The all-relations matcher predicts every group, custom included."""
    return frozenset((*GROUPS, CUSTOM))


def heuristic_group_predictor(head: str) -> frozenset[str]:
    """Noun phrases map to physical; sentences and verb phrases map to
    social plus event."""
    if classify_head_form(head) == NOUN_PHRASE:
        return frozenset({PHYSICAL})
    return frozenset({SOCIAL, EVENT})


def resolve_group_predictor(matcher, model: MatcherModel | None = None) -> GroupPredictor:
    """Accepts a name in ``MATCHER_NAMES``, a MatcherModel, or any callable
    head -> group set."""
    if isinstance(matcher, MatcherModel):
        return matcher.predict_groups
    if callable(matcher):
        return matcher
    if matcher == "base":
        return base_group_predictor
    if matcher == "heuristic":
        return heuristic_group_predictor
    if matcher == "model":
        if model is None:
            raise ConfigurationError("model matcher selected but no matcher model loaded")
        return model.predict_groups
    raise UsageError(f"unknown matcher {matcher!r}; expected one of {MATCHER_NAMES}")


def match_relations(heads: Sequence[KnowledgeHead | str], matcher: str,
                    registry: RelationRegistry,
                    subset: Iterable[str] | None = None,
                    model: MatcherModel | None = None) -> list[tuple[KnowledgeHead, str]]:
    """Pair each head with the registered relations of its predicted groups.

    ``matcher`` is resolved by :func:`resolve_group_predictor`. A head with
    no predicted group gets the heuristic's groups.
    """
    if len(registry) == 0:
        raise UsageError("relation registry is empty")
    if subset is not None:
        subset = set(subset)
        unknown = subset - set(registry.names)
        if unknown:
            raise UsageError(f"relations not in registry: {sorted(unknown)}")
    predict = resolve_group_predictor(matcher, model)

    names_by_groups: dict[frozenset[str], list[str]] = {}
    pairs: list[tuple[KnowledgeHead, str]] = []
    seen: set[tuple[str, str]] = set()
    for head in heads:
        if isinstance(head, str):
            head = KnowledgeHead(head)
        groups = predict(head.text) or heuristic_group_predictor(head.text)
        names = names_by_groups.get(groups)
        if names is None:
            names = names_by_groups[groups] = [
                r.name for r in registry
                if r.group in groups and (subset is None or r.name in subset)]
        for name in names:
            key = (head.text, name)
            if key not in seen:
                seen.add(key)
                pairs.append((head, name))
    return pairs


def pairs_to_graph(pairs: Iterable[tuple[KnowledgeHead, str]]) -> KnowledgeGraph:
    """Build the partial (tails empty) graph from matched pairs."""
    return KnowledgeGraph(KnowledgeTuple(head, relation) for head, relation in pairs)
