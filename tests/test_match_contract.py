"""Contract of ``match_relations``: the same pairs, in the same order, as
the reference matcher below, which is a verbatim copy of the original
three-way base / heuristic / model implementation.

The cases cover each matcher with and without a relation subset; repeated,
``str`` and ``KnowledgeHead`` heads; registries holding a ``custom``-group
relation and a custom relation in a built-in group; and models that
predict nothing for some heads (the heuristic fallback) or every group.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textkg.core.knowledge import KnowledgeHead
from textkg.core.relations import (
    EVENT,
    PHYSICAL,
    SOCIAL,
    KnowledgeRelation,
    RelationRegistry,
    default_registry,
)
from textkg.errors import ConfigurationError, UsageError
from textkg.extraction.heads import NOUN_PHRASE, classify_head_form
from textkg.extraction.lexicon import LEXICON
from textkg.matching.embeddings import EmbeddingTable
from textkg.matching.matchers import match_relations
from textkg.matching.swem import MatcherModel

# ------------------------------------------------------------- reference

REFERENCE_MATCHER_NAMES = ("base", "heuristic", "model")


def _restrict(names: Iterable[str], subset: set[str] | None) -> list[str]:
    return [n for n in names if subset is None or n in subset]


def _groups_for_head(head: KnowledgeHead) -> tuple[str, ...]:
    if classify_head_form(head) == NOUN_PHRASE:
        return (PHYSICAL,)
    return (SOCIAL, EVENT)


def reference_match_relations(heads: Sequence[KnowledgeHead | str], matcher: str,
                              registry: RelationRegistry,
                              subset: Iterable[str] | None = None,
                              model: MatcherModel | None = None) -> list[tuple[KnowledgeHead, str]]:
    """Pair each head with plausible relation names."""
    if matcher not in REFERENCE_MATCHER_NAMES:
        raise UsageError(f"unknown matcher {matcher!r}; expected one of {REFERENCE_MATCHER_NAMES}")
    if len(registry) == 0:
        raise UsageError("relation registry is empty")
    subset_set: set[str] | None = None
    if subset is not None:
        subset_set = set(subset)
        unknown = subset_set - set(registry.names)
        if unknown:
            raise UsageError(f"relations not in registry: {sorted(unknown)}")
    if matcher == "model" and model is None:
        raise ConfigurationError("model matcher selected but no matcher model loaded")

    pairs: list[tuple[KnowledgeHead, str]] = []
    seen: set[tuple[str, str]] = set()
    for head in heads:
        if isinstance(head, str):
            head = KnowledgeHead(head)
        if matcher == "base":
            names = registry.names
        else:
            if matcher == "model":
                groups = model.predict_groups(head.text)
                if not groups:
                    groups = _groups_for_head(head)  # empty-prediction fallback
            else:
                groups = _groups_for_head(head)
            wanted = set(groups)
            names = [r.name for r in registry if r.group in wanted]
        for name in _restrict(names, subset_set):
            key = (head.text, name)
            if key not in seen:
                seen.add(key)
                pairs.append((head, name))
    return pairs


# ----------------------------------------------------------------- cases

def _custom_registry() -> RelationRegistry:
    registry = default_registry()
    registry.register(KnowledgeRelation("xDreamsOf", group="custom"))
    registry.register(KnowledgeRelation("xWishes", group="social"))
    return registry


def _small_registry() -> RelationRegistry:
    return RelationRegistry([
        KnowledgeRelation("Smells"),  # group "custom"
        KnowledgeRelation("AtLocation", group=PHYSICAL),
        KnowledgeRelation("xWishes", group=SOCIAL),
        KnowledgeRelation("Causes", group=EVENT),
    ])


REGISTRIES = {
    "default": default_registry,
    "custom": _custom_registry,
    "small": _small_registry,
}

# "hammer" projects onto physical, "runs" onto social and event, a mix of
# the two onto all three groups; a head with no known word pools to zero.
_TABLE = EmbeddingTable.from_mapping({"hammer": [1.0, 0.0], "runs": [0.0, 1.0]})


def _model(kind: str) -> MatcherModel:
    if kind == "some-empty":
        weights = [[10.0, 0.0], [0.0, 10.0], [0.0, 10.0]]
        return MatcherModel(_TABLE, weights=weights, bias=[-5.0, -5.0, -5.0])
    return MatcherModel(_TABLE, weights=np.zeros((3, 2)), bias=[50.0, 50.0, 50.0])


HEADS = [
    "hammer",
    KnowledgeHead("PersonX runs fast"),
    "go running",
    "hammer",  # repeated str head
    KnowledgeHead("hammer"),  # repeated as a KnowledgeHead
    "a big red wagon",  # no known word: the model predicts nothing
    KnowledgeHead("PersonX buys a hammer"),
    "hammer runs",  # pools onto every group
    "PersonX runs fast",
    "the agenda",
]

MATCHERS = [("base", None), ("heuristic", None),
            ("model", "some-empty"), ("model", "every-group")]


def _subset(registry: RelationRegistry, kind: str):
    if kind == "none":
        return None
    names = registry.names
    chosen = names[::3] + [n for n in ("xDreamsOf", "xWishes", "Smells") if n in names]
    return chosen if kind == "list" else set(chosen)


def _key(pairs):
    return [(type(h), h.text, r) for h, r in pairs]


@pytest.mark.parametrize("subset_kind", ["none", "set", "list"])
@pytest.mark.parametrize("registry_name", sorted(REGISTRIES))
@pytest.mark.parametrize("matcher,model_kind", MATCHERS)
def test_pairs_match_reference(matcher, model_kind, registry_name, subset_kind):
    registry = REGISTRIES[registry_name]()
    subset = _subset(registry, subset_kind)
    model = _model(model_kind) if model_kind else None
    got = match_relations(HEADS, matcher, registry, subset=subset, model=model)
    want = reference_match_relations(HEADS, matcher, registry, subset=subset, model=model)
    assert _key(got) == _key(want)
    assert got


def test_cases_exercise_fallback_and_custom_groups():
    """Guards the cases above: the fallback is taken and custom relations
    reach the output."""
    model = _model("some-empty")
    assert model.predict_groups("a big red wagon") == frozenset()
    assert model.predict_groups("hammer runs") == frozenset({PHYSICAL, SOCIAL, EVENT})
    assert _model("every-group").predict_groups("a big red wagon") == \
        frozenset({PHYSICAL, SOCIAL, EVENT})
    names = {r for _, r in match_relations(HEADS, "base", _custom_registry())}
    assert {"xDreamsOf", "xWishes"} <= names


@pytest.mark.parametrize("matcher,registry,subset,model,error", [
    ("fancy", default_registry, None, None, UsageError),
    ("base", RelationRegistry, None, None, UsageError),
    ("fancy", RelationRegistry, None, None, UsageError),
    ("heuristic", default_registry, {"NotARelation"}, None, UsageError),
    ("model", default_registry, None, None, ConfigurationError),
    ("model", default_registry, {"NotARelation"}, None, UsageError),
    ("model", RelationRegistry, None, None, UsageError),
])
def test_errors_match_reference(matcher, registry, subset, model, error):
    with pytest.raises(error) as want:
        reference_match_relations(["h"], matcher, registry(), subset=subset, model=model)
    with pytest.raises(error) as got:
        match_relations(["h"], matcher, registry(), subset=subset, model=model)
    assert type(got.value) is type(want.value)


_WORDS = sorted(LEXICON)[:200] + ["PersonX", "PersonY", "runs", "hammer", "zzq"]
_HEAD = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join),
    st.text(min_size=1, max_size=12),
).filter(str.strip)


@settings(max_examples=150, deadline=None)
@given(heads=st.lists(st.one_of(_HEAD, _HEAD.map(KnowledgeHead)), min_size=1, max_size=8),
       matcher=st.sampled_from(["base", "heuristic"]),
       registry_name=st.sampled_from(sorted(REGISTRIES)),
       data=st.data())
def test_random_heads_match_reference(heads, matcher, registry_name, data):
    registry = REGISTRIES[registry_name]()
    subset = data.draw(st.none() | st.sets(st.sampled_from(registry.names)))
    got = match_relations(heads, matcher, registry, subset=subset)
    want = reference_match_relations(heads, matcher, registry, subset=subset)
    assert _key(got) == _key(want)
