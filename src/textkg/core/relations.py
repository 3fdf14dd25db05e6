"""Knowledge relations: built-in inventory, registration, verbalization,
and few-shot prompt assembly.

The built-in inventory is the 23-relation set of the ATOMIC2020 knowledge
graph, grouped into physical / social / event categories, plus a small set
of ConceptNet relation names mapped into the physical group. Users can
register custom relations with their own verbalizers and instructions,
either programmatically or from a JSON config file.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from ..errors import ConflictError, UsageError, ValidationError
from .knowledge import KnowledgeGraph, KnowledgeHead

PHYSICAL = "physical"
SOCIAL = "social"
EVENT = "event"
CUSTOM = "custom"
GROUPS = (PHYSICAL, SOCIAL, EVENT)

# Verbalizers take the head and keyword-only tail/index; they own head and
# index placement. When a verbalizer does not consume the tail itself,
# KnowledgeRelation.verbalize appends it after the relation phrase.
Verbalizer = Callable[..., str]


@dataclass
class KnowledgeRelation:
    """A named relation with group membership and prompt verbalization.

    ``verbalizer(head, tail=None, index=None)`` produces the prompt
    fragment for this relation; if omitted, a template string with
    ``{head}``/``{tail}``/``{index}`` placeholders is used, and if neither
    is given the fallback is ``"{head} {name} {tail}"``.
    """

    name: str
    group: str = CUSTOM
    verbalizer: Optional[Verbalizer] = None
    template: Optional[str] = None
    instruction: Optional[str] = None
    alias_of: Optional[str] = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("relation name must be non-empty")
        if self.group not in (*GROUPS, CUSTOM):
            raise ValidationError(f"unknown relation group {self.group!r}")

    def verbalize(self, head: str, tail: str | None = None, index: int | None = None) -> str:
        """Render this relation as a natural-language prompt fragment.

        A verbalizer with an explicit ``tail`` parameter owns tail
        placement; otherwise the tail is appended after the fragment.
        """
        if not head:
            raise ValidationError("head must be non-empty")
        if self.verbalizer is not None:
            fragment, consumed = _call_verbalizer(self.verbalizer, head, tail, index)
        elif self.template is not None:
            fragment = self.template.format(head=head, tail=tail or "",
                                            index="" if index is None else index)
            consumed = "{tail}" in self.template
        else:
            fragment = f"{head} {self.name}"
            consumed = False
        if tail and not consumed:
            fragment = f"{fragment} {tail}"
        return fragment

    def __hash__(self):
        return hash(self.name)


class RelationRegistry:
    """Name-unique relation store with a per-group index."""

    def __init__(self, relations: Iterable[KnowledgeRelation] = ()):
        self._by_name: dict[str, KnowledgeRelation] = {}
        for rel in relations:
            self.register(rel)

    def register(self, rel: KnowledgeRelation) -> "RelationRegistry":
        if rel.name in self._by_name:
            raise ConflictError(f"relation {rel.name!r} is already registered")
        self._by_name[rel.name] = rel
        return self

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())

    def __getitem__(self, name: str) -> KnowledgeRelation:
        try:
            return self._by_name[name]
        except KeyError:
            raise UsageError(f"unknown relation {name!r}") from None

    @property
    def names(self) -> list[str]:
        return list(self._by_name)

    def group(self, group: str) -> list[KnowledgeRelation]:
        """Relations in ``group``, in registration order."""
        return [r for r in self._by_name.values() if r.group == group]

    def verbalize_name(self, relation: str, head: str, tail: str | None = None,
                       index: int | None = None) -> str:
        """Verbalize by relation name, falling back to the default template
        for names that are not registered."""
        rel = self._by_name.get(relation)
        if rel is None:
            rel = KnowledgeRelation(relation)
        return rel.verbalize(head, tail=tail, index=index)


def _call_verbalizer(fn: Verbalizer, head: str, tail: str | None,
                     index: int | None) -> tuple[str, bool]:
    """Call ``fn`` with whichever of tail/index it accepts.

    Returns (fragment, tail_consumed): the tail counts as consumed only
    when the function declares an explicit ``tail`` parameter.
    """
    explicit: set[str] = set()
    var_kwargs = False
    try:
        for p in inspect.signature(fn).parameters.values():
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY):
                explicit.add(p.name)
            elif p.kind == p.VAR_KEYWORD:
                var_kwargs = True
    except (TypeError, ValueError):
        var_kwargs = True
    kwargs = {}
    if var_kwargs or "tail" in explicit:
        kwargs["tail"] = tail
    if var_kwargs or "index" in explicit:
        kwargs["index"] = index
    return fn(head, **kwargs), "tail" in explicit


def register_relation(registry: RelationRegistry, rel: KnowledgeRelation) -> RelationRegistry:
    """Add ``rel`` to ``registry``; duplicate names raise ConflictError."""
    return registry.register(rel)


# The ATOMIC2020 inventory with its physical / social / event grouping.
_ATOMIC2020 = {
    PHYSICAL: ["ObjectUse", "AtLocation", "MadeUpOf", "HasProperty",
               "CapableOf", "Desires", "NotDesires"],
    SOCIAL: ["xIntent", "xNeed", "xAttr", "xEffect", "xReact", "xWant",
             "oEffect", "oReact", "oWant"],
    EVENT: ["isAfter", "isBefore", "isFilledBy", "HasSubEvent",
            "HinderedBy", "Causes", "xReason"],
}

# ConceptNet relation names folded into the physical group. UsedFor and
# MadeOf mirror ATOMIC2020 relations under their ConceptNet names; the
# rest have no ATOMIC2020 counterpart.
_CONCEPTNET_PHYSICAL = [
    ("UsedFor", "ObjectUse"),
    ("MadeOf", "MadeUpOf"),
    ("PartOf", None),
    ("HasA", None),
    ("CreatedBy", None),
    ("LocatedNear", None),
    ("ReceivesAction", None),
]

ATOMIC_RELATION_NAMES = tuple(n for names in _ATOMIC2020.values() for n in names)
CONCEPTNET_RELATION_NAMES = tuple(n for n, _ in _CONCEPTNET_PHYSICAL)

def default_registry(include_conceptnet: bool = True) -> RelationRegistry:
    """Fresh registry with the built-in inventory registered."""
    registry = RelationRegistry(KnowledgeRelation(name, group=grp)
                                for grp, names in _ATOMIC2020.items() for name in names)
    if include_conceptnet:
        for name, alias in _CONCEPTNET_PHYSICAL:
            registry.register(KnowledgeRelation(name, group=PHYSICAL, alias_of=alias))
    return registry


def load_relations_config(path) -> list[KnowledgeRelation]:
    """Load custom relation definitions from a JSON config file.

    The file holds a list of objects with ``name``, optional ``group``
    (default ``custom``), optional ``instruction``, and optional
    ``template`` with ``{head}``/``{tail}``/``{index}`` placeholders.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(raw, dict):
        raw = raw.get("relations", [])
    if not isinstance(raw, list):
        raise ValidationError("relation config must hold a list of relations, "
                              "or an object with one under 'relations'")
    rels = []
    for entry in raw:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ValidationError("relation config entry must be an object with a string 'name'")
        for key in ("group", "template", "instruction"):
            if entry.get(key) is not None and not isinstance(entry[key], str):
                raise ValidationError(f"relation config entry's {key!r} must be a string")
        rels.append(KnowledgeRelation(
            name=entry["name"],
            group=entry.get("group", CUSTOM),
            template=entry.get("template"),
            instruction=entry.get("instruction"),
        ))
    return rels


def build_few_shot_prompt(rel: KnowledgeRelation, samples: KnowledgeGraph,
                          query_head: KnowledgeHead) -> str:
    """Assemble the few-shot prompt: instruction line, one verbalized line
    per sample (1-based index, first tail), then the query head verbalized
    with the next index and no tail.

    Every sample must use ``rel`` and carry at least one tail.
    """
    sample_list = list(samples)
    if not sample_list:
        raise ValidationError("few-shot prompt requires at least one sample tuple")
    lines: list[str] = []
    if rel.instruction:
        lines.append(rel.instruction)
    for i, sample in enumerate(sample_list, start=1):
        if sample.relation != rel.name:
            raise ValidationError(
                f"sample {i} uses relation {sample.relation!r}, expected {rel.name!r}")
        if not sample.tails:
            raise ValidationError(f"sample {i} has no tail")
        lines.append(rel.verbalize(sample.head.text, tail=sample.tails[0], index=i))
    lines.append(rel.verbalize(query_head.text, tail=None, index=len(sample_list) + 1))
    return "\n".join(lines)
