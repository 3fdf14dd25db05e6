"""Labeled head datasets for training and evaluating relation matchers.

An example pairs a head text with the subset of relation groups
(physical / social / event) it is connected to; multi-label by nature.
File format: jsonl records ``{"head": str, "labels": [group, ...]}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.relations import GROUPS
from ..errors import ParseError, ValidationError


@dataclass(frozen=True)
class LabeledHead:
    head: str
    labels: frozenset[str]

    def __post_init__(self):
        if not self.head.strip():
            raise ValidationError("head text must be non-empty")
        unknown = self.labels - set(GROUPS)
        if unknown:
            raise ValidationError(f"unknown relation groups {sorted(unknown)}")
        if not self.labels:
            raise ValidationError("labeled example needs at least one group")

    def label_vector(self) -> list[float]:
        """Multi-hot vector in fixed (physical, social, event) order."""
        return [1.0 if g in self.labels else 0.0 for g in GROUPS]


class MatcherDataset:
    """Ordered collection of labeled heads with unique head texts."""

    def __init__(self, examples: Iterable[LabeledHead] = ()):
        self.examples: list[LabeledHead] = []
        self._seen: set[str] = set()
        for ex in examples:
            self.add(ex)

    def add(self, ex: LabeledHead) -> None:
        if ex.head in self._seen:
            raise ValidationError(f"duplicate head text {ex.head!r}")
        self._seen.add(ex.head)
        self.examples.append(ex)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[LabeledHead]:
        return iter(self.examples)

    def __getitem__(self, i):
        return self.examples[i]

    def group_counts(self) -> dict[str, int]:
        counts = {g: 0 for g in GROUPS}
        for ex in self.examples:
            for g in ex.labels:
                counts[g] += 1
        return counts

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Iterable[str]]]) -> "MatcherDataset":
        return cls(LabeledHead(h, frozenset(labels)) for h, labels in pairs)

    @classmethod
    def from_jsonl(cls, path) -> "MatcherDataset":
        ds = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValidationError("record is not a JSON object")
                    head, labels = record["head"], record["labels"]
                    if not isinstance(head, str):
                        raise ValidationError("'head' must be a string")
                    if not (isinstance(labels, list) and all(isinstance(g, str) for g in labels)):
                        raise ValidationError("'labels' must be a list of strings")
                    ds.add(LabeledHead(head, frozenset(labels)))
                except json.JSONDecodeError as e:
                    raise ParseError(f"invalid JSON: {e.msg}", line=lineno) from e
                except KeyError as e:
                    raise ParseError(f"missing key {e.args[0]!r}", line=lineno) from e
                except ValidationError as e:
                    raise ParseError(str(e), line=lineno) from e
        return ds

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for ex in self.examples:
                record = {"head": ex.head,
                          "labels": [g for g in GROUPS if g in ex.labels]}
                fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
