"""Overlap-controlled train/test resplitting and overlap reporting.

A split at level ``n`` guarantees: for every non-stopword token of every
test head, at most ``n`` training heads contain that token. Selection is
greedy rarest-first with round-robin group balancing; deterministic given
the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ..core.relations import GROUPS
from ..errors import InfeasibleSplitError, ValidationError
from ..tokenization import word_tokens
from .dataset import MatcherDataset
from .stopwords import STOPWORDS


@dataclass
class ResplitConfig:
    n: int = 0  # max training occurrences per test non-stopword
    seed: int = 0
    max_test_size: int | None = None  # None: a fifth of the pool

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError("n must be >= 0")

    def target_size(self, pool_size: int) -> int:
        if self.max_test_size is not None:
            return self.max_test_size
        return max(1, pool_size // 5)


@dataclass
class OverlapReport:
    overlap_without_stopwords: float
    overlap_with_stopwords: float
    n_train: int
    n_test: int

    def to_dict(self) -> dict:
        return {
            "overlap_without_stopwords": self.overlap_without_stopwords,
            "overlap_with_stopwords": self.overlap_with_stopwords,
            "n_train": self.n_train,
            "n_test": self.n_test,
        }


def _content_tokens(head: str) -> set[str]:
    return {t for t in word_tokens(head) if t not in STOPWORDS}


def resplit_dataset(pool: MatcherDataset, config: ResplitConfig) -> tuple[MatcherDataset, MatcherDataset]:
    """Split ``pool`` into (train, test) under the hard overlap constraint.

    The pool starts as the training set. Candidates are ranked once by the
    highest training-corpus frequency among their non-stopword tokens
    (rarest first, seed-shuffled ties). Heads are admitted to the test set
    for whichever group currently has the fewest test heads; a head is
    admissible only if, after its own removal from train, each of its
    non-stopword tokens is contained in at most ``n`` training heads.
    Admission stops when the lowest-count group has no admissible head
    left (keeping groups balanced) or ``max_test_size`` is reached.
    """
    if len(pool) == 0:
        raise ValidationError("pool is empty")

    examples = list(pool)
    tokens: list[tuple[str, ...]] = [tuple(_content_tokens(ex.head)) for ex in examples]

    # occurrence count per token over heads still in train
    occ: Counter[str] = Counter()
    for toks in tokens:
        occ.update(toks)
    # most frequent token first so inadmissible heads fail fast
    tokens = [tuple(sorted(toks, key=lambda t: -occ[t])) for toks in tokens]

    rnd = random.Random(config.seed)
    ranked = list(range(len(examples)))
    rnd.shuffle(ranked)
    rarity = [max((occ[t] for t in toks), default=0) for toks in tokens]
    ranked.sort(key=lambda i: rarity[i])

    per_group: dict[str, list[int]] = {g: [] for g in GROUPS}
    for i in ranked:
        for g in examples[i].labels:
            per_group[g].append(i)

    in_test: set[int] = set()
    test_counts = {g: 0 for g in GROUPS}
    # groups with no labeled examples at all cannot be balanced against
    active_groups = [g for g in GROUPS if per_group[g]]
    if not active_groups:
        raise InfeasibleSplitError("pool has no labeled examples")

    def admissible(i: int) -> bool:
        return all(occ[t] - 1 <= config.n for t in tokens[i])

    def admit(i: int) -> None:
        in_test.add(i)
        for t in tokens[i]:
            occ[t] -= 1
        for g in examples[i].labels:
            test_counts[g] += 1

    target = config.target_size(len(examples))
    while True:
        if len(in_test) >= target:
            break
        group = min(active_groups, key=lambda g: (test_counts[g], GROUPS.index(g)))
        chosen = None
        for i in per_group[group]:
            if i not in in_test and admissible(i):
                chosen = i
                break
        if chosen is None:
            break  # lowest-count group exhausted; stop to preserve balance
        admit(chosen)

    if not in_test:
        raise InfeasibleSplitError(
            f"no head satisfies the overlap constraint at n={config.n}")

    train = MatcherDataset(ex for i, ex in enumerate(examples) if i not in in_test)
    test = MatcherDataset(ex for i, ex in enumerate(examples) if i in in_test)
    return train, test


def count_overlap_violations(train: MatcherDataset, test: MatcherDataset, n: int) -> int:
    """Independent brute-force check of the resplit constraint: number of
    (test token, level) violations where a non-stopword token of some test
    head is contained in more than ``n`` training heads. Scans every
    (token, training head) pair directly."""
    violations = 0
    test_tokens = set()
    for ex in test:
        test_tokens.update(_content_tokens(ex.head))
    train_token_sets = [_content_tokens(ex.head) for ex in train]
    for token in test_tokens:
        containing = sum(1 for toks in train_token_sets if token in toks)
        if containing > n:
            violations += 1
    return violations


def compute_overlap(train: MatcherDataset, test: MatcherDataset) -> OverlapReport:
    """Fraction of test heads sharing at least one token with any training
    head, computed with and without stopwords counted."""
    if len(test) == 0:
        raise ValidationError("test set is empty")
    train_all: set[str] = set()
    for ex in train:
        train_all.update(word_tokens(ex.head))
    train_content = train_all - STOPWORDS

    with_sw = 0
    without_sw = 0
    for ex in test:
        toks = set(word_tokens(ex.head))
        if toks & train_all:
            with_sw += 1
        if (toks - STOPWORDS) & train_content:
            without_sw += 1
    n_test = len(test)
    return OverlapReport(
        overlap_without_stopwords=without_sw / n_test,
        overlap_with_stopwords=with_sw / n_test,
        n_train=len(train),
        n_test=n_test,
    )
