"""Deterministic synthetic inputs, drawn from the tagger's embedded lexicon.

Every generator takes a ``random.Random`` or a seed, so the same seed
gives byte-identical inputs. Nothing here is timed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from textkg.core.relations import GROUPS, default_registry
from textkg.extraction.heads import extract_heads
from textkg.extraction.lexicon import (
    ADJ,
    AUX_LEMMAS,
    IRREGULAR_VERB_LEMMA,
    LEXICON,
    NOUN,
    VERB_LEMMAS,
)
from textkg.matching.evaluate import heuristic_group_predictor

_NOUNS = sorted(w for w, tag in LEXICON.items() if tag == NOUN)
_ADJS = sorted(w for w, tag in LEXICON.items() if tag == ADJ)
_VERBS = sorted(VERB_LEMMAS - AUX_LEMMAS)
_PAST = sorted(IRREGULAR_VERB_LEMMA)
_SUBJECTS = ("PersonX", "PersonY", "PersonZ")
_PREPS = ("in", "at", "with", "near", "under", "behind", "for")
_DETS = ("the", "a", "this", "every", "some")


def _third_person(verb: str) -> str:
    if verb.endswith(("s", "sh", "ch", "x", "z", "o")):
        return verb + "es"
    if verb.endswith("y") and verb[-2:-1] not in "aeiou":
        return verb[:-1] + "ies"
    return verb + "s"


def sentence(rnd: random.Random) -> str:
    """One declarative sentence from one of five templates."""
    subj = rnd.choice(_SUBJECTS) if rnd.random() < 0.6 else f"The {rnd.choice(_NOUNS)}"
    det, adj, noun = rnd.choice(_DETS), rnd.choice(_ADJS), rnd.choice(_NOUNS)
    kind = rnd.randrange(5)
    if kind == 0:
        return f"{subj} {_third_person(rnd.choice(_VERBS))} {det} {adj} {noun}."
    if kind == 1:
        return (f"{subj} {rnd.choice(_PAST)} {det} {noun} {rnd.choice(_PREPS)} "
                f"the {rnd.choice(_ADJS)} {rnd.choice(_NOUNS)}.")
    if kind == 2:
        return f"{subj} wants to {rnd.choice(_VERBS)} {det} {adj} {noun}."
    if kind == 3:
        return (f"{subj} {_third_person(rnd.choice(_VERBS))} the {noun} and "
                f"{_third_person(rnd.choice(_VERBS))} {det} {rnd.choice(_NOUNS)}.")
    return f"{subj} {rnd.choice(_PAST)} {det} {adj} {noun} {rnd.choice(_PREPS)} {rnd.choice(_NOUNS)}."


def corpus(seed: int, n_texts: int, sentences: tuple[int, int], bank_size: int,
           repeat_share: float) -> list[str]:
    """``n_texts`` texts of ``sentences[0]..sentences[1]`` sentences each.

    A sentence is drawn from a shared bank of ``bank_size`` sentences with
    probability ``repeat_share`` (so it recurs across texts) and is fresh
    otherwise.
    """
    rnd = random.Random(seed)
    bank = [sentence(rnd) for _ in range(bank_size)]
    texts = []
    for _ in range(n_texts):
        k = rnd.randint(*sentences)
        texts.append(" ".join(rnd.choice(bank) if rnd.random() < repeat_share
                              else sentence(rnd) for _ in range(k)))
    return texts


def vocabulary(n_words: int) -> list[str]:
    """Every lexicon word and inflected form the corpus uses, padded with
    filler words to ``n_words`` (GloVe-like: most of the file is never hit)."""
    words = dict.fromkeys(w.lower() for w in _SUBJECTS)
    words.update(dict.fromkeys(LEXICON))
    words.update(dict.fromkeys(_third_person(v) for v in _VERBS))
    words = list(words)[:n_words]
    words += [f"zz{i}" for i in range(n_words - len(words))]
    return words


def write_embeddings(path: Path, words: list[str], dim: int, seed: int) -> None:
    """GloVe-format text file; values have three decimals so the file
    parses back to exactly the generated matrix."""
    rng = np.random.default_rng(seed)
    steps = np.array([f"{k / 1000:.3f}" for k in range(-999, 1000)])
    with open(path, "w", encoding="utf-8") as fh:
        # in blocks, so that making the file does not set the peak RSS
        for start in range(0, len(words), 10_000):
            block = words[start:start + 10_000]
            codes = np.clip(rng.normal(0.0, 300.0, size=(len(block), dim)), -999, 999)
            for word, row in zip(block, codes.astype(int) + 999):
                fh.write(word + " " + " ".join(steps[row]) + "\n")


def matcher_examples(texts: list[str]) -> list[dict]:
    """Unique heads found in ``texts``, labelled by the heuristic matcher;
    the trained model then learns to imitate it."""
    seen: dict[str, dict] = {}
    for text in texts:
        for found in extract_heads(text):
            head = found.head.text
            if head not in seen:
                labels = heuristic_group_predictor(head)
                seen[head] = {"head": head, "labels": [g for g in GROUPS if g in labels]}
    return list(seen.values())


def labelled_pool(seed: int, n_heads: int, vocab_size: int) -> tuple[list[dict], list[str]]:
    """``n_heads`` unique heads of 2-4 Zipf-distributed words, each with the
    heuristic group and, for a fifth of them, one more random group.
    Returns the records and the words used."""
    rnd = random.Random(seed)
    base = sorted(set(_NOUNS + _ADJS + _VERBS))
    words = base + [f"qq{i}" for i in range(max(0, vocab_size - len(base)))]
    rnd.shuffle(words)
    weights = [1.0 / (rank + 1) for rank in range(len(words))]
    records, seen = [], set()
    while len(records) < n_heads:
        head = " ".join(rnd.choices(words, weights, k=rnd.randint(2, 4)))
        if head in seen:
            continue
        seen.add(head)
        labels = set(heuristic_group_predictor(head))
        if rnd.random() < 0.2:
            labels.add(rnd.choice(GROUPS))
        records.append({"head": head, "labels": [g for g in GROUPS if g in labels]})
    return records, words


def reference_graph(seed: int, n_tuples: int, n_refs: int) -> list[dict]:
    """``n_tuples`` (head, relation) pairs with ``n_refs`` reference tails,
    each a short ``to <verb> the <noun>`` phrase that reuses head words
    now and then, so every metric sees partial overlap."""
    rnd = random.Random(seed)
    relations = default_registry().names
    records = []
    for _ in range(n_tuples):
        head = sentence(rnd).rstrip(".")
        tails = []
        for _ in range(n_refs):
            noun = rnd.choice(head.split()) if rnd.random() < 0.3 else rnd.choice(_NOUNS)
            tails.append(f"to {rnd.choice(_VERBS)} the {rnd.choice(_ADJS)} {noun.lower()}")
        records.append({"head": head, "relation": rnd.choice(relations),
                        "tails": tails})
    return records


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
