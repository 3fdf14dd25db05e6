"""Word embedding tables: text-format loading and mean pooling.

File format: UTF-8, one line per word, ``word v1 ... vd``. A single
space separates the word and each value; repeated and trailing spaces
are ignored, a tab is not a separator. Blank lines are skipped and CRLF
line endings are accepted. Every row has as many values as the first,
each read exactly as Python's ``float()`` reads it. A repeated word
keeps its first row. Malformed rows raise :class:`ParseError` with
their line number; a missing or unreadable file raises
:class:`UsageError`.

Loading parses the values of each block of ``BLOCK_ROWS`` lines with one
``np.loadtxt`` call, and falls back to one ``float()`` per value for a
block that call does not read exactly as ``float()`` would. Every load
parses the whole file; callers that need the table more than once keep
the loaded table.

Pooling a text averages the vectors of its in-vocabulary tokens; unknown
words are left out of the mean, and a text with no known token pools to
the zero vector. :meth:`EmbeddingTable.pool_many` pools many texts at
once: it groups the texts by their number of known tokens, and pools
each group with one gather into a ``(texts, tokens, dim)`` block, one sum
over its token axis and one division by the count. Without padding, numpy
sums every row in the order it uses for a single text's
``matrix[rows].mean(axis=0)``, so each pooled row is bit-identical to
pooling its text alone; :meth:`EmbeddingTable.pool` is ``pool_many`` of
one text.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ParseError, UsageError, not_utf8
from ..tokenization import word_tokens

BLOCK_ROWS = 4096  # rows per np.loadtxt call
# np.loadtxt strips these around a value as whitespace; float() rejects them
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


class EmbeddingTable:
    def __init__(self, vocab: Mapping[str, int], matrix: np.ndarray):
        self.vocab = dict(vocab)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or len(self.vocab) != self.matrix.shape[0]:
            raise ValueError("vocab size and matrix rows must match")

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def vocab_hash(self) -> str:
        """Stable fingerprint of the vocabulary and dimension, used to bind
        persisted matcher models to their embedding file."""
        h = hashlib.sha256()
        h.update(str(self.dim).encode())
        for word in sorted(self.vocab):
            h.update(b"\x00")
            h.update(word.encode("utf-8"))
        return h.hexdigest()

    def pool(self, text: str) -> np.ndarray:
        """Mean of in-vocabulary token vectors; zero vector if none."""
        return self.pool_many([text])[0]

    def pool_many(self, texts: Sequence[str]) -> np.ndarray:
        """Pooled vectors of ``texts``, one row per text, in order."""
        rows = [[self.vocab[t] for t in word_tokens(text) if t in self.vocab]
                for text in texts]
        pooled = np.zeros((len(rows), self.dim), dtype=np.float64)
        by_count: dict[int, list[int]] = {}
        for i, r in enumerate(rows):
            if r:
                by_count.setdefault(len(r), []).append(i)
        # no padding: at dim 1 numpy sums pairwise, so padding would change the sum
        for count, members in by_count.items():
            index = np.array([rows[i] for i in members], dtype=np.intp)
            pooled[members] = self.matrix[index].sum(axis=1) / count
        return pooled

    @classmethod
    def from_mapping(cls, vectors: Mapping[str, Iterable[float]]) -> "EmbeddingTable":
        vocab = {w: i for i, w in enumerate(vectors)}
        matrix = np.array([list(v) for v in vectors.values()], dtype=np.float64)
        return cls(vocab, matrix)

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        vocab: dict[str, int] = {}
        blocks: list[np.ndarray] = []
        dim = None
        lineno = 0
        try:
            with open(path, "r", encoding="utf-8") as fh:
                while lines := list(islice(fh, BLOCK_ROWS)):
                    words, values = _parse_block(lines, lineno, dim)
                    lineno += len(lines)
                    if not words:
                        continue
                    dim = values.shape[1]
                    keep = []
                    for i, word in enumerate(words):
                        if word not in vocab:  # first occurrence wins
                            vocab[word] = len(vocab)
                            keep.append(i)
                    blocks.append(values if len(keep) == len(words) else values[keep])
        except OSError as e:
            raise UsageError(f"cannot read embeddings file {path}: {e.strerror or e}") from e
        except UnicodeDecodeError as e:
            raise not_utf8(path, e) from e
        if not vocab:
            raise ParseError("embedding file is empty", line=1)
        return cls(vocab, np.concatenate(blocks))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for word, idx in self.vocab.items():
                values = " ".join(repr(float(x)) for x in self.matrix[idx])
                fh.write(f"{word} {values}\n")


def _parse_block(lines: list[str], lineno: int, dim: int | None
                 ) -> tuple[list[str], np.ndarray]:
    """Words and values of ``lines``, which follow line ``lineno``.

    One ``np.loadtxt`` call parses the values of the whole block. When a
    row is not plainly ``word v1 ... vd``, or the call fails or finds
    another width, the block goes through :func:`_parse_lines`, which
    decides what is accepted and raises the errors.
    """
    words, rows = [], []
    for line in lines:
        word, _, rest = line.partition(" ")
        words.append(word)
        rows.append(rest.rstrip(" \n"))
    text = "".join(rows)
    if all(words) and all(rows) and not any(c in text for c in _LOADTXT_ONLY_SPACES):
        try:
            values = np.loadtxt(rows, dtype=np.float64, delimiter=" ", comments=None,
                                ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape[0] == len(rows) and dim in (None, values.shape[1]):
                return words, values
    return _parse_lines(lines, lineno, dim)


def _parse_lines(lines: list[str], lineno: int, dim: int | None
                 ) -> tuple[list[str], np.ndarray]:
    """Words and values of ``lines``, which follow line ``lineno``, read
    one line and one ``float()`` per value at a time. This parser defines
    what the file format accepts and raises every :class:`ParseError`."""
    words, rows = [], []
    for lineno, line in enumerate(lines, lineno + 1):
        parts = line.rstrip("\n").split(" ")
        if len(parts) < 2 or not parts[0]:
            if not line.strip():
                continue
            raise ParseError("expected 'word v1 ... vd'", line=lineno)
        try:
            vec = [float(x) for x in parts[1:] if x]
        except ValueError as e:
            raise ParseError(f"bad float: {e}", line=lineno) from e
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ParseError(f"expected {dim} values, got {len(vec)}", line=lineno)
        words.append(parts[0])
        rows.append(vec)
    return words, np.array(rows, dtype=np.float64).reshape(len(rows), dim or 0)
