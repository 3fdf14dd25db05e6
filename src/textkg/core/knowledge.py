"""Knowledge tuples and graphs: equality semantics, set algebra, file I/O.

A knowledge tuple is one ``(head, relation, tails)`` fact. Two tuples are
equal when their head text, relation name, and tail *set* (order-insensitive,
exact string match) coincide. A knowledge graph is an insertion-ordered
collection of tuples; it may store duplicates, but set-like operations
collapse them under tuple equality.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from ..errors import ParseError, UsageError, ValidationError


@dataclass(frozen=True)
class KnowledgeHead:
    """Surface form of the subject a fact is about."""

    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValidationError("head text must be non-empty")

    def __str__(self) -> str:
        return self.text


class KnowledgeTuple:
    """One (head, relation, tails) fact; the atomic unit of all pipelines."""

    __slots__ = ("head", "relation", "tails")

    def __init__(self, head: Union[KnowledgeHead, str], relation: str, tails: Iterable[str] = ()):
        if isinstance(head, str):
            head = KnowledgeHead(head)
        if not relation:
            raise ValidationError("relation name must be non-empty")
        self.head = head
        self.relation = relation
        self.tails = list(tails)

    def key(self) -> tuple:
        """Equality key: head text, relation, and the tail set."""
        return (self.head.text, self.relation, frozenset(self.tails))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeTuple):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"KnowledgeTuple({self.head.text!r}, {self.relation!r}, {self.tails!r})"

    def with_tails(self, tails: Iterable[str]) -> "KnowledgeTuple":
        return KnowledgeTuple(self.head, self.relation, tails)


@dataclass
class ParseOptions:
    """Options for reading/writing graphs.

    CSV: ``sep`` is the single-character delimiter; ``header`` skips the
    first row; ``columns`` names the leading column roles (``head`` and
    ``relation`` in any order) and every column after them collects into
    the tail list. JSONL: ``head_key``/``relation_key``/``tails_key`` map
    record keys.
    """

    sep: str = ","
    header: bool = False
    columns: tuple[str, ...] = ("head", "relation")
    head_key: str = "head"
    relation_key: str = "relation"
    tails_key: str = "tails"

    def __post_init__(self):
        if len(self.sep) != 1:
            raise UsageError("csv separator must be a single character")
        roles = [c for c in self.columns if c != "tails"]
        if sorted(roles) != ["head", "relation"]:
            raise UsageError("columns must name 'head' and 'relation' exactly once")
        if "tails" in self.columns and self.columns[-1] != "tails":
            raise UsageError("'tails' may only be the last column role")


class KnowledgeGraph:
    """Insertion-ordered collection of knowledge tuples.

    Supports ``+`` (union), ``&`` (intersection), and ``-`` (difference)
    under tuple equality; results are duplicate-free and keep first-operand
    order, with union-only elements following in second-operand order.

    Pipeline stages treat graphs as immutable once handed on, so a graph
    is safe to share across threads for reading; construction and
    mutation are single-writer.
    """

    def __init__(self, tuples: Iterable[KnowledgeTuple] = ()):
        self.tuples = list(tuples)

    def __iter__(self) -> Iterator[KnowledgeTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __getitem__(self, idx):
        return self.tuples[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.tuples == other.tuples

    def __repr__(self) -> str:
        return f"KnowledgeGraph({len(self.tuples)} tuples)"

    def append(self, t: KnowledgeTuple) -> None:
        self.tuples.append(t)

    def deduplicated(self) -> "KnowledgeGraph":
        """Copy with duplicates collapsed, first occurrence wins."""
        return KnowledgeGraph(dict.fromkeys(self.tuples))

    def union(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        return graph_set_op("union", self, other)

    def intersection(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        return graph_set_op("intersection", self, other)

    def difference(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        return graph_set_op("difference", self, other)

    __add__ = union
    __and__ = intersection
    __sub__ = difference

    # -- file conveniences -------------------------------------------------

    @classmethod
    def from_csv(cls, path, sep: str = ",", header: bool = False,
                 columns: tuple[str, ...] = ("head", "relation")) -> "KnowledgeGraph":
        opts = ParseOptions(sep=sep, header=header, columns=columns)
        return parse_graph(path, "csv", opts)

    @classmethod
    def from_jsonl(cls, path, head_attr: str = "head", relation_attr: str = "relation",
                   tails_attr: str = "tails") -> "KnowledgeGraph":
        opts = ParseOptions(head_key=head_attr, relation_key=relation_attr, tails_key=tails_attr)
        return parse_graph(path, "jsonl", opts)

    def to_csv(self, path, sep: str = ",") -> None:
        Path(path).write_bytes(serialize_graph(self, "csv", ParseOptions(sep=sep)))

    def to_jsonl(self, path) -> None:
        Path(path).write_bytes(serialize_graph(self, "jsonl", ParseOptions()))


def graph_set_op(kind: str, a: KnowledgeGraph, b: KnowledgeGraph) -> KnowledgeGraph:
    """Set-semantics union/intersection/difference of two graphs.

    Result order follows first-operand insertion order, then (for union)
    second-operand order for elements only in ``b``. Duplicate-free.
    """
    a_set = dict.fromkeys(a.tuples)
    b_set = set(b.tuples)
    if kind == "union":
        out = list(a_set)
        out.extend(t for t in dict.fromkeys(b.tuples) if t not in a_set)
    elif kind == "intersection":
        out = [t for t in a_set if t in b_set]
    elif kind == "difference":
        out = [t for t in a_set if t not in b_set]
    else:
        raise UsageError(f"unknown set operation {kind!r}")
    return KnowledgeGraph(out)


def parse_graph(source, format: str, options: ParseOptions | None = None) -> KnowledgeGraph:
    """Read a graph from a path, byte string, or open stream.

    One tuple per record; a missing tails field yields an empty tail list.
    Malformed records raise :class:`ParseError` naming the line number.
    A file opened from a path is closed again; a stream the caller passed
    in is left open.
    """
    parse = {"csv": _parse_csv, "jsonl": _parse_jsonl}.get(format)
    if parse is None:
        raise UsageError(f"unknown graph format {format!r}")
    options = options or ParseOptions()
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as stream:
            return parse(stream, options)
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            return parse(stream, options)
        finally:
            stream.detach()  # closing the wrapper would close ``source``
    if hasattr(source, "read"):
        return parse(source, options)  # already a text stream
    raise UsageError(f"cannot read graph from {type(source).__name__}")


def _parse_csv(stream: IO[str], opts: ParseOptions) -> KnowledgeGraph:
    reader = csv.reader(stream, delimiter=opts.sep)
    graph = KnowledgeGraph()
    n_leading = len([c for c in opts.columns if c != "tails"])
    for i, row in enumerate(reader):
        if i == 0 and opts.header:
            continue
        if not row:
            continue
        if len(row) < n_leading:
            raise ParseError(f"expected at least {n_leading} columns, got {len(row)}",
                             line=reader.line_num)
        fields = {}
        for role, value in zip(opts.columns, row):
            if role != "tails":
                fields[role] = value
        tails = row[n_leading:]
        try:
            graph.append(KnowledgeTuple(fields["head"], fields["relation"], tails))
        except ValidationError as e:
            raise ParseError(str(e), line=reader.line_num) from e
    return graph


def _parse_jsonl(stream: IO[str], opts: ParseOptions) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for lineno, line in enumerate(stream, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=lineno) from e
        if not isinstance(record, dict):
            raise ParseError("record is not a JSON object", line=lineno)
        try:
            head = record[opts.head_key]
            relation = record[opts.relation_key]
        except KeyError as e:
            raise ParseError(f"missing key {e.args[0]!r}", line=lineno) from e
        tails = record.get(opts.tails_key) or []
        if isinstance(tails, str):
            tails = [tails]
        if not (isinstance(head, str) and isinstance(relation, str)):
            raise ParseError("head and relation must be strings", line=lineno)
        if not (isinstance(tails, list) and all(isinstance(t, str) for t in tails)):
            raise ParseError("tails must be a string or a list of strings", line=lineno)
        try:
            graph.append(KnowledgeTuple(head, relation, tails))
        except ValidationError as e:
            raise ParseError(str(e), line=lineno) from e
    return graph


def serialize_graph(g: KnowledgeGraph, format: str, options: ParseOptions | None = None) -> bytes:
    """Serialize a graph to bytes; round-trips through :func:`parse_graph`.

    JSONL output is canonical: keys in the fixed order head, relation,
    tails; compact separators; one record per LF-terminated line.
    """
    options = options or ParseOptions()
    if format == "jsonl":
        lines = []
        for t in g:
            record = {"head": t.head.text, "relation": t.relation, "tails": list(t.tails)}
            lines.append(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
        return ("".join(line + "\n" for line in lines)).encode("utf-8")
    if format == "csv":
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, delimiter=options.sep, lineterminator="\n")
        for t in g:
            writer.writerow([t.head.text, t.relation, *t.tails])
        return buf.getvalue().encode("utf-8")
    raise UsageError(f"unknown graph format {format!r}")
