import gc
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textkg.core.knowledge import (
    KnowledgeGraph,
    KnowledgeHead,
    KnowledgeTuple,
    ParseOptions,
    graph_set_op,
    parse_graph,
    serialize_graph,
)
from textkg.errors import ParseError, UsageError, ValidationError

# small alphabets force collisions so set semantics actually gets exercised
heads = st.sampled_from(["h1", "h2", "h3"])
relations = st.sampled_from(["r1", "r2"])
tails = st.lists(st.sampled_from(["t1", "t2", "t3"]), max_size=3)
tuples = st.builds(KnowledgeTuple, heads, relations, tails)
graphs = st.builds(KnowledgeGraph, st.lists(tuples, max_size=8))


def test_head_requires_text():
    with pytest.raises(ValidationError):
        KnowledgeHead("   ")


def test_tuple_requires_relation():
    with pytest.raises(ValidationError):
        KnowledgeTuple("h", "")


def test_tuple_equality_ignores_tail_order():
    a = KnowledgeTuple("h", "r", ["t1", "t2"])
    b = KnowledgeTuple("h", "r", ["t2", "t1"])
    assert a == b
    assert hash(a) == hash(b)


def test_tuple_equality_is_exact_on_strings():
    assert KnowledgeTuple("h", "r", ["t"]) != KnowledgeTuple("H", "r", ["t"])
    assert KnowledgeTuple("h", "r", ["t"]) != KnowledgeTuple("h", "r", ["T"])


@given(tuples, tuples, tuples)
def test_tuple_equality_laws(a, b, c):
    assert a == a
    if a == b:
        assert b == a
    if a == b and b == c:
        assert a == c


def test_union_with_empty_is_dedup_identity():
    g = KnowledgeGraph([KnowledgeTuple("h", "r", ["t"]),
                        KnowledgeTuple("h", "r", ["t"])])
    out = graph_set_op("union", g, KnowledgeGraph())
    assert out.tuples == [KnowledgeTuple("h", "r", ["t"])]


def test_difference_with_self_is_empty():
    g = KnowledgeGraph([KnowledgeTuple("h", "r", ["t"]), KnowledgeTuple("h2", "r", [])])
    assert len(graph_set_op("difference", g, g)) == 0


def test_intersection_forced_by_equality():
    a = KnowledgeGraph([KnowledgeTuple("h", "r", ["t1"])])
    b = KnowledgeGraph([KnowledgeTuple("h", "r", ["t1"]), KnowledgeTuple("h", "r", ["t2"])])
    out = graph_set_op("intersection", a, b)
    assert out.tuples == [KnowledgeTuple("h", "r", ["t1"])]


def test_union_order_first_operand_then_second():
    a = KnowledgeGraph([KnowledgeTuple("h1", "r1"), KnowledgeTuple("h2", "r1")])
    b = KnowledgeGraph([KnowledgeTuple("h3", "r1"), KnowledgeTuple("h1", "r1")])
    out = a + b
    assert [t.head.text for t in out] == ["h1", "h2", "h3"]


def test_operator_sugar_matches_functions():
    a = KnowledgeGraph([KnowledgeTuple("h1", "r1"), KnowledgeTuple("h2", "r1")])
    b = KnowledgeGraph([KnowledgeTuple("h2", "r1")])
    assert (a & b).tuples == graph_set_op("intersection", a, b).tuples
    assert (a - b).tuples == graph_set_op("difference", a, b).tuples


@settings(max_examples=200)
@given(graphs, graphs)
def test_set_algebra_laws(a, b):
    assert (a + a).tuples == a.deduplicated().tuples
    assert (a & a).tuples == a.deduplicated().tuples
    assert len(a - a) == 0
    inter = set((a & b).tuples)
    assert inter <= set(a.tuples)
    union = set((a + b).tuples)
    assert union >= set(a.tuples) and union >= set(b.tuples)
    # results are duplicate-free
    for g in (a + b, a & b, a - b):
        assert len(g.tuples) == len(set(g.tuples))


def test_parse_csv_pipe_separated():
    data = b"PersonX plays piano|xNeed|to practice\n"
    g = parse_graph(data, "csv", ParseOptions(sep="|"))
    assert g.tuples == [KnowledgeTuple("PersonX plays piano", "xNeed", ["to practice"])]


def test_parse_csv_multi_tail_and_missing_tail():
    data = b"h|r|t1|t2\nh2|r2\n"
    g = parse_graph(data, "csv", ParseOptions(sep="|"))
    assert g[0].tails == ["t1", "t2"]
    assert g[1].tails == []


def test_parse_csv_header_and_column_order():
    data = b"rel|source\nxNeed|PersonX plays piano\n"
    opts = ParseOptions(sep="|", header=True, columns=("relation", "head"))
    g = parse_graph(data, "csv", opts)
    assert g[0].head.text == "PersonX plays piano"
    assert g[0].relation == "xNeed"


def test_parse_jsonl_key_mapping():
    line = json.dumps({"source": "s", "rel": "xNeed", "targets": ["t"]})
    opts = ParseOptions(head_key="source", relation_key="rel", tails_key="targets")
    g = parse_graph(line.encode() + b"\n", "jsonl", opts)
    assert g.tuples == [KnowledgeTuple("s", "xNeed", ["t"])]


def test_parse_jsonl_missing_tails_defaults_empty():
    g = parse_graph(b'{"head":"h","relation":"r"}\n', "jsonl", ParseOptions())
    assert g[0].tails == []


def test_parse_empty_file_yields_empty_graph():
    assert len(parse_graph(b"", "csv", ParseOptions())) == 0
    assert len(parse_graph(b"", "jsonl", ParseOptions())) == 0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph(b'{"head":"h","relation":"r"}\n{bad json\n', "jsonl", ParseOptions())
    with pytest.raises(ParseError, match="line 1"):
        parse_graph(b'{"relation":"r"}\n', "jsonl", ParseOptions())
    with pytest.raises(ParseError, match="line 2"):
        parse_graph(b"h|r\nonlyonecolumn\n", "csv", ParseOptions(sep="|"))


def test_unknown_format_is_usage_error():
    with pytest.raises(UsageError):
        parse_graph(b"", "xml", ParseOptions())
    with pytest.raises(UsageError):
        serialize_graph(KnowledgeGraph(), "xml", ParseOptions())


def test_canonical_jsonl_bytes():
    g = KnowledgeGraph([KnowledgeTuple("h", "r", ["t1", "t2"])])
    assert serialize_graph(g, "jsonl") == b'{"head":"h","relation":"r","tails":["t1","t2"]}\n'


def test_serialize_empty_graph():
    assert serialize_graph(KnowledgeGraph(), "jsonl") == b""
    assert serialize_graph(KnowledgeGraph(), "csv") == b""


@settings(max_examples=200)
@given(graphs)
def test_round_trip_identity_both_formats(g):
    for fmt in ("jsonl", "csv"):
        opts = ParseOptions(sep="|") if fmt == "csv" else ParseOptions()
        again = parse_graph(serialize_graph(g, fmt, opts), fmt, opts)
        assert again == g


def test_round_trip_preserves_unicode_and_separator_chars(tmp_path):
    g = KnowledgeGraph([KnowledgeTuple("héad ünïcode", "r", ["tail with | pipe", "naïve"])])
    for fmt in ("jsonl", "csv"):
        opts = ParseOptions(sep="|")
        assert parse_graph(serialize_graph(g, fmt, opts), fmt, opts) == g


def test_file_convenience_round_trip(tmp_path):
    g = KnowledgeGraph([KnowledgeTuple("h", "r", ["t"])])
    p = tmp_path / "g.jsonl"
    g.to_jsonl(p)
    assert KnowledgeGraph.from_jsonl(p) == g
    c = tmp_path / "g.csv"
    g.to_csv(c, sep="|")
    assert KnowledgeGraph.from_csv(c, sep="|") == g


def test_parse_options_validation():
    with pytest.raises(UsageError):
        ParseOptions(sep="||")
    with pytest.raises(UsageError):
        ParseOptions(columns=("head",))
    with pytest.raises(UsageError):
        ParseOptions(columns=("head", "tails", "relation"))


def test_parse_accepts_text_stream():
    g = parse_graph(io.StringIO('{"head":"h","relation":"r","tails":[]}\n'),
                    "jsonl", ParseOptions())
    assert len(g) == 1


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_parse_path_closes_its_file(tmp_path, fmt):
    graph = KnowledgeGraph([KnowledgeTuple("h", "r", ["t"])])
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.write_bytes(serialize_graph(graph, fmt))
    bad.write_bytes(b"{bad json\n" if fmt == "jsonl" else b"onlyonecolumn\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert parse_graph(good, fmt) == graph
        with pytest.raises(ParseError):
            parse_graph(bad, fmt, ParseOptions(sep="|"))
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_parse_leaves_callers_streams_open():
    data = b'{"head":"h","relation":"r"}\n'
    binary, text = io.BytesIO(data), io.StringIO(data.decode())
    assert parse_graph(binary, "jsonl") == parse_graph(text, "jsonl")
    gc.collect()
    assert not binary.closed and not text.closed
