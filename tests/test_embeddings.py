"""The embedding text-file loader: its accepted format, its errors and
save/load round trips.

The contract tests compare ``EmbeddingTable.load`` with
``reference_load``, a plain line-by-line parser kept here as the oracle
for the file format. Every odd row is placed on line 1 and again deep
in the file, so that both the first rows and later blocks of the loader
are checked.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from textkg.errors import ParseError, UsageError
from textkg.matching import embeddings
from textkg.matching.embeddings import EmbeddingTable

N_LINES = 6000
ODD_LINES = (1, 5000)


def reference_load(path):
    """One line at a time, one ``float()`` per value."""
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2 or not parts[0]:
                if not line.strip():
                    continue
                raise ParseError("expected 'word v1 ... vd'", line=lineno)
            try:
                vec = np.array([float(x) for x in parts[1:] if x], dtype=np.float64)
            except ValueError as e:
                raise ParseError(f"bad float: {e}", line=lineno) from e
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(f"expected {dim} values, got {vec.size}", line=lineno)
            word = parts[0]
            if word in vocab:
                continue  # first occurrence wins
            vocab[word] = len(rows)
            rows.append(vec)
    if not rows:
        raise ParseError("embedding file is empty", line=1)
    return vocab, np.vstack(rows)


def filler(i: int) -> str:
    return f"w{i} {(i % 1999 - 999) / 1000:.3f} {i / 7!r} -{i}e-3\n"


def outcome(load, path):
    try:
        vocab, matrix = load(path)
    except ParseError as e:
        return "error", str(e), e.line
    return "ok", vocab, matrix.shape, matrix.tobytes()


def table_load(path):
    table = EmbeddingTable.load(path)
    return table.vocab, table.matrix


# odd rows among three-value filler rows
ODD_ROWS = {
    "bad float": "odd 1.0 x 3.0\n",
    "wrong dimension": "odd 1.0 2.0\n",
    "too many values": "odd 1.0 2.0 3.0 4.0\n",
    "word-only row": "odd\n",
    "word and a space": "odd \n",
    "leading space": " odd 1.0 2.0 3.0\n",
    "leading space before values": " 1.0 2.0 3.0\n",
    "tab separator": "odd\t1.0\t2.0\t3.0\n",
    "tab between values": "odd 1.0\t2.0 3.0\n",
    "tab padding": "odd 1.0\t 2.0 3.0\n",
    "blank line": "\n",
    "spaces-only line": "   \n",
    "CRLF line ending": "odd 1.0 2.0 3.0\r\n",
    "lone CR": "odd 1.0\r2.0 3.0\n",
    "doubled spaces": "odd  1.0  2.0 3.0\n",
    "trailing spaces": "odd 1.0 2.0 3.0  \n",
    "duplicate word": "w2 9.0 9.0 9.0\n",
    "duplicate word with bad row": "w2 9.0 9.0\n",
    "underscore in number": "odd 1_0 2.5 3.0\n",
    "nan": "odd nan -nan NaN\n",
    "infinity": "odd -Infinity inf +inf\n",
    "overflow and underflow": "odd 1e400 -1e400 1e-400\n",
    "subnormal": "odd 5e-324 -2.2250738585072014e-308 0.1\n",
    "hex": "odd 0x10 1.0 2.0\n",
    "d exponent": "odd 1d3 1.0 2.0\n",
    "information separator": "odd \x1c1.0 2.0 3.0\n",
    "unit separator": "odd 1.0\x1f 2.0 3.0\n",
    "form feed padding": "odd 1.0\x0c 2.0 3.0\n",
    "no-break space padding": "odd 1.0\xa0 2.0 3.0\n",
    "non-ASCII digits": "odd ١٢ 2.0 3.0\n",
    "NUL in value": "odd 1\x002 2.0 3.0\n",
    "comment sign": "#odd 1.0 2.0 #3\n",
    "quoted value": 'odd "1.0" 2.0 3.0\n',
    "non-ASCII word": "café x 1.0 2.0 3.0\n",
}


def write_with_odd_row(path, odd: str, at: int) -> None:
    lines = [filler(i) for i in range(N_LINES - 1)]
    lines.insert(at - 1, odd)
    path.write_bytes("".join(lines).encode("utf-8"))


@pytest.mark.parametrize("at", ODD_LINES)
@pytest.mark.parametrize("name", sorted(ODD_ROWS))
def test_odd_row_loads_like_reference(tmp_path, name, at):
    path = tmp_path / "emb.txt"
    write_with_odd_row(path, ODD_ROWS[name], at)
    assert outcome(table_load, path) == outcome(reference_load, path)


WHOLE_FILES = {
    "empty file": "",
    "blank lines only": "\n\n  \n\r\n",
    "CRLF throughout": "".join(filler(i) for i in range(N_LINES)).replace("\n", "\r\n"),
    "no final newline": "".join(filler(i) for i in range(N_LINES)).rstrip("\n"),
    "blank lines throughout": "".join(filler(i) + "\n" for i in range(N_LINES)),
    "byte-order mark": "\ufeff" + "".join(filler(i) for i in range(10)),
    "one value per row": "".join(f"w{i} {i}\n" for i in range(N_LINES)),
    "no values at all": "".join(f"w{i} \n" for i in range(10)),
    "width changes at a block boundary": "".join(
        filler(i) if i < embeddings.BLOCK_ROWS else f"w{i} 1.0 2.0\n" for i in range(N_LINES)),
}


@pytest.mark.parametrize("name", sorted(WHOLE_FILES))
def test_whole_file_loads_like_reference(tmp_path, name):
    path = tmp_path / "emb.txt"
    path.write_bytes(WHOLE_FILES[name].encode("utf-8"))
    assert outcome(table_load, path) == outcome(reference_load, path)


def test_format_examples(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"a 1_0 nan -Infinity\r\n\nb  2.5 1e400 -0.0 \na 7 7 7\n")
    table = EmbeddingTable.load(path)
    assert table.vocab == {"a": 0, "b": 1}  # first occurrence wins
    assert table.matrix[0, 0] == 10.0 and np.isnan(table.matrix[0, 1])
    assert table.matrix[0, 2] == -np.inf
    assert table.matrix[1].tolist() == [2.5, np.inf, -0.0]
    assert np.signbit(table.matrix[1, 2])

    for value in ("0x10", "1d3"):
        path.write_text(f"a 1 2\nb 3 {value}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            EmbeddingTable.load(path)
        assert str(err.value) == (
            f"line 2: bad float: could not convert string to float: '{value}'")
        assert err.value.line == 2


def test_missing_file_is_usage_error(tmp_path):
    path = tmp_path / "missing.txt"
    with pytest.raises(UsageError) as err:
        EmbeddingTable.load(path)
    assert not isinstance(err.value, ParseError)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("at", ODD_LINES)
def test_invalid_utf8_names_its_line(tmp_path, at):
    path = tmp_path / "emb.txt"
    lines = [filler(i).encode("utf-8") for i in range(N_LINES - 1)]
    lines.insert(at - 1, b"caf\xe9 1.0 2.0 3.0\n")
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as err:
        EmbeddingTable.load(path)
    assert err.value.line == at
    assert "UTF-8" in str(err.value)


def test_odd_rows_lie_beyond_the_first_block():
    assert embeddings.BLOCK_ROWS < ODD_LINES[1] < N_LINES


# words without whitespace (which ends a word) or surrogates (not UTF-8)
WORDS = st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                min_size=1, max_size=8)


@settings(max_examples=30, deadline=None)
@given(words=st.lists(WORDS, min_size=1, max_size=12, unique=True),
       rows=st.sampled_from([1, 2, 7, embeddings.BLOCK_ROWS - 1, embeddings.BLOCK_ROWS,
                             embeddings.BLOCK_ROWS + 1, 2 * embeddings.BLOCK_ROWS + 3]),
       data=st.data())
def test_save_load_round_trip(tmp_path_factory, words, rows, data):
    dim = data.draw(st.integers(1, 4))
    matrix = data.draw(arrays(np.float64, (rows, dim),
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    # past the drawn words, numbered copies keep the vocabulary unique
    vocab = {(w if i < len(words) else f"{w}\x00{i}"): i
             for i, w in ((i, words[i % len(words)]) for i in range(rows))}
    table = EmbeddingTable(vocab, matrix)
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    table.save(path)
    again = EmbeddingTable.load(path)
    assert again.vocab == table.vocab
    assert again.matrix.tobytes() == table.matrix.tobytes()
