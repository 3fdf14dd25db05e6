import json
from pathlib import Path

import pytest

from textkg.cli import main
from textkg.core.knowledge import KnowledgeGraph, KnowledgeTuple
from textkg.matching.dataset import MatcherDataset

from synthdata import resplit_pool, separable_matcher_corpus

GOLDEN = Path(__file__).parent / "data" / "golden_infer.jsonl"
TEXT = "PersonX becomes a great basketball player"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_heads_command_outputs_json(capsys):
    code, out, _ = run(capsys, "heads", "--text", TEXT)
    assert code == 0
    items = json.loads(out)
    assert {"head": "basketball player", "form": "noun_phrase"} in items
    assert items[0]["form"] == "sentence"


def test_heads_accepts_extractor_aliases(capsys):
    code, out, _ = run(capsys, "heads", "--text", TEXT, "--extractors", "np,vp")
    assert code == 0
    assert all(item["form"] in ("noun_phrase", "verb_phrase") for item in json.loads(out))


def test_infer_dry_run_matches_golden(capsys):
    code, out, _ = run(capsys, "infer", "--text", TEXT, "--dry-run")
    assert code == 0
    assert out.encode() == GOLDEN.read_bytes()


def test_infer_stub_with_explicit_heads(capsys):
    code, out, _ = run(capsys, "infer", "--heads", "X goes running",
                       "--matcher", "base", "--relations", "xNeed")
    assert code == 0
    record = json.loads(out.strip())
    assert record == {"head": "X goes running", "relation": "xNeed",
                      "tails": ["to <stub:xNeed:X goes running>"]}


def test_infer_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "graph.jsonl"
    code, out, _ = run(capsys, "infer", "--text", TEXT, "--dry-run",
                       "--output", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_bytes() == GOLDEN.read_bytes()


def test_infer_config_file_with_cli_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dry_run": True, "relations": ["xIntent"]}))
    code, out, _ = run(capsys, "infer", "--text", TEXT, "--config", str(config))
    assert code == 0
    assert {json.loads(l)["relation"] for l in out.splitlines()} == {"xIntent"}
    # CLI flag overrides the file
    code, out, _ = run(capsys, "infer", "--text", TEXT, "--config", str(config),
                       "--relations", "xNeed")
    assert {json.loads(l)["relation"] for l in out.splitlines()} == {"xNeed"}


def test_infer_missing_text_is_usage_error(capsys):
    code, _, err = run(capsys, "infer", "--dry-run")
    assert code == 2
    assert "error" in err


def test_json_errors_flag_emits_machine_readable(capsys):
    code, _, err = run(capsys, "infer", "--dry-run", "--json-errors")
    assert code == 2
    payload = json.loads(err)
    assert payload["exit_code"] == 2
    assert payload["error"]


def test_match_command(tmp_path, capsys):
    heads_file = tmp_path / "heads.json"
    heads_file.write_text(json.dumps(["hammer", {"head": "PersonX acts funny"}]))
    code, out, _ = run(capsys, "match", "--heads-file", str(heads_file),
                       "--matcher", "heuristic")
    assert code == 0
    pairs = [(json.loads(l)["head"], json.loads(l)["relation"]) for l in out.splitlines()]
    assert ("hammer", "AtLocation") in pairs
    assert ("PersonX acts funny", "xIntent") in pairs
    assert all(not json.loads(l)["tails"] for l in out.splitlines())


def test_train_and_match_with_model(tmp_path, capsys):
    train, _, table = separable_matcher_corpus(n_per_group=40, vocab_per_group=20, dim=16)
    train_path = tmp_path / "train.jsonl"
    train.to_jsonl(train_path)
    emb_path = tmp_path / "emb.txt"
    table.save(emb_path)
    model_path = tmp_path / "model.json"

    code, out, _ = run(capsys, "train-matcher", "--train", str(train_path),
                       "--embeddings", str(emb_path), "--epochs", "5",
                       "--batch-size", "64", "--lr", "0.01", "--seed", "3",
                       "--out", str(model_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["examples"] == len(train)
    assert model_path.exists()

    heads_file = tmp_path / "heads.json"
    heads_file.write_text(json.dumps(["physicalw0 physicalw1"]))
    code, out, _ = run(capsys, "match", "--heads-file", str(heads_file),
                       "--matcher", "model", "--model", str(model_path),
                       "--embeddings", str(emb_path))
    assert code == 0
    assert len(out.splitlines()) > 0


def test_resplit_command_with_report(tmp_path, capsys):
    pool = resplit_pool(n_singleton=30, n_triangles=8, n_dense=100, dense_vocab=30)
    pool_path = tmp_path / "pool.jsonl"
    pool.to_jsonl(pool_path)
    out_train = tmp_path / "train.jsonl"
    out_test = tmp_path / "test.jsonl"
    code, out, _ = run(capsys, "resplit", "--input", str(pool_path), "--n", "0",
                       "--seed", "5", "--out-train", str(out_train),
                       "--out-test", str(out_test), "--report")
    assert code == 0
    report = json.loads(out)
    assert report["overlap_without_stopwords"] == 0.0
    train = MatcherDataset.from_jsonl(out_train)
    test = MatcherDataset.from_jsonl(out_test)
    assert len(train) + len(test) == len(pool)


def test_resplit_infeasible_exit_code(tmp_path, capsys):
    pool_path = tmp_path / "pool.jsonl"
    rows = [json.dumps({"head": f"zebra item{i}", "labels": ["physical"]})
            for i in range(4)]
    pool_path.write_text("".join(r + "\n" for r in rows))
    code, _, err = run(capsys, "resplit", "--input", str(pool_path), "--n", "0",
                       "--out-train", str(tmp_path / "t.jsonl"),
                       "--out-test", str(tmp_path / "s.jsonl"))
    assert code == 4
    assert "error" in err


def test_eval_command_stub(tmp_path, capsys):
    graph = KnowledgeGraph([
        KnowledgeTuple("a", "r", ["to <stub:r:a>"]),
        KnowledgeTuple("b", "r", ["something else"]),
    ])
    path = tmp_path / "refs.jsonl"
    graph.to_jsonl(path)
    code, out, _ = run(capsys, "eval", "--model", "stub", "--graph", str(path),
                       "--metrics", "bleu,rouge_l")
    assert code == 0
    report = json.loads(out)
    assert set(report["scores"]) == {"bleu", "rouge_l"}
    assert report["n_candidates"] == 2


def test_filter_command(tmp_path, capsys):
    graph = KnowledgeGraph([
        KnowledgeTuple("alpha", "rel", ["alpha"]),
        KnowledgeTuple("omega", "rel", ["omega"]),
    ])
    graph_path = tmp_path / "g.jsonl"
    graph.to_jsonl(graph_path)
    emb_path = tmp_path / "emb.txt"
    emb_path.write_text("alpha 1.0 0.0\nrel 0.5 0.5\nomega 0.0 1.0\n")
    kept_path = tmp_path / "kept.jsonl"
    judg_path = tmp_path / "judgments.jsonl"
    code, _, _ = run(capsys, "filter", "--graph", str(graph_path),
                     "--context", "alpha rel alpha", "--threshold", "0.9",
                     "--embeddings", str(emb_path), "--out", str(kept_path),
                     "--judgments", str(judg_path))
    assert code == 0
    kept = KnowledgeGraph.from_jsonl(kept_path)
    assert [t.head.text for t in kept] == ["alpha"]
    judgments = [json.loads(l) for l in judg_path.read_text().splitlines()]
    assert len(judgments) == 2
    assert judgments[0]["keep"] is True and judgments[1]["keep"] is False


def test_api_backend_without_key_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KOGITO_API_KEY", raising=False)
    monkeypatch.delenv("KOGITO_API_URL", raising=False)
    code, _, err = run(capsys, "infer", "--heads", "hammer", "--matcher", "base",
                       "--relations", "xNeed", "--backend", "api")
    assert code == 3
    assert "error" in err


def test_custom_relations_flag(tmp_path, capsys):
    rels = tmp_path / "custom.json"
    rels.write_text(json.dumps([{"name": "xDreams", "group": "social"}]))
    code, out, _ = run(capsys, "infer", "--heads", "PersonX naps", "--dry-run",
                       "--matcher", "base", "--relations", "xDreams",
                       "--custom-relations", str(rels))
    assert code == 0
    assert json.loads(out.strip())["relation"] == "xDreams"


def _embedding_argv(command: str, tmp_path, emb: str) -> list[str]:
    if command == "infer":
        return ["infer", "--text", TEXT, "--filter", "embedding", "--embeddings", emb]
    if command == "filter":
        graph_path = tmp_path / "g.jsonl"
        KnowledgeGraph([KnowledgeTuple("alpha", "rel", ["alpha"])]).to_jsonl(graph_path)
        return ["filter", "--graph", str(graph_path), "--context", "alpha",
                "--embeddings", emb]
    train, _, _ = separable_matcher_corpus(n_per_group=5, vocab_per_group=5, dim=4)
    train_path = tmp_path / "train.jsonl"
    train.to_jsonl(train_path)
    return ["train-matcher", "--train", str(train_path), "--embeddings", emb,
            "--out", str(tmp_path / "model.json")]


@pytest.mark.parametrize("fault", ["missing", "not UTF-8"])
@pytest.mark.parametrize("command", ["infer", "filter", "train-matcher"])
def test_bad_embeddings_file_exits_2_with_one_line(tmp_path, capsys, command, fault):
    emb_path = tmp_path / "emb.txt"
    if fault == "not UTF-8":
        emb_path.write_bytes(b"alpha 1.0 0.0\ncaf\xe9 0.5 0.5\n")
    code, out, err = run(capsys, *_embedding_argv(command, tmp_path, str(emb_path)))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert (str(emb_path) if fault == "missing" else "line 2: not valid UTF-8") in err


def _missing_file_argv(command: str, flag: str, tmp_path, missing: str) -> list[str]:
    graph_path = tmp_path / "g.jsonl"
    KnowledgeGraph([KnowledgeTuple("alpha", "rel", ["alpha"])]).to_jsonl(graph_path)
    heads_path = tmp_path / "heads.json"
    heads_path.write_text(json.dumps(["hammer"]))
    emb_path = tmp_path / "emb.txt"
    emb_path.write_text("alpha 1.0 0.0\n")
    out = [str(tmp_path / name) for name in ("a.jsonl", "b.jsonl")]
    pool = str(tmp_path / "pool.jsonl")
    files = {"--graph": str(graph_path), "--heads-file": str(heads_path),
             "--train": pool, "--input": pool, flag: missing}
    argv = {
        "infer": ["infer", "--dry-run"] + (["--text", TEXT] if flag != "--input-file" else []),
        "heads": ["heads"],
        "match": ["match", "--heads-file", files["--heads-file"]],
        "filter": ["filter", "--graph", files["--graph"], "--context", "alpha"],
        "eval": ["eval", "--graph", files["--graph"]],
        "train-matcher": ["train-matcher", "--train", files["--train"],
                          "--embeddings", str(emb_path), "--out", out[0]],
        "resplit": ["resplit", "--input", files["--input"], "--n", "0",
                    "--out-train", out[0], "--out-test", out[1]],
    }[command]
    if flag == "--model":
        argv += ["--matcher", "model", "--embeddings", str(emb_path)]
    return argv if flag in ("--graph", "--heads-file", "--train", "--input") else argv + [flag, missing]


INPUT_FILE_FLAGS = [
    ("infer", "--config"), ("infer", "--input-file"), ("heads", "--input-file"),
    ("match", "--config"), ("match", "--heads-file"), ("filter", "--config"),
    ("filter", "--graph"), ("eval", "--config"), ("eval", "--graph"),
    ("train-matcher", "--train"), ("resplit", "--input"),
    ("infer", "--custom-relations"), ("match", "--custom-relations"),
    ("filter", "--custom-relations"), ("infer", "--model"), ("match", "--model"),
]


@pytest.mark.parametrize("command,flag", INPUT_FILE_FLAGS)
def test_missing_input_file_exits_2_with_one_line(tmp_path, capsys, command, flag):
    missing = str(tmp_path / "absent" / "file.json")
    code, out, err = run(capsys, *_missing_file_argv(command, flag, tmp_path, missing))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert flag in err and missing in err


@pytest.mark.parametrize("content,line", [("", 1), ('{\n  "a": 1,\n}\n', 3), ('[\n"x"\n', 3)])
@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flag in INPUT_FILE_FLAGS
    if flag in ("--config", "--custom-relations", "--heads-file")])
def test_malformed_json_file_exits_2_with_its_line(tmp_path, capsys, command, flag,
                                                   content, line):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, out, err = run(capsys, *_missing_file_argv(command, flag, tmp_path, str(bad)))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: line {line}: invalid JSON")
    assert flag in err and str(bad) in err


@pytest.mark.parametrize("content,line", [(b"\xff{}\n", 1), (b'[\n"caf\xe9"\n]\n', 2)],
                         ids=["0xff-first", "latin-1-on-line-2"])
@pytest.mark.parametrize("command,flag", INPUT_FILE_FLAGS)
def test_non_utf8_file_exits_2_with_its_line(tmp_path, capsys, command, flag, content, line):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, *_missing_file_argv(command, flag, tmp_path, str(bad)))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"line {line}: not valid UTF-8" in err and str(bad) in err


@pytest.mark.parametrize("content", [[5], {"relations": 5}, [{"name": 5}],
                                     [{"name": "x", "template": 5}]])
@pytest.mark.parametrize("command", ["infer", "match", "filter"])
def test_malformed_relations_config_exits_2_with_one_line(tmp_path, capsys, command,
                                                          content):
    bad = tmp_path / "rels.json"
    bad.write_text(json.dumps(content))
    argv = _missing_file_argv(command, "--custom-relations", tmp_path, str(bad))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: relation config")


@pytest.mark.parametrize("content", ["not json", "[1, 2]", '{"format_version": 1}'])
@pytest.mark.parametrize("command", ["infer", "match"])
def test_malformed_matcher_model_exits_2_with_one_line(tmp_path, capsys, command, content):
    bad = tmp_path / "model.json"
    bad.write_text(content)
    code, out, err = run(capsys, *_missing_file_argv(command, "--model", tmp_path, str(bad)))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"matcher model {bad}" in err


@pytest.mark.parametrize("command,flag", [
    ("heads", "--config"), ("train-matcher", "--config"), ("resplit", "--config"),
    ("infer", "--seed"), ("heads", "--seed"), ("match", "--seed"),
    ("eval", "--seed"), ("filter", "--seed"),
])
def test_unread_flag_is_rejected(tmp_path, capsys, command, flag):
    argv = _missing_file_argv(command, flag, tmp_path, "0")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("content", [{"a": 1}, "abc", 5])
def test_heads_file_must_hold_a_list(tmp_path, capsys, content):
    heads_file = tmp_path / "heads.json"
    heads_file.write_text(json.dumps(content))
    code, out, err = run(capsys, "match", "--heads-file", str(heads_file))
    assert code == 2
    assert out == ""
    assert err == "error: heads file must hold a JSON list\n"


@pytest.mark.parametrize("content", [[{"head": 5}], [{"head": None}], [["hammer"]]])
def test_heads_file_entries_must_be_strings(tmp_path, capsys, content):
    heads_file = tmp_path / "heads.json"
    heads_file.write_text(json.dumps(content))
    code, out, err = run(capsys, "match", "--heads-file", str(heads_file))
    assert code == 2
    assert out == ""
    assert err == "error: heads file must hold strings or objects with a string 'head'\n"


@pytest.mark.parametrize("record,message", [
    ({"head": 5, "relation": "xNeed", "tails": ["t"]}, "head and relation must be strings"),
    ({"head": "h", "relation": 5, "tails": ["t"]}, "head and relation must be strings"),
    ({"head": "h", "relation": "xNeed", "tails": [5]}, "tails must be a string or a list"),
    ({"head": "h", "relation": "xNeed", "tails": 5}, "tails must be a string or a list"),
    ({"head": "h", "relation": "xNeed", "tails": {"a": "b"}}, "tails must be a string or a"),
])
def test_eval_graph_values_must_be_strings(tmp_path, capsys, record, message):
    graph = tmp_path / "g.jsonl"
    graph.write_text(json.dumps({"head": "ok", "relation": "xNeed", "tails": ["t"]}) + "\n"
                     + json.dumps(record) + "\n")
    code, out, err = run(capsys, "eval", "--graph", str(graph))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line 2: {message}") and err.count("\n") == 1


MALFORMED_RECORDS = [
    ("5", "record is not a JSON object"),
    ('["x", ["physical"]]', "record is not a JSON object"),
    ("null", "record is not a JSON object"),
    ('{"head": 5, "labels": ["physical"]}', "'head' must be a string"),
    ('{"head": "x", "labels": 5}', "'labels' must be a list of strings"),
    ('{"head": "x", "labels": "physical"}', "'labels' must be a list of strings"),
    ('{"head": "x", "labels": [["physical"]]}', "'labels' must be a list of strings"),
    ('{"head": "x", "labels": {"physical": 1}}', "'labels' must be a list of strings"),
]


@pytest.mark.parametrize("record,message", MALFORMED_RECORDS)
@pytest.mark.parametrize("command", ["train-matcher", "resplit"])
def test_matcher_dataset_records_are_type_checked(tmp_path, capsys, command, record, message):
    pool = tmp_path / "pool.jsonl"
    pool.write_text('{"head": "ok", "labels": ["social"]}\n' + record + "\n")
    emb = tmp_path / "emb.txt"
    emb.write_text("ok 1.0 0.0\n")
    out_paths = [str(tmp_path / name) for name in ("a", "b")]
    argv = {"train-matcher": ["train-matcher", "--train", str(pool), "--embeddings", str(emb),
                              "--out", out_paths[0]],
            "resplit": ["resplit", "--input", str(pool), "--n", "0",
                        "--out-train", out_paths[0], "--out-test", out_paths[1]]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: line 2: {message}\n"


def test_rejected_relevance_credential_exits_3(tmp_path, capsys, mock_server):
    mock_server.set_behavior(lambda state, body: (401, {"error": "bad key"}))
    graph = tmp_path / "g.jsonl"
    KnowledgeGraph([KnowledgeTuple(f"h{i}", "xNeed", ["t"]) for i in range(20)]).to_jsonl(graph)
    code, out, err = run(capsys, "filter", "--graph", str(graph), "--context", "ctx",
                         "--scorer", "external", "--external-url", mock_server.url)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "status 401" in err
    assert len(mock_server.requests) == 1
    code, out, err = run(capsys, "infer", "--text", TEXT, "--filter", "external",
                         "--external-url", mock_server.url)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "status 401" in err
    assert len(mock_server.requests) == 2


MALFORMED_CONTENTS = [
    b"", b"\xff", b"5", b"null", b'"str"', b"{}", b"[1, 2]\n", b'[{"head": 5}]',
    b'{"extractors": 5}', b'{"relations": [5]}', b'{"threshold": "high"}', b'{"dry_run": "yes"}',
    b'{"matcher": 5}', b'[{"name": "x", "group": 5}]', b'{"head": "x", "labels": 5}\n',
    b'{"head": "x", "labels": [["physical"]]}\n',
    b'{"head": 5, "relation": "r", "tails": ["t"]}\n',
    b'{"head": "h", "relation": "xNeed", "tails": [5]}\n',
]


@pytest.mark.parametrize("content", MALFORMED_CONTENTS)
@pytest.mark.parametrize("command,flag", INPUT_FILE_FLAGS)
def test_any_file_content_ends_in_an_exit_code(tmp_path, capsys, command, flag, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, *_missing_file_argv(command, flag, tmp_path, str(bad)))
    assert code in (0, 2, 3, 4)
    if code:
        assert err.count("\n") == 1 and err.startswith("error: ")
