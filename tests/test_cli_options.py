"""The CLI's option surface: which flags each subcommand accepts, and the
PipelineConfig that a command line and a config file build together.

Precedence is: flag, then config file, then subcommand default, then
built-in default."""

import json

import pytest

from textkg.cli import build_parser, main
from textkg.core.knowledge import KnowledgeGraph, KnowledgeTuple
from textkg.models.base import DecodeConfig
from textkg.pipeline import PipelineConfig

MATCHERS = ["base", "heuristic", "model"]
BACKENDS = ["stub", "api"]

# option strings -> (dest, choices, required, nargs), per subcommand
FLAG_SURFACE = {
    "infer": {
        ("--output",): ("output", None, False, None),
        ("--json-errors",): ("json_errors", None, False, 0),
        ("--config",): ("config", None, False, None),
        ("--text",): ("text", None, False, None),
        ("--input-file",): ("input_file", None, False, None),
        ("--heads",): ("heads", None, False, "+"),
        ("--extractors",): ("extractors", None, False, None),
        ("--matcher",): ("matcher", MATCHERS, False, None),
        ("--model",): ("model", None, False, None),
        ("--embeddings",): ("embeddings", None, False, None),
        ("--relations",): ("relations", None, False, None),
        ("--backend",): ("backend", BACKENDS, False, None),
        ("--max-tokens",): ("max_tokens", None, False, None),
        ("--temperature",): ("temperature", None, False, None),
        ("--n-samples",): ("n_samples", None, False, None),
        ("--filter",): ("filter", ["off", "embedding", "external"], False, None),
        ("--threshold",): ("threshold", None, False, None),
        ("--external-url",): ("external_url", None, False, None),
        ("--custom-relations",): ("custom_relations", None, False, None),
        ("--dry-run",): ("dry_run", None, False, 0),
    },
    "heads": {
        ("--output",): ("output", None, False, None),
        ("--json-errors",): ("json_errors", None, False, 0),
        ("--text",): ("text", None, False, None),
        ("--input-file",): ("input_file", None, False, None),
        ("--extractors",): ("extractors", None, False, None),
    },
    "match": {
        ("--output",): ("output", None, False, None),
        ("--json-errors",): ("json_errors", None, False, 0),
        ("--config",): ("config", None, False, None),
        ("--heads-file",): ("heads_file", None, True, None),
        ("--matcher",): ("matcher", MATCHERS, False, None),
        ("--model",): ("model", None, False, None),
        ("--embeddings",): ("embeddings", None, False, None),
        ("--relations",): ("relations", None, False, None),
        ("--custom-relations",): ("custom_relations", None, False, None),
    },
    "train-matcher": {
        ("--output",): ("output", None, False, None),
        ("--json-errors",): ("json_errors", None, False, 0),
        ("--seed",): ("seed", None, False, None),
        ("--train",): ("train", None, True, None),
        ("--embeddings",): ("embeddings", None, True, None),
        ("--epochs",): ("epochs", None, False, None),
        ("--batch-size",): ("batch_size", None, False, None),
        ("--lr",): ("lr", None, False, None),
        ("--out",): ("out", None, True, None),
    },
    "resplit": {
        ("--output",): ("output", None, False, None),
        ("--json-errors",): ("json_errors", None, False, 0),
        ("--seed",): ("seed", None, False, None),
        ("--input",): ("input", None, True, None),
        ("--n",): ("n", None, True, None),
        ("--max-test-size",): ("max_test_size", None, False, None),
        ("--out-train",): ("out_train", None, True, None),
        ("--out-test",): ("out_test", None, True, None),
        ("--report",): ("report", None, False, 0),
    },
    "eval": {
        ("--output",): ("output", None, False, None),
        ("--json-errors",): ("json_errors", None, False, 0),
        ("--config",): ("config", None, False, None),
        ("--model",): ("backend", BACKENDS, False, None),
        ("--graph",): ("graph", None, True, None),
        ("--metrics",): ("metrics", None, False, None),
        ("--out",): ("out", None, False, None),
    },
    "filter": {
        ("--output",): ("output", None, False, None),
        ("--json-errors",): ("json_errors", None, False, 0),
        ("--config",): ("config", None, False, None),
        ("--graph",): ("graph", None, True, None),
        ("--context",): ("context", None, True, None),
        ("--threshold",): ("threshold", None, False, None),
        ("--scorer",): ("filter", ["embedding", "external"], False, None),
        ("--embeddings",): ("embeddings", None, False, None),
        ("--external-url",): ("external_url", None, False, None),
        ("--out",): ("out", None, False, None),
        ("--judgments",): ("judgments", None, False, None),
        ("--custom-relations",): ("custom_relations", None, False, None),
    },
}


def test_each_subcommand_accepts_exactly_its_flags():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    surface = {
        name: {tuple(a.option_strings): (a.dest,
                                         list(a.choices) if a.choices is not None else None,
                                         a.required, a.nargs)
               for a in sub._actions if a.dest != "help"}
        for name, sub in subparsers.items()}
    assert surface == FLAG_SURFACE


class _Built(Exception):
    def __init__(self, config):
        super().__init__("config built")
        self.config = config


def _argv(command, tmp_path):
    graph = tmp_path / "g.jsonl"
    KnowledgeGraph([KnowledgeTuple("alpha", "xNeed", ["alpha"])]).to_jsonl(graph)
    heads = tmp_path / "heads.json"
    heads.write_text(json.dumps(["hammer"]))
    return {
        "infer": ["infer", "--text", "PersonX buys a hammer"],
        "match": ["match", "--heads-file", str(heads)],
        "eval": ["eval", "--graph", str(graph)],
        "filter": ["filter", "--graph", str(graph), "--context", "alpha"],
    }[command]


EVERY_FLAG = ["--heads", "a", "b", "--extractors", "np, vp", "--matcher", "model",
              "--model", "m.json", "--embeddings", "e.txt", "--relations", "xNeed,xIntent",
              "--backend", "api", "--max-tokens", "5", "--temperature", "0.5",
              "--n-samples", "2", "--filter", "external", "--threshold", "0.25",
              "--external-url", "http://x", "--dry-run"]
EVERY_KEY = {"heads": ["a", "b"], "extractors": ["np", "vp"], "matcher": "model",
             "matcher_model": "m.json", "embeddings": "e.txt",
             "relations": ["xNeed", "xIntent"], "backend": "api", "max_tokens": 5,
             "temperature": 0.5, "n_samples": 2, "stop": ["."], "filter": "external",
             "threshold": 0.25, "external_url": "http://x", "dry_run": True,
             "fail_closed": True}
EVERYTHING = PipelineConfig(
    heads=("a", "b"), extractors=("np", "vp"), matcher="model", matcher_model="m.json",
    embeddings="e.txt", relations=("xNeed", "xIntent"), backend="api",
    decode=DecodeConfig(max_tokens=5, temperature=0.5, n_samples=2), filter="external",
    threshold=0.25, external_url="http://x", dry_run=True)

# (subcommand, extra argv, config file contents or None) -> PipelineConfig
CONFIG_TABLE = [
    ("infer", [], None, PipelineConfig()),
    ("infer", EVERY_FLAG, None, EVERYTHING),
    ("infer", [], EVERY_KEY,
     PipelineConfig(**{**EVERYTHING.__dict__, "fail_closed": True,
                       "decode": DecodeConfig(5, 0.5, (".",), 2)})),
    ("infer", ["--relations", "xNeed", "--threshold", "0.75", "--max-tokens", "9"],
     {"relations": ["xIntent"], "threshold": 0.1, "max_tokens": 3, "dry_run": True},
     PipelineConfig(relations=("xNeed",), threshold=0.75,
                    decode=DecodeConfig(max_tokens=9), dry_run=True)),
    ("infer", [], {"threshold": 1, "temperature": 0}, PipelineConfig(threshold=1.0)),
    ("match", [], None, PipelineConfig()),
    # a config file wins over the subcommand's default
    ("match", [], {"matcher": "base"}, PipelineConfig(matcher="base")),
    ("match", ["--matcher", "model", "--model", "m.json", "--relations", "xNeed"],
     {"matcher": "base", "embeddings": "e.txt"},
     PipelineConfig(matcher="model", matcher_model="m.json", embeddings="e.txt",
                    relations=("xNeed",))),
    ("eval", [], None, PipelineConfig()),
    ("eval", ["--model", "api"], None, PipelineConfig(backend="api")),
    ("eval", [], {"backend": "api"}, PipelineConfig(backend="api")),
    ("eval", ["--model", "stub"], {"backend": "api", "max_tokens": 7},
     PipelineConfig(decode=DecodeConfig(max_tokens=7))),
    ("filter", [], None, PipelineConfig(filter="embedding")),
    ("filter", [], {"filter": "external", "external_url": "http://x"},
     PipelineConfig(filter="external", external_url="http://x")),
    ("filter", ["--scorer", "external", "--external-url", "http://y", "--threshold", "0.7"],
     {"external_url": "http://x", "threshold": 0.2},
     PipelineConfig(filter="external", external_url="http://y", threshold=0.7)),
    ("filter", ["--embeddings", "f.txt"], {"embeddings": "e.txt", "fail_closed": True},
     PipelineConfig(filter="embedding", embeddings="f.txt", fail_closed=True)),
]


@pytest.mark.parametrize("command,extra,contents,expected", CONFIG_TABLE)
def test_argv_and_config_file_build_this_config(tmp_path, monkeypatch, command, extra,
                                                contents, expected):
    original = PipelineConfig.from_mapping

    def capture(data):
        raise _Built(original(data))

    monkeypatch.setattr(PipelineConfig, "from_mapping", staticmethod(capture))
    argv = _argv(command, tmp_path) + extra
    if contents is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(contents))
        argv += ["--config", str(config)]
    with pytest.raises(_Built) as built:
        main(argv)
    assert built.value.config == expected


@pytest.mark.parametrize("contents,expected", [
    ({"extractors": 5}, "'extractors' must be a list of strings, got 5"),
    ({"relations": 5}, "'relations' must be a list of strings, got 5"),
    ({"stop": 5}, "'stop' must be a list of strings, got 5"),
    ({"relations": "xNeed"}, "'relations' must be a list of strings"),
    ({"heads": ["a", 5]}, "'heads' must be a list of strings"),
    ({"extractors": None}, "'extractors' must be a list of strings, got null"),
    ({"threshold": "high"}, "'threshold' must be a number, got \"high\""),
    ({"threshold": True}, "'threshold' must be a number, got true"),
    ({"max_tokens": "x"}, "'max_tokens' must be an integer"),
    ({"max_tokens": 2.5}, "'max_tokens' must be an integer"),
    ({"n_samples": False}, "'n_samples' must be an integer"),
    ({"dry_run": "yes"}, "'dry_run' must be true or false"),
    ({"matcher": 5}, "'matcher' must be a string"),
    ({"matcher_model": ["m.json"]}, "'matcher_model' must be a string"),
])
@pytest.mark.parametrize("command", ["infer", "match", "eval", "filter"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command, contents,
                                                expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(contents))
    code = main(_argv(command, tmp_path) + ["--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: config key {expected}")


def test_config_file_may_set_an_optional_key_to_null(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"relations": None, "embeddings": None}))
    original = PipelineConfig.from_mapping

    def capture(data):
        raise _Built(original(data))

    monkeypatch.setattr(PipelineConfig, "from_mapping", staticmethod(capture))
    with pytest.raises(_Built) as built:
        main(_argv("infer", tmp_path) + ["--config", str(config)])
    assert built.value.config == PipelineConfig()
