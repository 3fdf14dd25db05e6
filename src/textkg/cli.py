"""Command-line interface.

Subcommands: infer, heads, match, train-matcher, resplit, eval, filter.
Pipeline options come from ``textkg.pipeline.option`` declarations. A
flag wins over the config file, over the subcommand's default, over the built-in one.
Exit codes: 0 success, 2 usage/validation, 3 transport/credential,
4 split infeasibility.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import pipeline as pl
from .core.knowledge import KnowledgeGraph, ParseOptions, parse_graph, serialize_graph
from .core.relations import default_registry, load_relations_config
from .errors import ParseError, TextKGError, UsageError, exit_code_for, not_utf8
from .extraction.heads import EXTRACTOR_NAMES, extract_heads
from .filtering.relevance import filter_graph
from .matching.dataset import MatcherDataset
from .matching.embeddings import EmbeddingTable
from .matching.matchers import match_relations, pairs_to_graph
from .matching.resplit import ResplitConfig, compute_overlap, resplit_dataset
from .matching.swem import TrainConfig, train_swem_matcher
from .metrics.scores import METRIC_NAMES, evaluate_model


def _write_output(data: bytes | str, output: str | None) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if output and output != "-":
        Path(output).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _write_json(obj, output: str | None) -> None:
    _write_output(json.dumps(obj, indent=2, ensure_ascii=False) + "\n", output)


@contextmanager
def _reading(flag: str, path):
    """Report a missing or unreadable ``flag`` file as a UsageError, and
    bytes that are not UTF-8 or malformed JSON in it as a ParseError with
    its line, naming flag and path."""
    try:
        yield
    except OSError as e:
        raise UsageError(f"cannot read {flag} file {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise not_utf8(path, e, f" in {flag} file {path}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {flag} file {path}: {e.msg}", line=e.lineno) from e


def _read_text_arg(args) -> str:
    if args.text is not None:
        return args.text
    if args.input_file:
        with _reading("--input-file", args.input_file):
            return Path(args.input_file).read_text(encoding="utf-8")
    raise UsageError("provide --text or --input-file")


def _load_registry(args):
    registry = default_registry()
    if args.custom_relations:
        with _reading("--custom-relations", args.custom_relations):
            for rel in load_relations_config(args.custom_relations):
                registry.register(rel)
    return registry


def _read_heads_file(path) -> list[str]:
    with _reading("--heads-file", path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise UsageError("heads file must hold a JSON list")
    heads = []
    for item in data:
        if isinstance(item, str):
            heads.append(item)
        elif isinstance(item, dict) and isinstance(item.get("head"), str):
            heads.append(item["head"])
        else:
            raise UsageError("heads file must hold strings or objects with a string 'head'")
    return heads


def _read_graph(path) -> KnowledgeGraph:
    with _reading("--graph", path):
        return parse_graph(path, "jsonl", ParseOptions())


def _build_config(args, **defaults) -> pl.PipelineConfig:
    """Flags given, over the ``--config`` file, over ``defaults``, over built-ins."""
    file_values: dict = {}
    if args.config:
        with _reading("--config", args.config):
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
    given = vars(args)
    flags = {name: given[_dest(name)] for name in pl.OPTIONS
             if _flag(name) and _dest(name) in given}
    return pl.PipelineConfig.from_mapping({**defaults, **file_values, **flags})


# ------------------------------------------------------------- commands

def cmd_infer(args) -> int:
    config = _build_config(args)
    registry = _load_registry(args)
    if config.matcher == "model" and config.matcher_model:
        # Fail on an unreadable model before infer parses the embedding file.
        with _reading(_flag("matcher_model"), config.matcher_model):
            Path(config.matcher_model).open("rb").close()
    text = ""
    if args.text is not None or args.input_file:
        text = _read_text_arg(args)
    graph = pl.infer(text, config, registry=registry)
    _write_output(serialize_graph(graph, "jsonl"), args.output)
    return 0


def cmd_heads(args) -> int:
    text = _read_text_arg(args)
    found = extract_heads(text, vars(args).get("extractors", EXTRACTOR_NAMES))
    _write_json([{"head": e.head.text, "form": e.form} for e in found], args.output)
    return 0


def cmd_match(args) -> int:
    heads = _read_heads_file(args.heads_file)
    registry = _load_registry(args)
    config = _build_config(args)
    matcher_model = None
    if config.matcher == "model":
        with _reading(_flag("matcher_model"), config.matcher_model):
            matcher_model = pl.resolve_matcher_model(config)
    pairs = match_relations(heads, config.matcher, registry,
                            subset=config.relations, model=matcher_model)
    _write_output(serialize_graph(pairs_to_graph(pairs), "jsonl"), args.output)
    return 0


def cmd_train_matcher(args) -> int:
    with _reading("--train", args.train):
        train = MatcherDataset.from_jsonl(args.train)
    table = EmbeddingTable.load(args.embeddings)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                         learning_rate=args.lr, seed=args.seed)
    model = train_swem_matcher(train, table, config)
    model.save(args.out)
    _write_json({"examples": len(train), "epochs": config.epochs,
                 "final_loss": model.history[-1], "model": str(args.out)}, args.output)
    return 0


def cmd_resplit(args) -> int:
    with _reading("--input", args.input):
        pool = MatcherDataset.from_jsonl(args.input)
    config = ResplitConfig(n=args.n, seed=args.seed, max_test_size=args.max_test_size)
    train, test = resplit_dataset(pool, config)
    train.to_jsonl(args.out_train)
    test.to_jsonl(args.out_test)
    if args.report:
        _write_json(compute_overlap(train, test).to_dict(), args.output)
    return 0


def cmd_eval(args) -> int:
    graph = _read_graph(args.graph)
    config = _build_config(args)
    model = pl.resolve_model(config)
    report = evaluate_model(model, graph, args.metrics or list(METRIC_NAMES), config.decode)
    _write_json(report.to_dict(), args.out or args.output)
    return 0


def cmd_filter(args) -> int:
    graph = _read_graph(args.graph)
    config = _build_config(args, filter="embedding")
    registry = _load_registry(args)
    scorer = pl.resolve_scorer(config, registry)
    kept, judgments = filter_graph(graph, args.context, config.threshold, scorer,
                                   fail_open=not config.fail_closed)
    _write_output(serialize_graph(kept, "jsonl"), args.out or args.output)
    if args.judgments:
        lines = []
        for j in judgments:
            lines.append(json.dumps({
                "head": j.tuple.head.text,
                "relation": j.tuple.relation,
                "tails": list(j.tuple.tails),
                "score": j.score,
                "keep": j.keep,
                "flagged": j.flagged,
                "note": j.note,
            }, ensure_ascii=False, separators=(",", ":")))
        Path(args.judgments).write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    return 0


# -------------------------------------------------------------- parser

def _flag(name: str) -> str | None:
    return pl.OPTIONS[name].metadata.get("flag")


def _dest(name: str) -> str:  # shared by an option's flag and its alias
    return _flag(name)[2:].replace("-", "_")


def _comma_list(value: str) -> list[str]:
    return [s.strip() for s in value.split(",")]


def _add_options(p, command: str, *names: str, **overrides) -> None:
    """Add the flags of the named options to subcommand ``p``, as spelled
    for ``command``. A flag not given stays out of the parsed namespace,
    so it never hides a config-file value."""
    for name in names:
        meta = pl.OPTIONS[name].metadata
        kwargs = {"dest": _dest(name), "default": argparse.SUPPRESS, "help": meta.get("help"),
                  **{key: meta[key] for key in ("choices", "nargs") if key in meta},
                  **overrides.get(name, {})}
        if meta["type"] is bool:
            kwargs["action"] = "store_true"
        elif meta["type"] is not tuple or meta.get("comma"):  # --heads takes words as given
            kwargs["type"] = _comma_list if meta.get("comma") else meta["type"]
        p.add_argument(meta.get("aliases", {}).get(command, meta["flag"]), **kwargs)


# flags that several subcommands share, built once and copied into each parser
_common = argparse.ArgumentParser(add_help=False)
_common.add_argument("--output", help="output path (default: stdout)")
_common.add_argument("--json-errors", action="store_true",
                     help="emit machine-readable errors on stderr")
_configured = argparse.ArgumentParser(add_help=False, parents=[_common])
_configured.add_argument("--config", help="JSON config file mirroring the pipeline options")
_seeded = argparse.ArgumentParser(add_help=False, parents=[_common])
_seeded.add_argument("--seed", type=int, default=0, help="random seed")
_text = argparse.ArgumentParser(add_help=False)
_text.add_argument("--text")
_text.add_argument("--input-file")
_custom = argparse.ArgumentParser(add_help=False)
_custom.add_argument("--custom-relations", help="JSON file of custom relation definitions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="textkg",
                                     description="Text to commonsense knowledge graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", parents=[_configured, _text, _custom],
                       help="run the full pipeline on a text")
    _add_options(p, "infer", "heads", "extractors", "matcher", "matcher_model", "embeddings",
                 "relations", "backend", "max_tokens", "temperature", "n_samples", "filter",
                 "threshold", "external_url", "dry_run")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("heads", parents=[_common, _text], help="extract candidate heads")
    _add_options(p, "heads", "extractors")
    p.set_defaults(func=cmd_heads)

    p = sub.add_parser("match", parents=[_configured, _custom], help="match relations to heads")
    p.add_argument("--heads-file", required=True,
                   help="JSON list of head strings or {head} objects")
    _add_options(p, "match", "matcher", "matcher_model", "embeddings", "relations")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("train-matcher", parents=[_seeded],
                       help="train the embedding-projection matcher")
    p.add_argument("--train", required=True, help="jsonl dataset of labeled heads")
    _add_options(p, "train-matcher", "embeddings", embeddings={"required": True})
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train_matcher)

    p = sub.add_parser("resplit", parents=[_seeded],
                       help="overlap-controlled train/test resplit")
    p.add_argument("--input", required=True, help="jsonl pool of labeled heads")
    p.add_argument("--n", type=int, required=True,
                   help="max training occurrences per test non-stopword")
    p.add_argument("--max-test-size", type=int, dest="max_test_size")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--report", action="store_true", help="print the overlap report")
    p.set_defaults(func=cmd_resplit)

    p = sub.add_parser("eval", parents=[_configured], help="score a backend against references")
    _add_options(p, "eval", "backend")
    p.add_argument("--graph", required=True, help="jsonl reference graph")
    p.add_argument("--metrics", type=_comma_list, help=f"comma list of {','.join(METRIC_NAMES)}")
    p.add_argument("--out", help="report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter", parents=[_configured, _custom],
                       help="filter a graph by relevance")
    p.add_argument("--graph", required=True, help="jsonl graph to filter")
    p.add_argument("--context", required=True)
    _add_options(p, "filter", "threshold", "filter", "embeddings", "external_url",
                 filter={"choices": [m for m in pl.FILTER_MODES if m != "off"]})
    p.add_argument("--out", help="kept-graph output path")
    p.add_argument("--judgments", help="per-tuple judgments output path (jsonl)")
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TextKGError as e:
        code = exit_code_for(e)
        if getattr(args, "json_errors", False):
            payload = {"error": type(e).__name__, "message": str(e), "exit_code": code}
            print(json.dumps(payload, ensure_ascii=False), file=sys.stderr)
        else:
            print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
