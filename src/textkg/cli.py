"""Command-line interface.

Subcommands: infer, heads, match, train-matcher, resplit, eval, filter.
Config precedence is CLI flags over config file over built-in defaults.
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
from .matching.matchers import MATCHER_NAMES, match_relations, pairs_to_graph
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
    if getattr(args, "text", None) is not None:
        return args.text
    if getattr(args, "input_file", None):
        with _reading("--input-file", args.input_file):
            return Path(args.input_file).read_text(encoding="utf-8")
    raise UsageError("provide --text or --input-file")


def _load_registry(args):
    registry = default_registry()
    if getattr(args, "custom_relations", None):
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
        elif isinstance(item, dict) and "head" in item:
            heads.append(item["head"])
        else:
            raise UsageError("heads file must hold strings or objects with a 'head' key")
    return heads


def _read_graph(path) -> KnowledgeGraph:
    with _reading("--graph", path):
        return parse_graph(path, "jsonl", ParseOptions())


def _build_config(args) -> pl.PipelineConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        with _reading("--config", args.config):
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
    overrides: dict = {}
    for key in ("matcher", "backend", "filter", "threshold", "external_url",
                "max_tokens", "temperature", "n_samples"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "extractors", None):
        overrides["extractors"] = [s.strip() for s in args.extractors.split(",")]
    if getattr(args, "relations", None):
        overrides["relations"] = [s.strip() for s in args.relations.split(",")]
    if getattr(args, "heads", None):
        overrides["heads"] = args.heads
    if getattr(args, "model", None):
        overrides["matcher_model"] = args.model
    if getattr(args, "embeddings", None):
        overrides["embeddings"] = args.embeddings
    if getattr(args, "dry_run", False):
        overrides["dry_run"] = True
    return pl.PipelineConfig.from_mapping({**file_values, **overrides})


# ------------------------------------------------------------- commands

def cmd_infer(args) -> int:
    config = _build_config(args)
    registry = _load_registry(args)
    if config.matcher == "model" and config.matcher_model:
        # Fail on an unreadable model before infer parses the embedding file.
        with _reading("--model", config.matcher_model):
            Path(config.matcher_model).open("rb").close()
    text = ""
    if args.text is not None or args.input_file:
        text = _read_text_arg(args)
    graph = pl.infer(text, config, registry=registry)
    _write_output(serialize_graph(graph, "jsonl"), args.output)
    return 0


def cmd_heads(args) -> int:
    text = _read_text_arg(args)
    extractors = ([s.strip() for s in args.extractors.split(",")]
                  if args.extractors else None)
    found = extract_heads(text, extractors or EXTRACTOR_NAMES)
    _write_json([{"head": e.head.text, "form": e.form} for e in found], args.output)
    return 0


def cmd_match(args) -> int:
    heads = _read_heads_file(args.heads_file)
    registry = _load_registry(args)
    config = _build_config(args)
    matcher_model = None
    if config.matcher == "model":
        with _reading("--model", config.matcher_model):
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
    registry = _load_registry(args)
    model = pl.resolve_model(config, registry)
    metrics = ([s.strip() for s in args.metrics.split(",")]
               if args.metrics else list(METRIC_NAMES))
    report = evaluate_model(model, graph, metrics, config.decode)
    _write_json(report.to_dict(), args.out or args.output)
    return 0


def cmd_filter(args) -> int:
    graph = _read_graph(args.graph)
    config = _build_config(args)
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

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="output path (default: stdout)")
    common.add_argument("--json-errors", action="store_true",
                        help="emit machine-readable errors on stderr")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", help="JSON config file mirroring the pipeline options")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="random seed")

    parser = argparse.ArgumentParser(prog="textkg",
                                     description="Text to commonsense knowledge graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", parents=[configured],
                       help="run the full pipeline on a text")
    p.add_argument("--text")
    p.add_argument("--input-file")
    p.add_argument("--heads", nargs="+", help="explicit heads (bypass extraction)")
    p.add_argument("--extractors", help="comma list: sentence,noun_phrase,verb_phrase")
    p.add_argument("--matcher", choices=MATCHER_NAMES)
    p.add_argument("--model", help="trained matcher model path")
    p.add_argument("--embeddings", help="embedding text file")
    p.add_argument("--relations", help="comma list restricting relations")
    p.add_argument("--backend", choices=pl.BACKENDS)
    p.add_argument("--max-tokens", type=int, dest="max_tokens")
    p.add_argument("--temperature", type=float)
    p.add_argument("--n-samples", type=int, dest="n_samples")
    p.add_argument("--filter", choices=pl.FILTER_MODES)
    p.add_argument("--threshold", type=float)
    p.add_argument("--external-url", dest="external_url")
    p.add_argument("--custom-relations", help="JSON file of custom relation definitions")
    p.add_argument("--dry-run", action="store_true",
                   help="skip generation; emit (head, relation) pairs with empty tails")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("heads", parents=[common], help="extract candidate heads")
    p.add_argument("--text")
    p.add_argument("--input-file")
    p.add_argument("--extractors", help="comma list: sentence,np,vp")
    p.set_defaults(func=cmd_heads)

    p = sub.add_parser("match", parents=[configured], help="match relations to heads")
    p.add_argument("--heads-file", required=True,
                   help="JSON list of head strings or {head} objects")
    p.add_argument("--matcher", choices=MATCHER_NAMES, default="heuristic")
    p.add_argument("--model", help="trained matcher model path")
    p.add_argument("--embeddings", help="embedding text file (model matcher)")
    p.add_argument("--relations", help="comma list restricting relations")
    p.add_argument("--custom-relations", help="JSON file of custom relation definitions")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("train-matcher", parents=[seeded],
                       help="train the embedding-projection matcher")
    p.add_argument("--train", required=True, help="jsonl dataset of labeled heads")
    p.add_argument("--embeddings", required=True, help="embedding text file")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train_matcher)

    p = sub.add_parser("resplit", parents=[seeded],
                       help="overlap-controlled train/test resplit")
    p.add_argument("--input", required=True, help="jsonl pool of labeled heads")
    p.add_argument("--n", type=int, required=True,
                   help="max training occurrences per test non-stopword")
    p.add_argument("--max-test-size", type=int, dest="max_test_size")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--report", action="store_true", help="print the overlap report")
    p.set_defaults(func=cmd_resplit)

    p = sub.add_parser("eval", parents=[configured], help="score a backend against references")
    p.add_argument("--model", dest="backend", choices=pl.BACKENDS, default="stub")
    p.add_argument("--graph", required=True, help="jsonl reference graph")
    p.add_argument("--metrics", help=f"comma list of {','.join(METRIC_NAMES)}")
    p.add_argument("--out", help="report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter", parents=[configured], help="filter a graph by relevance")
    p.add_argument("--graph", required=True, help="jsonl graph to filter")
    p.add_argument("--context", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--scorer", dest="filter", default="embedding",
                   choices=[m for m in pl.FILTER_MODES if m != "off"])
    p.add_argument("--embeddings", help="embedding text file (embedding scorer)")
    p.add_argument("--external-url", dest="external_url")
    p.add_argument("--out", help="kept-graph output path")
    p.add_argument("--judgments", help="per-tuple judgments output path (jsonl)")
    p.add_argument("--custom-relations", help="JSON file of custom relation definitions")
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
