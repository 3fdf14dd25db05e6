"""Where the traced run wraps the program, and the per-layer metrics it
derives from the spans.

Layers are the package's modules: extraction, matching, models,
filtering, core, metrics and pipeline/cli. Entry points that the harness
calls, or that one public function reaches through a module attribute
(``infer`` -> ``extract_heads``, ``evaluate_model`` -> ``score_corpus``,
``CompletionAPIModel`` -> ``complete_via_api``), are wrapped on that
module; methods of the resolved components are wrapped on the objects.
"""

from __future__ import annotations

import math
import statistics

import requests

from textkg import cli
from textkg import pipeline as pl
from textkg.core import knowledge as kg
from textkg.matching import evaluate, resplit, swem
from textkg.matching.embeddings import EmbeddingTable
from textkg.metrics import scores
from textkg.models import api
from tracing import Tracer

PER_LAYER = (
    ("extraction.extract_heads_ms", "ms"),
    ("extraction.heads", "count/op"),
    ("extraction.heads.sentence", "count/op"),
    ("extraction.heads.noun_phrase", "count/op"),
    ("extraction.heads.verb_phrase", "count/op"),
    ("extraction.sentences", "count/op"),
    ("matching.match_relations_ms", "ms"),
    ("matching.pairs", "count/op"),
    ("matching.predict_groups_us", "us"),
    ("matching.predict_groups_calls", "count/op"),
    ("matching.model_fallback_ratio", "ratio"),
    ("matching.embedding_load_s", "s"),
    ("matching.matcher_load_s", "s"),
    ("matching.embedding_loads", "count/call"),
    ("matching.resplit_ms", "ms"),
    ("matching.train_ms", "ms"),
    ("matching.evaluate_matcher_ms", "ms"),
    ("core.serialize_ms", "ms"),
    ("core.parse_graph_ms", "ms"),
    ("filtering.filter_graph_ms", "ms"),
    ("filtering.score_us", "us"),
    ("filtering.judgments", "count/op"),
    ("filtering.kept_ratio", "ratio"),
    ("filtering.flagged", "count/op"),
    ("filtering.external.request_ms_p50", "ms"),
    ("filtering.external.request_ms_p95", "ms"),
    ("models.generate_ms", "ms"),
    ("models.generate_self_ms", "ms"),
    ("models.api.prompt_us", "us"),
    ("models.api.request_ms_p50", "ms"),
    ("models.api.request_ms_p95", "ms"),
    ("models.api.server_ms", "ms"),
    ("models.api.overhead_ms", "ms"),
    ("models.api.requests", "count/op"),
    ("models.api.attempts_per_tuple", "ratio"),
    ("models.api.distinct_prompt_ratio", "ratio"),
    ("models.api.status.200", "count/op"),
    ("models.api.status.429", "count/op"),
    ("models.api.status.503", "count/op"),
    ("models.api.in_flight_max", "count"),
    ("metrics.bleu_ms", "ms"),
    ("metrics.rouge_l_ms", "ms"),
    ("metrics.meteor_ms", "ms"),
    ("metrics.cider_ms", "ms"),
    ("pipeline.infer_ms", "ms"),
    ("pipeline.infer_self_ms", "ms"),
    ("cli.main_s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _count_heads(counts, heads, *args, **kwargs):
    counts["heads"] += len(heads)
    for h in heads:
        counts["heads." + h.form] += 1
    if heads:
        counts["sentences"] += max(h.source_sentence_index for h in heads) + 1


def _count_pairs(counts, pairs, *args, **kwargs):
    counts["pairs"] += len(pairs)


def _count_judgments(counts, result, *args, **kwargs):
    kept, judgments = result
    counts["judgments"] += len(judgments)
    counts["kept"] += len(kept)
    counts["flagged"] += sum(j.flagged for j in judgments)


def _count_groups(counts, groups, *args, **kwargs):
    counts["predict_groups"] += 1
    counts["fallback"] += not groups


def _count_generated(counts, graph, *args, **kwargs):
    counts["generated"] += len(graph)


def _request_name(session, url, *args, **kwargs) -> str:
    return "models.api.request" if url.endswith("/complete") else "filtering.external.request"


def install(tracer: Tracer, comps=None) -> None:
    """Wrap the module-level entry points and, when given, the methods of
    the resolved components."""
    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(pl, "infer", "pipeline.infer")
    wrap(pl, "extract_heads", "extraction.extract_heads", _count_heads)
    wrap(pl, "match_relations", "matching.match_relations", _count_pairs)
    wrap(pl, "filter_graph", "filtering.filter_graph", _count_judgments)
    wrap(EmbeddingTable, "load", "matching.embedding_load")
    wrap(swem.MatcherModel, "load", "matching.matcher_load")
    wrap(resplit, "resplit_dataset", "matching.resplit")
    wrap(swem, "train_swem_matcher", "matching.train")
    wrap(evaluate, "evaluate_matcher", "matching.evaluate_matcher")
    wrap(kg, "serialize_graph", "core.serialize")
    wrap(kg, "parse_graph", "core.parse_graph")
    wrap(api, "complete_via_api", "models.api.call")
    wrap(requests.Session, "post", _request_name)
    wrap(scores, "evaluate_model", "metrics.evaluate_model")
    wrap(scores, "score_corpus", lambda metric, *args, **kwargs: f"metrics.{metric}")
    if comps is None:
        return
    if comps.model is not None:
        wrap(comps.model, "generate", "models.generate", _count_generated)
        if hasattr(comps.model, "prompt_for"):
            wrap(comps.model, "prompt_for", "models.api.prompt")
    if comps.matcher is not None:
        wrap(comps.matcher, "predict_groups", "matching.predict_groups", _count_groups)
    if comps.scorer is not None:
        wrap(comps.scorer, "score", "filtering.score")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(loop: Tracer, n_ops: int, setup: Tracer, cold: Tracer, n_cold: int,
              server: dict, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every metric of PER_LAYER: timings as medians (p95 where named) in
    the unit their name gives, counts per operation of the traced loop."""
    def p50(tracer: Tracer, name: str, scale: float) -> float:
        values = tracer.durations(name)
        return statistics.median(values) * scale if values else 0.0

    c = loop.counts
    status = server.get("status", {})
    requests_sent = server.get("complete_requests", 0)
    request_ms = [d * 1e3 for d in loop.durations("models.api.request")]
    external_ms = [d * 1e3 for d in loop.durations("filtering.external.request")]
    server_ms = statistics.median(server["complete_ms"]) if server.get("complete_ms") else 0.0
    generate_self = loop.self_durations("models.generate")
    infer_self = loop.self_durations("pipeline.infer")
    m = {
        "extraction.extract_heads_ms": p50(loop, "extraction.extract_heads", 1e3),
        "extraction.heads": _ratio(c["heads"], n_ops),
        "extraction.heads.sentence": _ratio(c["heads.sentence"], n_ops),
        "extraction.heads.noun_phrase": _ratio(c["heads.noun_phrase"], n_ops),
        "extraction.heads.verb_phrase": _ratio(c["heads.verb_phrase"], n_ops),
        "extraction.sentences": _ratio(c["sentences"], n_ops),
        "matching.match_relations_ms": p50(loop, "matching.match_relations", 1e3),
        "matching.pairs": _ratio(c["pairs"], n_ops),
        "matching.predict_groups_us": p50(loop, "matching.predict_groups", 1e6),
        "matching.predict_groups_calls": _ratio(c["predict_groups"], n_ops),
        "matching.model_fallback_ratio": _ratio(c["fallback"], c["predict_groups"]),
        "matching.embedding_load_s": p50(setup, "matching.embedding_load", 1.0),
        "matching.matcher_load_s": p50(setup, "matching.matcher_load", 1.0),
        "matching.embedding_loads": _ratio(len(cold.durations("matching.embedding_load")), n_cold),
        "matching.resplit_ms": p50(loop, "matching.resplit", 1e3),
        "matching.train_ms": p50(loop, "matching.train", 1e3),
        "matching.evaluate_matcher_ms": p50(loop, "matching.evaluate_matcher", 1e3),
        "core.serialize_ms": p50(loop, "core.serialize", 1e3),
        "core.parse_graph_ms": p50(setup, "core.parse_graph", 1e3),
        "filtering.filter_graph_ms": p50(loop, "filtering.filter_graph", 1e3),
        "filtering.score_us": p50(loop, "filtering.score", 1e6),
        "filtering.judgments": _ratio(c["judgments"], n_ops),
        "filtering.kept_ratio": _ratio(c["kept"], c["judgments"]),
        "filtering.flagged": _ratio(c["flagged"], n_ops),
        "filtering.external.request_ms_p50": percentile(external_ms, 50),
        "filtering.external.request_ms_p95": percentile(external_ms, 95),
        "models.generate_ms": p50(loop, "models.generate", 1e3),
        "models.generate_self_ms": statistics.median(generate_self) * 1e3 if generate_self else 0.0,
        "models.api.prompt_us": p50(loop, "models.api.prompt", 1e6),
        "models.api.request_ms_p50": percentile(request_ms, 50),
        "models.api.request_ms_p95": percentile(request_ms, 95),
        "models.api.server_ms": server_ms,
        "models.api.overhead_ms": percentile(request_ms, 50) - server_ms if request_ms else 0.0,
        "models.api.requests": _ratio(requests_sent, n_ops),
        "models.api.attempts_per_tuple": _ratio(requests_sent, c["generated"]),
        "models.api.distinct_prompt_ratio": _ratio(server.get("distinct_prompts", 0), requests_sent),
        "models.api.status.200": _ratio(status.get("200", 0), n_ops),
        "models.api.status.429": _ratio(status.get("429", 0), n_ops),
        "models.api.status.503": _ratio(status.get("503", 0), n_ops),
        "models.api.in_flight_max": float(server.get("in_flight_max", 0)),
        "metrics.bleu_ms": p50(loop, "metrics.bleu", 1e3),
        "metrics.rouge_l_ms": p50(loop, "metrics.rouge_l", 1e3),
        "metrics.meteor_ms": p50(loop, "metrics.meteor", 1e3),
        "metrics.cider_ms": p50(loop, "metrics.cider", 1e3),
        "pipeline.infer_ms": p50(loop, "pipeline.infer", 1e3),
        "pipeline.infer_self_ms": statistics.median(infer_self) * 1e3 if infer_self else 0.0,
        "cli.main_s": p50(cold, "cli.main", 1.0),
        "trace.untraced_ops_per_s": _ratio(n_ops, untraced_s),
        "trace.traced_ops_per_s": _ratio(n_ops, traced_s),
        "trace.overhead_pct": (_ratio(traced_s, untraced_s) - 1.0) * 100.0,
    }
    return m
