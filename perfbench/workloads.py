"""The four workloads, their components and their output checks.

Each workload makes its inputs from the seed when it is built, then
offers ``setup`` (resolve components, timed as ``setup_s``), ``cold_call``
(one in-process CLI call from config alone), ``run`` (one operation of
the closed loop), ``check`` (that operation's output, untimed) and
``final_check`` (checks that need more than one output).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import requests

import inputs
from mockserver import answer_for
from textkg import cli
from textkg import pipeline as pl
from textkg.core import knowledge as kg
from textkg.core.relations import default_registry
from textkg.errors import TextKGError
from textkg.filtering.relevance import filter_graph
from textkg.matching import evaluate, resplit, swem
from textkg.matching.dataset import MatcherDataset
from textkg.matching.embeddings import EmbeddingTable
from textkg.metrics import scores
from textkg.models.api import CompletionAPIModel, CompletionEndpoint
from textkg.models.stub import StubModel

GOLDEN_TEXT = "PersonX becomes a great basketball player"
# One embedding file and one trained matcher serve every seed, as a user
# has one GloVe file; the texts come from the seed. With per-seed vectors
# the share of tuples the filter keeps swung by a third between seeds.
EMBEDDING_SEED = 0
# The cold CLI call's text: the same eight sentences for every seed, so
# that the call does the same work on top of the set-up whatever the seed.
COLD_TEXT = inputs.corpus(0, 1, (8, 8), 1, 0.0)[0]
DEEP_CHECKS = 8  # operations whose filtering is re-derived stage by stage


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Components:
    config: pl.PipelineConfig | None = None
    registry: Any = None
    model: Any = None
    matcher: Any = None
    scorer: Any = None
    data: dict = field(default_factory=dict)

    def close(self) -> None:
        session = getattr(self.scorer, "session", None)
        if session is not None:
            session.close()


@dataclass
class OpResult:
    output: Any
    tuples: int  # tuples the operation produced
    failed: bool  # the operation raised or returned a tuple without tails


def check_golden(root: Path) -> None:
    """The dry run of the README example is byte-identical to the golden file."""
    golden = (root / "tests" / "data" / "golden_infer.jsonl").read_bytes()
    graph = pl.infer(GOLDEN_TEXT, pl.PipelineConfig(dry_run=True))
    require(kg.serialize_graph(graph, "jsonl") == golden, "dry run differs from golden_infer.jsonl")


def stub_tail(t) -> list[str]:
    return [f"to <stub:{t.relation}:{t.head.text}>"]


def is_ordered_subset(sub, full) -> bool:
    it = iter(full)
    return all(any(s == f and s.tails == f.tails for f in it) for s in sub)


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, root: Path, tmp: Path, seed: int, smoke: bool):
        self.root, self.tmp, self.seed = root, tmp, seed
        self.size = {k: v[1] if smoke else v[0] for k, v in self.sizes.items()}
        self.kept: dict[int, Any] = {}  # outputs of the first DEEP_CHECKS operations
        self.outputs = 0

    def fresh_path(self, name: str) -> Path:
        """A new file name for each CLI output: on ext4, truncating a
        just-written file forces its writeback, which stalls ``open`` for
        tens of ms and would be timed as the program's."""
        self.outputs += 1
        return self.tmp / f"{self.outputs}-{name}"

    def setup(self) -> Components:
        raise NotImplementedError

    def cold_call(self) -> None:
        raise NotImplementedError

    def run(self, comps: Components, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, comps: Components, i: int, result: OpResult) -> None:
        pass

    def final_check(self, comps: Components) -> None:
        check_golden(self.root)

    def reset_counters(self) -> None:
        pass

    def server_stats(self) -> dict:
        return {}

    def environment(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class _TextWorkload(Workload):
    """Texts through ``infer``; an operation is one text."""

    def _cli(self, *args: str) -> None:
        """``textkg infer`` on COLD_TEXT, written to a new file."""
        out = self.fresh_path("cli-out.jsonl")
        code = cli.main(["infer", "--text", COLD_TEXT, *args, "--output", str(out)])
        require(code == 0, f"CLI infer exited with {code}")

    def run(self, comps: Components, i: int) -> OpResult:
        try:
            graph = pl.infer(self.texts[i % len(self.texts)], comps.config,
                             registry=comps.registry, model=comps.model,
                             matcher_model=comps.matcher, scorer=comps.scorer)
        except TextKGError:
            return OpResult(None, 0, True)
        return OpResult(graph, len(graph), any(not t.tails for t in graph))

    def check(self, comps: Components, i: int, result: OpResult) -> None:
        if i < DEEP_CHECKS and not result.failed:
            self.kept[i] = result.output

    def _check_filtering(self, comps: Components) -> None:
        """Re-run the kept operations with the filter off, judge the graph
        with ``filter_graph`` and compare with what ``infer`` returned."""
        unfiltered = replace(comps.config, filter="off")
        for i, graph in self.kept.items():
            text = self.texts[i]
            full = pl.infer(text, unfiltered, registry=comps.registry, model=comps.model,
                            matcher_model=comps.matcher)
            kept, judgments = filter_graph(full, text, comps.config.threshold, comps.scorer)
            require(len(judgments) == len(full), f"text {i}: a tuple was not judged")
            for j in judgments:
                require(j.score is None or 0.0 <= j.score <= 1.0,
                        f"text {i}: score {j.score} outside [0, 1]")
            require(is_ordered_subset(graph, full), f"text {i}: kept tuples are not an ordered subset")
            require(list(kept) == list(graph), f"text {i}: infer and filter_graph disagree")


class StubCorpus(_TextWorkload):
    name = "stub-corpus"
    sizes = {"texts": (3000, 40)}

    def __init__(self, *args):
        super().__init__(*args)
        self.texts = inputs.corpus(self.seed, self.size["texts"], (7, 9), 400, 0.05)

    def setup(self) -> Components:
        config = pl.PipelineConfig(backend="stub")
        registry = default_registry()
        return Components(config, registry, model=pl.resolve_model(config, registry))

    def cold_call(self) -> None:
        self._cli()

    def run(self, comps: Components, i: int) -> OpResult:
        result = super().run(comps, i)
        if result.output is not None:
            result.output = (result.output, kg.serialize_graph(result.output, "jsonl"))
        return result

    def check(self, comps: Components, i: int, result: OpResult) -> None:
        graph, data = result.output
        for t in graph:
            require(list(t.tails) == stub_tail(t), f"text {i}: wrong stub tail {t.tails!r}")
        # parsing costs as much as the operation, so only every 16th is read back
        if i % 16 == 0:
            require(list(kg.parse_graph(data, "jsonl")) == list(graph),
                    f"text {i}: JSONL does not round-trip")


class EmbedFilter(_TextWorkload):
    name = "embed-filter"
    sizes = {"texts": (2000, 30), "words": (100_000, 3000), "dim": (100, 16)}
    threshold = 0.75

    def __init__(self, *args):
        super().__init__(*args)
        self.texts = inputs.corpus(self.seed, self.size["texts"], (7, 9), 400, 0.05)
        self.embeddings = self.tmp / "embeddings.txt"
        words = inputs.vocabulary(self.size["words"])
        inputs.write_embeddings(self.embeddings, words, self.size["dim"], EMBEDDING_SEED)
        table = EmbeddingTable.load(self.embeddings)
        train_texts = inputs.corpus(EMBEDDING_SEED + 1, 100, (7, 9), 400, 0.05)
        train = MatcherDataset.from_pairs(
            (r["head"], r["labels"]) for r in inputs.matcher_examples(train_texts))
        self.matcher_path = self.tmp / "matcher.json"
        swem.train_swem_matcher(train, table, swem.TrainConfig(epochs=5, seed=EMBEDDING_SEED)
                                ).save(self.matcher_path)

    def _config(self) -> pl.PipelineConfig:
        return pl.PipelineConfig(matcher="model", matcher_model=str(self.matcher_path),
                                 embeddings=str(self.embeddings), filter="embedding",
                                 threshold=self.threshold)

    def setup(self) -> Components:
        config = self._config()
        registry = default_registry()
        return Components(config, registry, model=pl.resolve_model(config, registry),
                          matcher=pl.resolve_matcher_model(config),
                          scorer=pl.resolve_scorer(config, registry))

    def cold_call(self) -> None:
        self._cli("--matcher", "model", "--model", str(self.matcher_path),
                  "--embeddings", str(self.embeddings), "--filter", "embedding",
                  "--threshold", str(self.threshold))

    def check(self, comps: Components, i: int, result: OpResult) -> None:
        super().check(comps, i, result)
        for t in result.output:
            require(list(t.tails) == stub_tail(t), f"text {i}: wrong stub tail {t.tails!r}")

    def final_check(self, comps: Components) -> None:
        super().final_check(comps)
        self._check_filtering(comps)

    def environment(self) -> dict:
        return {"embedding_words": self.size["words"], "embedding_dim": self.size["dim"]}


class ApiMock(_TextWorkload):
    name = "api-mock"
    sizes = {"texts": (1500, 30)}
    relations = ("AtLocation", "ObjectUse", "xIntent", "xNeed", "xEffect", "Causes")
    latency_ms = 1.0
    share_503 = 0.05
    backoff_s = 0.003

    def __init__(self, *args, share_429: float = 0.0):
        super().__init__(*args)
        # two sentences each: with one or two, the median text switched
        # between the two sizes from seed to seed
        self.texts = inputs.corpus(self.seed, self.size["texts"], (2, 2), 40, 0.7)
        self.admin = requests.Session()
        self.server = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("mockserver.py")),
             "--seed", str(self.seed), "--latency-ms", str(self.latency_ms),
             "--share-503", str(self.share_503), "--share-429", str(share_429)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("mock server did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        # the CLI reads its endpoint and key from the environment only
        os.environ["KOGITO_API_URL"] = self.base + "/complete"
        os.environ["KOGITO_API_KEY"] = "bench-key"

    def setup(self) -> Components:
        config = pl.PipelineConfig(backend="api", relations=self.relations, filter="external",
                                   external_url=self.base + "/relevance")
        registry = default_registry()
        endpoint = CompletionEndpoint(url=self.base + "/complete", api_key="bench-key",
                                      max_in_flight=len(os.sched_getaffinity(0)),
                                      backoff_base=self.backoff_s)
        return Components(config, registry,
                          model=CompletionAPIModel(endpoint=endpoint, registry=registry),
                          scorer=pl.resolve_scorer(config, registry))

    def cold_call(self) -> None:
        self._cli("--backend", "api", "--relations", ",".join(self.relations),
                  "--filter", "external", "--external-url", self.base + "/relevance")

    def check(self, comps: Components, i: int, result: OpResult) -> None:
        super().check(comps, i, result)
        for t in result.output or ():
            if t.tails:
                require(list(t.tails) == [answer_for(comps.model.prompt_for(t))],
                        f"text {i}: tuple carries another prompt's answer")

    def final_check(self, comps: Components) -> None:
        super().final_check(comps)
        self._check_filtering(comps)

    def reset_counters(self) -> None:
        self.admin.post(self.base + "/reset", json={}, timeout=10).raise_for_status()

    def server_stats(self) -> dict:
        response = self.admin.get(self.base + "/stats", timeout=10)
        response.raise_for_status()
        return response.json()

    def close(self) -> None:
        self.admin.close()
        self.server.stdin.close()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


class OfflineEval(Workload):
    name = "offline-eval"
    sizes = {"pool": (20_000, 1500), "refs": (2000, 100), "words": (20_000, 1500)}
    def __init__(self, *args):
        super().__init__(*args)
        pool, words = inputs.labelled_pool(self.seed, self.size["pool"], self.size["words"])
        self.pool_path = self.tmp / "pool.jsonl"
        inputs.write_jsonl(self.pool_path, pool)
        self.refs_path = self.tmp / "refs.jsonl"
        inputs.write_jsonl(self.refs_path, inputs.reference_graph(self.seed, self.size["refs"], 3))
        self.embeddings = self.tmp / "pool-embeddings.txt"
        inputs.write_embeddings(self.embeddings, words, 50, self.seed)

    def setup(self) -> Components:
        return Components(data={
            "pool": MatcherDataset.from_jsonl(self.pool_path),
            "refs": kg.parse_graph(self.refs_path, "jsonl"),
            "table": EmbeddingTable.load(self.embeddings),
        })

    def cold_call(self) -> None:
        out = self.fresh_path("cli-eval.json")
        code = cli.main(["eval", "--graph", str(self.refs_path), "--out", str(out)])
        require(code == 0, f"CLI eval exited with {code}")

    def run(self, comps: Components, i: int) -> OpResult:
        data = comps.data
        train, test = resplit.resplit_dataset(data["pool"], resplit.ResplitConfig(n=1, seed=self.seed))
        model = swem.train_swem_matcher(train, data["table"],
                                        swem.TrainConfig(epochs=2, batch_size=128, seed=self.seed))
        f1 = evaluate.evaluate_matcher(model, test)
        report = scores.evaluate_model(StubModel(), data["refs"])
        return OpResult((train, test, f1, report), report.n_candidates, report.n_failures > 0)

    def check(self, comps: Components, i: int, result: OpResult) -> None:
        train, test, f1, report = result.output
        require(len(train) + len(test) == len(comps.data["pool"]), "resplit lost heads")
        for value in (f1.macro_f1, f1.micro_f1, *f1.per_group_f1.values()):
            require(0.0 <= value <= 1.0, f"F1 {value} outside [0, 1]")
        for metric, value in report.scores.items():
            high = 10.0 if metric == "cider" else 1.0
            require(0.0 <= value <= high, f"{metric} {value} outside [0, {high}]")
        if i == 0:
            self.kept[0] = (train, test)

    def final_check(self, comps: Components) -> None:
        super().final_check(comps)
        train, test = self.kept[0]
        require(resplit.count_overlap_violations(train, test, 1) == 0,
                "resplit breaks the n=1 overlap constraint")


WORKLOADS = {w.name: w for w in (StubCorpus, EmbedFilter, ApiMock, OfflineEval)}
