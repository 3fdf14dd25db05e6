"""Smoke-size runs of the whole benchmark: output schema and metric names
only, no timing bounds.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    from layers import PER_LAYER
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    (copy / "run.py").write_bytes((BENCH / "run.py").read_bytes())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "stub-corpus",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rejected_completions_count_as_failed_operations(tmp_path):
    """Injected 429s are not retried by the client today: the tuple comes
    back without tails and its text counts as failed, not as wrong."""
    workload = workloads.ApiMock(ROOT, tmp_path, 5, True, share_429=0.3)
    try:
        comps = workload.setup()
        loop = run.Loop().run(workload, comps, count=10)
        workload.final_check(comps)
        comps.close()
        stats = workload.server_stats()
    finally:
        workload.close()
    assert loop.failed > 0
    assert stats["status"].get("429", 0) > 0
