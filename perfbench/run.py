"""textkg benchmark: closed-loop workloads over the public API.

    python3 perfbench/run.py --workload stub-corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root; the package is imported from ``src/``. One
client in one process sends the next operation only after the previous
one finished. Inputs come from ``--seed`` alone. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same operations untraced and
then traced and prints the per-layer metrics with the tracing overhead.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output check passed. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("stub-corpus", "embed-filter", "api-mock", "offline-eval")
END_TO_END = (
    ("setup_s", "s"),
    ("cold_call_s", "s"),
    ("ops_per_s", "1/s"),
    ("tuples_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
WARMUP_OPS = 3
MIN_REPEATS, MIN_REPEAT_S = 3, 1.0  # set-up and cold calls: at least this many, this long


def repeat(fn, discard=None) -> tuple[list[float], object]:
    """Durations of ``fn()`` called at least MIN_REPEATS times and for at
    least MIN_REPEAT_S seconds in total, and the last result; earlier
    results go to ``discard``."""
    times: list[float] = []
    result = None
    total = 0.0
    while len(times) < MIN_REPEATS or total < MIN_REPEAT_S:
        if discard is not None and result is not None:
            discard(result)
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        total += times[-1]
    return times, result


class Loop:
    """Closed loop: run operations back to back, checking each output
    outside the timed region."""

    def __init__(self):
        self.latencies: list[float] = []
        self.tuples = 0
        self.failed = 0

    def run(self, workload, comps, seconds: float | None = None, count: int | None = None,
            tracer=None) -> "Loop":
        i = 0
        busy = 0.0
        while (count is None and busy < seconds) or (count is not None and i < count):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            result = workload.run(comps, i)
            elapsed = time.perf_counter() - start
            busy += elapsed
            self.latencies.append(elapsed)
            self.tuples += result.tuples
            self.failed += result.failed
            if result.output is not None:
                if tracer is not None:
                    tracer.active = False
                workload.check(comps, i, result)
                if tracer is not None:
                    tracer.active = True
            i += 1
        return self

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def measure(workload, seconds: float) -> tuple[dict, Loop, dict]:
    """End-to-end metrics of one untraced run."""
    from layers import percentile

    setup_times, comps = repeat(workload.setup, lambda c: c.close())
    try:
        Loop().run(workload, comps, count=WARMUP_OPS)
        workload.cold_call()  # untimed: on api-mock it meets the injected 503s
        cold_times, _ = repeat(workload.cold_call)
        workload.reset_counters()
        gc.collect()
        loop = Loop().run(workload, comps, seconds=seconds)
        workload.final_check(comps)
    finally:
        comps.close()
    ms = [t * 1e3 for t in loop.latencies]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cold_call_s": statistics.median(cold_times),
        "ops_per_s": len(ms) / loop.busy,
        "tuples_per_s": loop.tuples / loop.busy,
        "op_p50_ms": percentile(ms, 50),
        "op_p90_ms": percentile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup": len(setup_times), "cold_calls": len(cold_times), "ops": len(ms)}
    return metrics, loop, samples


def measure_traced(workload, seconds: float, spans_prefix: Path) -> tuple[dict, Loop, dict]:
    """Per-layer metrics: the same operations run untraced, then traced."""
    from layers import install, per_layer
    from tracing import Tracer

    setup_tracer, cold_tracer, loop_tracer = Tracer(), Tracer(), Tracer()
    install(setup_tracer)
    try:
        comps = workload.setup()
    finally:
        setup_tracer.remove()
    try:
        Loop().run(workload, comps, count=WARMUP_OPS)
        install(cold_tracer)
        try:
            workload.cold_call()
        finally:
            cold_tracer.remove()
        workload.reset_counters()
        gc.collect()
        untraced = Loop().run(workload, comps, seconds=seconds / 2)
        n_ops = len(untraced.latencies)
        workload.reset_counters()
        gc.collect()
        install(loop_tracer, comps)
        try:
            traced = Loop().run(workload, comps, count=n_ops, tracer=loop_tracer)
        finally:
            loop_tracer.remove()
        server = workload.server_stats()
        workload.final_check(comps)
    finally:
        comps.close()
    for phase, tracer in (("setup", setup_tracer), ("cold", cold_tracer), ("loop", loop_tracer)):
        tracer.write(f"{spans_prefix}-{phase}.jsonl")
    metrics = per_layer(loop_tracer, n_ops, setup_tracer, cold_tracer, 1, server,
                        untraced.busy, traced.busy)
    return metrics, traced, {"ops": n_ops, "spans": len(loop_tracer.spans)}


def run_one(args) -> int:
    import numpy
    import workloads
    from layers import PER_LAYER

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = None
    correct = True
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, tmp, args.seed, args.smoke)
        try:
            if args.trace:
                values, loop, samples = measure_traced(workload, args.seconds, OUT / f"spans-{tag}")
            else:
                values, loop, samples = measure(workload, args.seconds)
        except workloads.CheckError as e:
            print(f"check failed: {e}", file=sys.stderr)
            correct = False
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "clients": 1,
        "cores": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "src_lines": src_lines(), **workload.environment(),
    }
    report = {"environment": environment, "samples": samples, "metrics": metrics,
              "attempted": len(loop.latencies), "failed": loop.failed}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{args.workload:>13} {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"environment": environment, "samples": samples}))
    print(json.dumps({"correct": True, "attempted": len(loop.latencies), "failed": loop.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0:
            status = 1
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="textkg closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the harness's own tests; figures mean nothing")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "textkg" / "__init__.py").is_file():
        print(f"perfbench: no textkg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
