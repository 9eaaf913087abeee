"""Closed-loop benchmark of ramseykit, one workload per process.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

One client sends the next operation only after the previous one returns,
always in this process and with --jobs 1.  ramseykit is imported from
src/ of the checkout this file sits in.  Inputs come in rounds generated
from --seed; the clock stops between rounds, while the next round is
generated and the last one is checked, and the run ends at the first round
boundary after --seconds of timed work.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same rounds
twice, first with every public ramseykit function wrapped in a span (see
spans.py) and then without, and reports the per-layer metrics plus the
ratio of the two wall times; the spans go to perfbench/out/.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
SETUP_REPEATS = 7
MAX_REASONS_SHOWN = 5


def load_ramseykit():
    """Import ramseykit afresh, so each set-up pays for the import again."""
    for name in [m for m in sys.modules if m == "ramseykit" or m.startswith("ramseykit.")]:
        del sys.modules[name]
    importlib.import_module("ramseykit.cli")
    layers = ("graphs", "blocks", "embed", "degeneracy", "certify", "ramsey",
              "construction", "cli", "report")
    return types.SimpleNamespace(**{m: sys.modules[f"ramseykit.{m}"] for m in layers})


def set_up(workload, seed: int):
    """Import, first-round input generation and one warm-up operation."""
    start = time.perf_counter()
    runner = workload.runner(load_ramseykit())
    rounds = workload.rounds(seed)
    for op in next(rounds):
        runner.prepare(op)
    runner.call(runner.prepare(workload.warmup()))
    return time.perf_counter() - start, runner


class Result:
    def __init__(self):
        self.rounds: list[tuple[float, list[float]]] = []  # (wall, latencies)
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    @property
    def wall(self) -> float:
        return sum(r[0] for r in self.rounds)


def timed(runner, rounds, seconds: float, call, max_rounds: int | None = None) -> Result:
    """Run whole rounds until seconds of timed work (or max_rounds) are done."""
    res = Result()
    gc.collect()
    for ops in rounds:
        prepared = [runner.prepare(op) for op in ops]
        outs, latencies = [], []
        round_start = time.perf_counter()
        for args in prepared:
            begin = time.perf_counter()
            try:
                out = call(args)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            outs.append(out)
            latencies.append(time.perf_counter() - begin)
        round_wall = time.perf_counter() - round_start
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            else:
                reason = runner.check(op, out)
            res.attempted += 1
            if reason:
                res.failed += 1
                if len(res.reasons) < MAX_REASONS_SHOWN:
                    res.reasons.append(f"{op!r:.80}: {reason}")
        res.rounds.append((round_wall, latencies))
        if len(res.rounds) == max_rounds or (max_rounds is None and res.wall >= seconds):
            break
    return res


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown"
    head = CHECKOUT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = CHECKOUT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = target.read_text().strip() if target and target.is_file() else ref
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "git": rev}


def show_tally(runner):
    if runner.tally:
        print("# tally: " + json.dumps(dict(sorted(runner.tally.items()))))


def end_to_end(workload, res: Result, setup_s: float) -> dict:
    q = workload.tail_percentile
    lat = sorted(x * 1000 for r in res.rounds for x in r[1])
    beyond = len(lat) - math.ceil(q / 100 * len(lat))
    note = "" if beyond >= 10 else " (fewer than 10 operations beyond it)"
    print(f"# {len(res.rounds)} rounds, {len(lat)} operations: "
          f"latency_tail_ms is p{q} with {beyond} beyond it{note}")
    print(f"# failed_ratio = {res.failed / res.attempted}")
    return {
        "ops_per_s": ((res.attempted - res.failed) / res.wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (percentile(lat, q), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ramseykit" / "__init__.py").is_file():
        print(f"error: no ramseykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer, metric_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    workload = WORKLOADS[args.workload](refs)
    print("# machine: " + json.dumps(machine(), sort_keys=True))

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds_taken, runner = set_up(workload, args.seed)
        setups.append(seconds_taken)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            res = timed(runner, workload.rounds(args.seed), args.seconds, tracer.rooted(runner.call))
        finally:
            tracer.uninstall()
        show_tally(runner)
        plain = timed(runner, workload.rounds(args.seed), args.seconds, runner.call,
                      max_rounds=len(res.rounds))
        values = tracer.metrics(res.attempted, res.wall / plain.wall)
        metrics = {name: (values[name], unit) for name, unit in metric_names()}
        res.attempted += plain.attempted
        res.failed += plain.failed
        res.reasons += plain.reasons
        (HERE / "out").mkdir(exist_ok=True)
        tracer.dump(HERE / "out" / f"spans-{workload.name}.npz")
    else:
        res = timed(runner, workload.rounds(args.seed), args.seconds, runner.call)
        show_tally(runner)
        metrics = end_to_end(workload, res, statistics.median(setups))

    for reason in res.reasons:
        print(f"# FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
