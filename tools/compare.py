"""Pair runner: the benchmark at a base revision against this checkout.

    python3 tools/compare.py 50b630a --label baseline --pairs 10

The base revision is exported with `git archive` into a temporary
directory, which is removed afterwards; the other side is the working tree
this file sits in.  Each side runs its own unchanged `perfbench/run.py
--trace 0`, which imports ramseykit from the src/ next to it.  Every pair
runs both sides once on one seed, seeds counting up from 1, and the side
that runs first alternates from pair to pair, so the machine's drift falls
on both sides alike.  The workloads and the run length are BENCHMARK.json's
(`workloads`, `run_seconds`).  One run at a time, so two CPUs suffice.

Writes BENCH_<label>.json at the repository root: per workload, every
pair's end-to-end metrics, failure counts and correctness flags; per
metric, both medians, the base side's interquartile range and the number
of pairs in which the checkout did better, the direction taken from
BENCHMARK.json; and the machine line and both revisions.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed tree of rev, without .git, under dest."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {rev} failed")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its metric values, counts and machine line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout}:\n{done.stderr}")
    result = json.loads(lines[-1])
    machine = next(ln.split(":", 1)[1] for ln in lines if ln.startswith("# machine:"))
    return {
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "machine": json.loads(machine),
    }


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        summary[name] = {
            "better": direction,
            "base_median": statistics.median(base),
            "head_median": statistics.median(head),
            "base_iqr": iqr(base) if len(base) > 1 else 0.0,
            "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    doc = {
        "label": args.label,
        "base": {"rev": git("rev-parse", f"{args.base}^{{commit}}")},
        "head": {"rev": git("rev-parse", "HEAD"), "uncommitted_changes": dirty},
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ramseykit-base-") as tmp:
        export(doc["base"]["rev"], Path(tmp))
        checkouts = {"base": Path(tmp), "head": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for k in range(args.pairs):
                seed = k + 1
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds)
                # the archived side has no .git, so its machine line reads
                # git "unknown"; both revisions are recorded above
                doc.setdefault("machine", pair["head"].pop("machine"))
                pair["base"].pop("machine")
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{s} {pair[s]['metrics']['ops_per_s']:.4g} ops/s" for s in SIDES),
                    file=sys.stderr)
            doc["workloads"][workload] = {
                "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
                "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
                "metrics": summarise(pairs, better),
                "pairs": pairs,
            }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, w in doc["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:9} {name:15} {m['base_median']:10.4g} -> {m['head_median']:10.4g}"
                  f"  base IQR {m['base_iqr']:.3g}  better in {m['head_wins']}/{args.pairs}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
