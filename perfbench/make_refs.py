"""Regenerate refs.json, the reference answers the benchmark checks against.

    python3 perfbench/make_refs.py

The references are ramseykit's own answers at the revision that defined
the benchmark; regenerate them only on purpose, when an answer is meant to
change.  Takes a few minutes on one core.  Covers references are
label-invariant aggregates of fixed base cores, so they hold for every
relabeling the workload draws.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ramseykit.cli import run  # noqa: E402

from checks import encode_graph6  # noqa: E402
from workloads import K3_G6, Construct, Count  # noqa: E402

# base cores per edge count: five edges allow only C5 and the diamond, and
# an odd total keeps the median latency inside one core's latencies
BASES_PER_EDGE_COUNT = {5: 2, 6: 4, 7: 4, 8: 5}
DRAWS_PER_EDGE_COUNT = 200
COVER_KEYS = ("core_n", "covers_total", "covers_in_scope", "min_slack",
              "equality_cases", "all_covers_overlap_ge2")


def cli(argv: list[str]) -> dict:
    code, text = run(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return json.loads(text)["result"]


def ear_core(rng: random.Random, m: int) -> tuple[int, tuple]:
    """Random 2-connected graph with m edges and at least four vertices:
    a cycle plus ears of zero to two inner vertices."""
    while True:
        length = rng.randint(3, m)
        edges = {tuple(sorted((i, (i + 1) % length))) for i in range(length)}
        n = length
        for _ in range(100):
            if len(edges) == m:
                break
            u, v = rng.sample(range(n), 2)
            inner = rng.randint(0, min(2, m - len(edges) - 1))
            path = [u, *range(n, n + inner), v]
            ear = {tuple(sorted(e)) for e in zip(path, path[1:])}
            if ear & edges:
                continue
            n += inner
            edges |= ear
        if len(edges) == m and n >= 4:
            return n, tuple(sorted(edges))


def covers_refs() -> list[dict]:
    rng = random.Random("covers/bases")
    bases, seen = [], set()
    for m, wanted in BASES_PER_EDGE_COUNT.items():
        picked = 0
        for _ in range(DRAWS_PER_EDGE_COUNT):
            if picked == wanted:
                break
            n, edges = ear_core(rng, m)
            g6 = encode_graph6(n, edges)
            result = cli(["covers", "--graph", g6, "--pattern", K3_G6])
            degrees = sorted(sum(w in e for e in edges) for w in range(n))
            key = (n, tuple(degrees), result["covers_total"])
            if key in seen:
                continue
            seen.add(key)
            expect = {k: result[k] for k in COVER_KEYS}
            expect["violations"] = len(result["violations"])
            bases.append({"graph6": g6, "edges": m, "expect": expect})
            picked += 1
    return bases


def count_refs() -> dict:
    counts, constant = [], None
    for k in range(Count.universe):
        result = cli(Count.argv(k))
        counts.append(result["counts"])
        const = {key: result[key] for key in ("trials", "cover_size_min", "exponent_bound",
                                              "cover_size_max", "exponent_dominant")}
        if constant is None:
            constant = const
        elif const != constant:
            raise SystemExit("count constants vary across seeds")
    return {"constant": constant, "counts": counts}


def construct_refs() -> dict:
    out = {}
    for n in Construct.n_values:
        for seed in range(Construct.seeds_per_n):
            result = cli(Construct.argv((n, seed)))
            rep = result["report"]
            out[f"{n}:{seed}"] = {
                "graph6_sha256": hashlib.sha256(result["graph6"].encode()).hexdigest(),
                "report.sampled_copies": rep["sampled_copies"],
                "report.union_edges": rep["union_edges"],
                "report.core_copy_counts": rep["core_copy_counts"],
                "report.deletions": rep["deletions"],
                "report.survivors_count": rep["survivors_count"],
                "report.density.fraction": rep["density"]["fraction"],
                "report.density.trials": rep["density"]["trials"],
            }
    return out


def main():
    refs = {"covers": covers_refs(), "count": count_refs(), "construct": construct_refs()}
    (HERE / "refs.json").write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
