"""The four workloads: seeded inputs, one operation each, and its check.

A workload yields its inputs in rounds.  Inputs are plain data (ints,
tuples, argv strings) drawn from random.Random seeded with the workload
name and the --seed value, so one seed always gives the same bytes.  A
runner, bound to one import of ramseykit, turns an input into a call and
checks what the call returned with the code in checks.py, or against the
reference values in refs.json where an independent recomputation would
need the program's own random sampler.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter

from checks import (
    adjacency,
    check_coloring,
    check_embedding,
    decode_graph6,
    encode_graph6,
    forced_mono_clique,
    has_clique,
)

K2 = (2, ((0, 1),))
K3 = (3, ((0, 1), (0, 2), (1, 2)))
K4 = (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
C4 = (4, ((0, 1), (1, 2), (2, 3), (0, 3)))
P3 = (3, ((0, 1), (1, 2)))
BOWTIE = (5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))
TWO_TRIANGLES = (6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))

K3_G6 = encode_graph6(*K3)
K4_G6 = encode_graph6(*K4)
C4_G6 = encode_graph6(*C4)


def lookup(doc: dict, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def compare(doc: dict, expected: dict) -> str | None:
    """Field-by-field match of dotted paths; keys absent from expected,
    such as ones a later version adds to the report, are not compared."""
    for path, want in expected.items():
        try:
            got = lookup(doc, path)
        except (KeyError, TypeError):
            return f"report lacks {path}"
        if got != want:
            return f"{path} = {got!r}, reference {want!r}"
    return None


def cli_document(out, command: str) -> tuple[dict | None, str | None]:
    """Parsed report of one cli.run call, or the reason it failed."""
    code, text = out
    if code != 0:
        return None, f"{command} exited {code}"
    doc = json.loads(text)
    if doc.get("status") != "ok" or doc.get("command") != command:
        return None, f"{command} returned status {doc.get('status')!r}"
    return doc, None


# --- desk ---------------------------------------------------------------------


class Desk:
    """Library calls on small random connected hosts."""

    name = "desk"
    tail_percentile = 90
    hosts_per_round = 256
    edge_p = 0.15
    # (pattern, target, palette bound pieces * (2(a-1)(b-2) + 1))
    pairs = ((K3, BOWTIE, 26), (K2, P3, 6), (K3, TWO_TRIANGLES, 34))

    def __init__(self, refs: dict):
        pass  # every desk answer is checked directly, without references

    @classmethod
    def host(cls, rng: random.Random, n: int) -> tuple:
        """A random spanning tree plus G(n, edge_p) edges, so hosts are connected."""
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {tuple(sorted((perm[rng.randrange(i)], perm[i]))) for i in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < cls.edge_p}
        return n, tuple(sorted(edges))

    def rounds(self, seed: int):
        rng = random.Random(f"desk/{seed}")
        while True:
            yield [self.host(rng, 8 + i % 5) for i in range(self.hosts_per_round)]

    def warmup(self):
        return self.host(random.Random("desk/warmup"), 10)

    def runner(self, rk) -> "DeskRunner":
        return DeskRunner(rk, self.pairs)


class DeskRunner:
    def __init__(self, rk, pairs):
        graph = rk.graphs.Graph.from_edges
        self.certify, self.ramsey, self.graph = rk.certify, rk.ramsey, graph
        self.pairs = pairs
        self.calls = [(graph(*pattern), graph(*target)) for pattern, target, _ in pairs]
        self.k3 = graph(*K3)
        self.tally: Counter = Counter()

    def prepare(self, op):
        return self.graph(*op)

    def call(self, host):
        certs = [self.certify.embed_or_color(host, p, t) for p, t in self.calls]
        return certs, self.ramsey.is_ramsey(host, self.k3, 2)

    def check(self, op, out) -> str | None:
        n, edges = op
        adj = adjacency(n, edges)
        certs, decision = out
        branches = set()
        for (pattern, target, bound), cert in zip(self.pairs, certs):
            branches.add(cert.branch)
            self.tally[f"branch_{cert.branch}"] += 1
            if cert.branch == "embedding":
                reason = check_embedding(adj, target[0], target[1], cert.embedding)
            elif cert.branch == "coloring":
                reason = check_coloring(adj, cert.coloring.colors, *pattern, bound)
            else:
                reason = f"certificate branch {cert.branch!r}"
            if reason:
                return reason
        self.tally["ops_with_both_branches"] += branches == {"embedding", "coloring"}
        if decision.status != "decided":
            return f"is_ramsey status {decision.status!r}"
        self.tally[f"ramsey_{decision.ramsey}"] += 1
        if decision.ramsey:
            if not forced_mono_clique(adj, 3):
                return "is_ramsey says Ramsey, but a 2-coloring avoids monochromatic K3"
            return None
        return check_coloring(adj, decision.witness.colors, *K3, 2)


# --- construct ------------------------------------------------------------------


class Construct:
    """The paper's pipeline end to end through the CLI."""

    name = "construct"
    tail_percentile = 75
    n_values = (100, 125, 150, 175, 200)
    seeds_per_n = 64

    def __init__(self, refs: dict):
        self.refs = refs["construct"]

    def rounds(self, seed: int):
        rng = random.Random(f"construct/{seed}")
        orders = {}
        for n in self.n_values:
            orders[n] = list(range(self.seeds_per_n))
            rng.shuffle(orders[n])
        r = 0
        while True:
            ns = list(self.n_values)
            rng.shuffle(ns)
            yield [(n, orders[n][r % self.seeds_per_n]) for n in ns]
            r += 1

    def warmup(self):
        return (self.n_values[0], self.seeds_per_n)

    @staticmethod
    def argv(op) -> list[str]:
        n, seed = op
        return ["construct", "-n", str(n), "--eps", "0.3", "--pattern", K3_G6,
                "--family", K4_G6, "--seed", str(seed)]

    def runner(self, rk) -> "CliRunner":
        return CliRunner(rk, self.argv, self.check)

    def check(self, op, out) -> str | None:
        doc, reason = cli_document(out, "construct")
        if reason:
            return reason
        result = doc["result"]
        try:
            n, adj = decode_graph6(result["graph6"])
        except ValueError as exc:
            return f"output graph6 does not decode: {exc}"
        if has_clique(adj, 4):
            return "output graph contains K4"
        if result["report"]["family_free"] != [True]:
            return f"family_free = {result['report']['family_free']!r}"
        expected = dict(self.refs[f"{op[0]}:{op[1]}"])
        digest = expected.pop("graph6_sha256")
        if hashlib.sha256(result["graph6"].encode()).hexdigest() != digest:
            return "output graph differs from the reference"
        return compare(result, expected)


# --- count ------------------------------------------------------------------------


class Count:
    """Copy-count distribution of core C4 over sampled hosts, via the CLI."""

    name = "count"
    tail_percentile = 90
    ops_per_round = 16
    trials = 4
    n = 120
    universe = 2048  # distinct operation seeds with committed answers

    def __init__(self, refs: dict):
        self.refs = refs["count"]

    def rounds(self, seed: int):
        # one operation from each band of operations of similar work (their
        # total copy count), so every round carries about the same work
        rng = random.Random(f"count/{seed}")
        counts = self.refs["counts"]
        by_work = sorted(range(len(counts)), key=lambda k: (sum(counts[k]), k))
        width = len(by_work) // self.ops_per_round
        bands = [by_work[b * width:(b + 1) * width] for b in range(self.ops_per_round)]
        for band in bands:
            rng.shuffle(band)
        r = 0
        while True:
            ops = [band[r % width] for band in bands]
            rng.shuffle(ops)
            yield ops
            r += 1

    def warmup(self):
        return len(self.refs["counts"])

    @classmethod
    def argv(cls, k: int) -> list[str]:
        # trial t of an operation samples with seed (4k) ^ t = 4k + t, so no
        # two operations share a sampled host
        return ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", str(cls.n),
                "--eps", "0.3", "--trials", str(cls.trials), "--seed", str(cls.trials * k),
                "--jobs", "1"]

    def runner(self, rk) -> "CliRunner":
        return CliRunner(rk, self.argv, self.check)

    def check(self, k, out) -> str | None:
        doc, reason = cli_document(out, "count")
        if reason:
            return reason
        counts = self.refs["counts"][k]
        sqrt_n = math.sqrt(self.n)
        expected = dict(self.refs["constant"])
        expected.update(
            counts=counts,
            mean=sum(counts) / self.trials,
            max=max(counts),
            sqrt_n=sqrt_n,
            frac_within_sqrt=sum(1 for x in counts if x <= sqrt_n) / self.trials,
        )
        return compare(doc["result"], expected)


# --- covers -------------------------------------------------------------------------


class Covers:
    """Exhaustive trace-cover reports on relabeled 2-connected cores."""

    name = "covers"
    tail_percentile = 90

    def __init__(self, refs: dict):
        self.bases = refs["covers"]

    def rounds(self, seed: int):
        rng = random.Random(f"covers/{seed}")
        while True:
            order = list(range(len(self.bases)))
            rng.shuffle(order)
            ops = []
            for b in order:
                n = decode_graph6(self.bases[b]["graph6"])[0]
                ops.append((b, tuple(rng.sample(range(n), n))))
            yield ops

    def warmup(self):
        n = decode_graph6(self.bases[0]["graph6"])[0]
        return (0, tuple(range(n)))

    def core(self, op) -> tuple[int, list[tuple[int, int]]]:
        b, perm = op
        n, adj = decode_graph6(self.bases[b]["graph6"])
        edges = [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if (adj[u] >> v) & 1]
        return n, sorted((min(e), max(e)) for e in edges)

    def argv(self, op) -> list[str]:
        return ["covers", "--graph", encode_graph6(*self.core(op)), "--pattern", K3_G6]

    def runner(self, rk) -> "CliRunner":
        return CliRunner(rk, self.argv, self.check)

    def check(self, op, out) -> str | None:
        doc, reason = cli_document(out, "covers")
        if reason:
            return reason
        result = doc["result"]
        expected = self.bases[op[0]]["expect"]
        reason = compare(result, {k: v for k, v in expected.items() if k != "violations"})
        if reason:
            return reason
        if len(result["violations"]) != expected["violations"]:
            return f"{len(result['violations'])} violations, reference {expected['violations']}"
        return self.check_min_cover(op, result)

    def check_min_cover(self, op, result) -> str | None:
        """The reported minimizing cover covers every core edge with traces
        of at most three vertices, and its slack is the reported minimum."""
        cover = result["min_cover"]
        if cover is None:
            return None if result["min_slack"] is None else "min_slack without min_cover"
        n, edges = self.core(op)
        covered = set()
        for trace in cover["traces"]:
            t_edges = {tuple(e) for e in trace["edges"]}
            if not t_edges <= set(edges):
                return "min_cover trace uses a non-edge"
            if sorted({w for e in t_edges for w in e}) != trace["vertices"]:
                return "min_cover trace vertices are not its edge endpoints"
            if len(trace["vertices"]) > K3[0]:
                return "min_cover trace does not embed into K3"
            covered |= t_edges
        if covered != set(edges):
            return "min_cover leaves a core edge uncovered"
        sum_v = sum(len(t["vertices"]) for t in cover["traces"])
        size = len(cover["traces"])
        if (cover["sum_v"], cover["size"]) != (sum_v, size):
            return "min_cover sum_v or size is wrong"
        if sum_v - n - size != result["min_slack"]:
            return "min_cover slack differs from min_slack"
        return None


class CliRunner:
    """Runs one argv through ramseykit.cli.run in this process."""

    def __init__(self, rk, argv, check):
        self.cli = rk.cli
        self.prepare = argv
        self.check = check
        self.tally: Counter = Counter()

    def call(self, argv):
        return self.cli.run(argv)


WORKLOADS = {w.name: w for w in (Desk, Construct, Count, Covers)}
