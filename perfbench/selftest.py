"""Self-tests of the benchmark's checks, inputs and tracing.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import (  # noqa: E402
    adjacency,
    check_coloring,
    check_embedding,
    decode_graph6,
    encode_graph6,
    forced_mono_clique,
    has_clique,
)
from spans import LAYERS, Tracer, metric_names  # noqa: E402
from workloads import BOWTIE, K3, TWO_TRIANGLES, WORKLOADS, Desk, compare  # noqa: E402

REFS = json.loads((HERE / "refs.json").read_text())


def desk_certificates(target: tuple, branch: str):
    """(host op, certificate) pairs for K3 and the target, on the given branch."""
    rk = run.load_ramseykit()
    pattern, target = rk.graphs.Graph.from_edges(*K3), rk.graphs.Graph.from_edges(*target)
    for op in next(Desk(REFS).rounds(7)):
        cert = rk.certify.embed_or_color(rk.graphs.Graph.from_edges(*op), pattern, target)
        if cert.branch == branch:
            yield op, cert


class CheckersRejectCorruption(unittest.TestCase):
    def test_dropped_embedding_edge(self):
        op, cert = next(desk_certificates(BOWTIE, "embedding"))
        n, edges = op
        self.assertIsNone(check_embedding(adjacency(n, edges), BOWTIE[0], BOWTIE[1], cert.embedding))
        u, v = BOWTIE[1][0]
        dropped = (min(cert.embedding[u], cert.embedding[v]), max(cert.embedding[u], cert.embedding[v]))
        host = adjacency(n, [e for e in edges if e != dropped])
        self.assertIsNotNone(check_embedding(host, BOWTIE[0], BOWTIE[1], cert.embedding))

    def test_recolored_vertex_makes_monochromatic_copy(self):
        # the disjoint case colors each family triangle with two colors
        for op, cert in desk_certificates(TWO_TRIANGLES, "coloring"):
            n, edges = op
            adj = adjacency(n, edges)
            colors = list(cert.coloring.colors)
            self.assertIsNone(check_coloring(adj, colors, *K3, 34))
            for tri in itertools.combinations(range(n), 3):
                if not all((adj[a] >> b) & 1 for a, b in itertools.combinations(tri, 2)):
                    continue
                a, b, c = tri
                if colors[a] == colors[b] != colors[c]:
                    colors[c] = colors[a]
                    self.assertIsNotNone(check_coloring(adj, colors, *K3, 34))
                    return
        self.fail("no coloring certificate with a two-colored triangle")

    def test_palette_over_bound(self):
        self.assertIsNotNone(check_coloring(adjacency(3, []), [0, 1, 2], *K3, 2))

    def test_ramsey_oracle(self):
        k5 = adjacency(5, itertools.combinations(range(5), 2))
        c5 = adjacency(5, [(i, (i + 1) % 5) for i in range(5)])
        self.assertTrue(forced_mono_clique(k5, 3))
        self.assertFalse(forced_mono_clique(c5, 3))
        self.assertTrue(has_clique(k5, 4))
        self.assertFalse(has_clique(c5, 3))

    def test_graph6_codec_matches_ramseykit(self):
        rk = run.load_ramseykit()
        rng = random.Random(3)
        for n in (0, 1, 5, 62, 63, 150):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            text = rk.graphs.write_graph6(rk.graphs.Graph.from_edges(n, edges))
            if n <= 62:
                self.assertEqual(encode_graph6(n, edges), text)
            self.assertEqual(decode_graph6(text), (n, adjacency(n, edges)))
        self.assertRaises(ValueError, decode_graph6, "C~x")

    def test_reference_compare_ignores_added_keys(self):
        doc = {"counts": [1, 2], "metrics": {"nodes": 5}}
        self.assertIsNone(compare(doc, {"counts": [1, 2]}))
        self.assertIsNotNone(compare(doc, {"counts": [1, 3]}))
        self.assertIsNotNone(compare(doc, {"mean": 1.5}))


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        def first_rounds(workload, seed):
            rounds = workload.rounds(seed)
            return json.dumps([next(rounds) for _ in range(3)]).encode()

        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                w = cls(REFS)
                self.assertEqual(first_rounds(w, 1), first_rounds(w, 1))
                self.assertNotEqual(first_rounds(w, 1), first_rounds(w, 2))


class Tracing(unittest.TestCase):
    def test_self_time_within_wall(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                workload = cls(REFS)
                _, runner = run.set_up(workload, 3)
                tracer = Tracer()
                tracer.install()
                try:
                    res = run.timed(runner, workload.rounds(3), 0.2, tracer.rooted(runner.call))
                finally:
                    tracer.uninstall()
                self.assertEqual(res.failed, 0, res.reasons)
                values = tracer.metrics(res.attempted, 1.0)
                layer_self = sum(values[f"{layer}.self_s"] for layer in LAYERS) * res.attempted
                self.assertLessEqual(layer_self, res.wall)
                if name == "count":
                    self.assertEqual(values["embed.copies_per_embedding"], 0.125)

    def test_uninstall_restores_functions(self):
        rk = run.load_ramseykit()
        before = rk.embed.find_embedding, rk.cli.run, rk.certify.find_embedding
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(rk.embed.find_embedding, before[0])
        self.assertIs(rk.certify.find_embedding, rk.embed.find_embedding)
        tracer.uninstall()
        self.assertEqual((rk.embed.find_embedding, rk.cli.run, rk.certify.find_embedding), before)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_the_run_reports(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in doc["workloads"]}, set(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], metric_names())
        res = run.Result()
        res.rounds.append((1.0, [0.001] * 20))
        res.attempted = 20
        with contextlib.redirect_stdout(io.StringIO()):
            reported = run.end_to_end(Desk(REFS), res, 0.5)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         [(name, unit) for name, (_, unit) in reported.items()])

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "desk", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
