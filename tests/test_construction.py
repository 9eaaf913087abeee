import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import ramseykit
from ramseykit import _npexact, construction, embed
from ramseykit.construction import (
    ConstructionParams,
    CopySample,
    construct_family_free,
    enumerate_min_trace_covers,
    estimate_copy_count,
    estimate_density,
    sample_copy_hypergraph,
    total_copy_count,
    union_graph,
    verify_cover_inequality,
)
from ramseykit.embed import Copy, automorphism_count, contains_copy
from ramseykit.errors import NotApplicable, ParamOutOfRange, TooLarge
from ramseykit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    parse_graph6,
)

from helpers import (
    bowtie,
    c4_triangle_union_mean,
    copies_oracle,
    diamond,
    min_trace_covers_oracle,
    nonisomorphic_graphs,
    random_graph,
    random_graphs,
    trace_masks_oracle,
)

K3 = complete_graph(3)
C4 = cycle_graph(4)


class TestParams:
    def test_derivation(self):
        p = ConstructionParams.derive(100, K3, 0.3, seed=1, k_edges=4)
        assert p.a == 3
        assert p.delta0 == pytest.approx(0.075)
        assert p.delta == pytest.approx(0.0375)
        assert p.subset_size == math.floor(100 ** 0.925)
        assert p.p == pytest.approx(100.0 ** (-1.7))
        assert not p.p_clamped
        assert not p.eps_within_claim_bound  # 0.3 >= 1/8

    def test_claim_bound_flag(self):
        assert ConstructionParams.derive(100, K3, 0.1, k_edges=4).eps_within_claim_bound

    def test_clamping_at_tiny_n(self):
        # p = n^(1-a+eps) crosses 1 once eps exceeds a-1
        p = ConstructionParams.derive(10, K3, 2.05)
        assert p.p == 1.0 and p.p_clamped

    def test_validation(self):
        with pytest.raises(ParamOutOfRange):
            ConstructionParams.derive(0, K3, 0.3)
        with pytest.raises(ParamOutOfRange):
            ConstructionParams.derive(100, K3, -0.1)
        with pytest.raises(ParamOutOfRange):
            ConstructionParams.derive(100, complete_graph(1), 0.3)
        with pytest.raises(ParamOutOfRange):
            ConstructionParams.derive(100, K3, 0.3, p_override=1.5)
        with pytest.raises(ParamOutOfRange):
            # subset size collapses below the pattern order
            ConstructionParams.derive(2, complete_graph(2), 0.9)


class TestSampling:
    def test_total_copy_count_closed_form(self):
        for n, pattern in [(30, K3), (10, C4), (8, complete_graph(4)), (12, path_graph(3))]:
            expected = (
                math.comb(n, pattern.n)
                * math.factorial(pattern.n)
                // automorphism_count(pattern)
            )
            assert total_copy_count(n, pattern) == expected

    def test_total_copy_count_of_a_pattern_larger_than_n(self):
        assert total_copy_count(2, complete_graph(3)) == 0

    def test_p_zero_empty(self):
        params = ConstructionParams.derive(30, K3, 0.3, p_override=0.0)
        assert sample_copy_hypergraph(params, K3).copies == []

    def test_p_one_exhaustive(self):
        params = ConstructionParams.derive(30, K3, 0.3, p_override=1.0)
        sample = sample_copy_hypergraph(params, K3)
        assert len(sample.copies) == 4060
        assert sample.total_copies == 4060
        assert len({c.key() for c in sample.copies}) == 4060

    def test_binomial_mean_five_sigma(self):
        T = total_copy_count(100, K3)
        p = 100.0 ** (-1.7)
        draws = []
        for seed in range(20):
            params = ConstructionParams.derive(100, K3, 0.3, seed=seed)
            draws.append(sample_copy_hypergraph(params, K3).requested)
        sigma = math.sqrt(T * p * (1 - p))
        assert abs(statistics.mean(draws) - T * p) <= 5 * sigma / math.sqrt(20)

    def test_distinct_and_within_range(self):
        params = ConstructionParams.derive(60, K3, 0.3, seed=3)
        sample = sample_copy_hypergraph(params, K3)
        assert len({c.key() for c in sample.copies}) == len(sample.copies)
        assert len(sample.copies) == sample.requested
        for copy in sample.copies:
            assert len(copy.vertices) == 3
            assert len(copy.edges) == 3
            assert all(0 <= v < 60 for v in copy.vertices)

    def test_deterministic(self):
        params = ConstructionParams.derive(50, K3, 0.3, seed=11)
        a = sample_copy_hypergraph(params, K3)
        b = sample_copy_hypergraph(params, K3)
        assert [c.key() for c in a.copies] == [c.key() for c in b.copies]

    def test_pattern_mismatch(self):
        params = ConstructionParams.derive(30, K3, 0.3)
        with pytest.raises(ParamOutOfRange):
            sample_copy_hypergraph(params, complete_graph(4))


class TestUnionGraph:
    def test_empty(self):
        params = ConstructionParams.derive(12, K3, 0.3, p_override=0.0)
        g = union_graph(sample_copy_hypergraph(params, K3))
        assert g == empty_graph(12)

    def test_single_copy(self):
        params = ConstructionParams.derive(12, K3, 0.3)
        sample = CopySample(
            [Copy(frozenset({1, 5, 7}), frozenset({(1, 5), (1, 7), (5, 7)}))],
            params, 0, 1,
        )
        assert union_graph(sample).m == 3

    def test_shared_edge(self):
        params = ConstructionParams.derive(12, K3, 0.3)
        sample = CopySample(
            [
                Copy(frozenset({0, 1, 2}), frozenset({(0, 1), (0, 2), (1, 2)})),
                Copy(frozenset({1, 2, 3}), frozenset({(1, 2), (1, 3), (2, 3)})),
            ],
            params, 0, 2,
        )
        assert union_graph(sample).m == 5


class TestTraceCovers:
    def test_c4_k3_catalogue(self):
        covers = enumerate_min_trace_covers(C4, K3)
        assert len(covers) == 11
        assert sorted(c.size for c in covers) == [2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4]
        two = [c for c in covers if c.size == 2]
        assert all(c.sum_v == 6 and c.v_sizes == [3, 3] for c in two)
        four = [c for c in covers if c.size == 4]
        assert four[0].sum_v == 8  # four single edges, the equality case

    def test_k3_single_trace(self):
        covers = enumerate_min_trace_covers(K3, K3)
        assert min(c.size for c in covers) == 1
        singles = [c for c in covers if c.size == 1]
        assert len(singles) == 1
        assert singles[0].sum_v == 3

    def test_minimality(self):
        for core in (C4, diamond(), cycle_graph(5)):
            for cover in enumerate_min_trace_covers(core, K3):
                edge_sets = [set(t.edges) for t in cover.traces]
                for i in range(len(edge_sets)):
                    rest = set().union(*(s for j, s in enumerate(edge_sets) if j != i))
                    assert not set(core.edges) <= rest

    def test_traces_embed(self):
        from ramseykit.graphs import subgraph_from_sets
        from ramseykit.embed import find_embedding

        for cover in enumerate_min_trace_covers(diamond(), K3):
            for trace in cover.traces:
                sub, _ = subgraph_from_sets(trace.vertices, trace.edges)
                assert find_embedding(sub, K3) is not None

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            enumerate_min_trace_covers(complete_graph(6), complete_graph(5))

    @pytest.mark.parametrize("max_size", [None, 2])
    @pytest.mark.parametrize("pattern", [K3, path_graph(3)], ids=["K3", "P3"])
    def test_matches_brute_force_oracle(self, pattern, max_size):
        """Same covers, each once, in (size, sorted candidate edge masks)
        order, on every graph of at most 5 vertices and 6 edges (one
        labeling per isomorphism class)."""
        graphs = 0
        for core in nonisomorphic_graphs(5, 6):
            index = {e: i for i, e in enumerate(core.sorted_edges())}
            got = [
                tuple(sorted(sum(1 << index[e] for e in t.edges) for t in c.traces))
                for c in enumerate_min_trace_covers(core, pattern, max_size=max_size)
            ]
            assert got == min_trace_covers_oracle(core, pattern, max_size), core.edges
            graphs += 1
        assert graphs == 45

    def test_max_size_filter(self):
        covers = enumerate_min_trace_covers(C4, K3, max_size=2)
        assert all(c.size <= 2 for c in covers)
        assert len(covers) == 2

    def test_candidate_cut_matches_oracle(self):
        """Skipping subsets with more edges than the pattern, or more
        endpoints than its vertices, drops no trace: the candidate masks are
        every embeddable edge subset, in increasing order."""
        k3_plus_isolated = Graph(4, K3.edges)
        patterns = [complete_graph(2), path_graph(3), K3, C4, complete_graph(4), k3_plus_isolated]
        rng = random.Random(18)
        cores = [random_graph(rng.randint(4, 8), rng.randint(1, 12), rng) for _ in range(12)]
        cores += [parse_graph6(g6) for g6 in ("D~{", "Gs@ipo", "E}lw")]  # K5, cube, octahedron
        for core in cores:
            for pattern in patterns:
                got = construction._candidate_traces(core, pattern)[0]
                assert got == trace_masks_oracle(core, pattern), (core.edges, pattern.edges)


class TestCoverInequality:
    @pytest.mark.parametrize(
        "core,pattern",
        [
            (C4, K3),
            (complete_graph(4), K3),
            (diamond(), K3),
            (cycle_graph(5), K3),
            (C4, path_graph(3)),
        ],
    )
    def test_no_violations(self, core, pattern):
        rep = verify_cover_inequality(core, pattern)
        assert rep.violations == []
        assert rep.covers_in_scope > 0
        assert rep.min_slack is not None and rep.min_slack >= 0

    def test_c4_equality_case(self):
        rep = verify_cover_inequality(C4, K3)
        assert rep.min_slack == 0
        assert rep.equality_cases >= 1
        assert rep.min_cover.sum_v == rep.core_n + rep.min_cover.size

    def test_core_property_detection(self):
        # every minimal cover of these non-embeddable cores overlaps >= 2
        assert verify_cover_inequality(C4, K3).all_covers_overlap_ge2
        assert verify_cover_inequality(complete_graph(4), K3).all_covers_overlap_ge2
        # an embeddable "core" has a single-trace cover, which fails it
        assert not verify_cover_inequality(K3, K3).all_covers_overlap_ge2

    def test_extracted_cores_satisfy_cover_property(self):
        # blocks are 2-connected, so a separating trace would contradict
        # 2-connectivity: every extracted core must pass in full scope
        from ramseykit.degeneracy import extract_core, is_degenerate

        cores_seen = 0
        for g in random_graphs(7, 80, seed=314):
            if is_degenerate(g, K3).degenerate:
                continue
            core = extract_core(g, K3)
            if core.m > 10:
                continue
            rep = verify_cover_inequality(core, K3)
            sized = [c for c in
                     enumerate_min_trace_covers(core, K3) if c.size >= 2]
            assert rep.covers_in_scope == len(sized)
            assert rep.violations == []
            cores_seen += 1
        assert cores_seen > 10

    @pytest.mark.parametrize("pattern", [K3, path_graph(3)], ids=["K3", "P3"])
    def test_aggregates_match_oracle(self, pattern):
        """Every reported aggregate, recomputed from the brute-force covers
        with vertex sets and overlaps taken from the edge masks, on every
        graph of at most 5 vertices and 6 edges under two relabelings."""
        for core in nonisomorphic_graphs(5, 6):
            for seed in (1, 2):
                perm = list(range(core.n))
                random.Random(seed).shuffle(perm)
                g = Graph(core.n, frozenset(
                    (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in core.edges))
                edges = sorted(g.edges)

                def vertices(mask):
                    return {w for i, e in enumerate(edges) if (mask >> i) & 1 for w in e}

                in_scope = []  # (slack, size, masks)
                all_ge2 = True
                covers = min_trace_covers_oracle(g, pattern)
                for cover in covers:
                    vsets = [vertices(mask) for mask in cover]
                    overlaps = [len(vs & set().union(*(o for j, o in enumerate(vsets) if j != i)))
                                for i, vs in enumerate(vsets)]
                    if len(cover) < 2 or min(overlaps) < 2:
                        all_ge2 = False
                        continue
                    slack = sum(len(vs) for vs in vsets) - (g.n + len(cover))
                    in_scope.append((slack, len(cover), cover))
                rep = verify_cover_inequality(g, pattern)
                index = {e: i for i, e in enumerate(edges)}

                def masks(cover):
                    return tuple(sorted(sum(1 << index[e] for e in t.edges) for t in cover.traces))

                assert rep.covers_total == len(covers), g.edges
                assert rep.covers_in_scope == len(in_scope), g.edges
                assert rep.equality_cases == sum(1 for s, _, _ in in_scope if s == 0), g.edges
                assert [masks(c) for c in rep.violations] == [c for s, _, c in in_scope if s < 0]
                assert rep.all_covers_overlap_ge2 == (bool(covers) and all_ge2), g.edges
                best = min(in_scope, default=None)
                assert rep.min_slack == (best and best[0]), g.edges
                assert (rep.min_cover and masks(rep.min_cover)) == (best and best[2]), g.edges

    def test_k5_covers_in_seconds(self):
        """K5 has 241,972 minimal K3-trace covers, which leaf filtering took
        about 50 s to list; the CLI document must come well inside 60 s.
        min_slack and covers_in_scope were checked against that slower
        enumeration."""
        src = str(Path(ramseykit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "ramseykit.cli", "covers", "--graph", "D~{", "--pattern", "Bw"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        rep = json.loads(done.stdout)["result"]
        assert rep["covers_total"] == 241972
        assert rep["covers_in_scope"] == 241972
        assert rep["violations"] == []
        assert rep["min_slack"] == 3


class TestConstruct:
    def test_end_to_end_small(self):
        final, rep = construct_family_free(60, K3, [complete_graph(4)], 0.3, seed=2)
        assert not contains_copy(complete_graph(4), final)
        assert rep.family_free == [True]
        assert final.n == 60 - len(rep.deletions)
        assert rep.cores == ["C~"]
        assert 0 <= rep.density_fraction <= 1

    def test_empty_family_rejected(self):
        with pytest.raises(ParamOutOfRange, match="^family must be nonempty$"):
            construct_family_free(50, K3, [], 0.3)

    def test_degenerate_family_rejected(self):
        with pytest.raises(NotApplicable):
            construct_family_free(50, K3, [bowtie()], 0.3)

    def test_clamped_tiny_n(self):
        final, rep = construct_family_free(10, K3, [complete_graph(4)], 2.05, seed=0)
        assert rep.params.p_clamped
        assert rep.union_edges == math.comb(10, 2)  # all triangles present
        # with the union complete, every 4-set carried a copy
        assert rep.core_copy_counts == [math.comb(10, 4)]
        assert not contains_copy(complete_graph(4), final)

    def test_deterministic_report(self):
        a = construct_family_free(60, K3, [complete_graph(4)], 0.3, seed=9)[1]
        b = construct_family_free(60, K3, [complete_graph(4)], 0.3, seed=9)[1]
        assert a.to_json_dict() == b.to_json_dict()

    def test_negative_density_trials_fail_before_sampling(self, monkeypatch):
        def sampled(*args):
            raise AssertionError("sampled before the trials check")

        monkeypatch.setattr(construction, "sample_copy_hypergraph", sampled)
        with pytest.raises(ParamOutOfRange):
            construct_family_free(200, K3, [complete_graph(4)], 0.3, density_trials=-2)

    def test_deletions_hit_every_copy(self):
        final, rep = construct_family_free(80, K3, [complete_graph(4)], 0.4, seed=4)
        assert rep.family_free == [True]
        g6 = rep.cores[0]
        assert parse_graph6(g6) == complete_graph(4)


class TestEstimators:
    def test_density_trivial_hit(self):
        est = estimate_density(complete_graph(20), K3, 3, trials=100, seed=0)
        assert est.fraction == 1.0

    def test_density_trivial_miss(self):
        est = estimate_density(empty_graph(15), complete_graph(2), 4, trials=50, seed=0)
        assert est.fraction == 0.0

    def test_density_subset_too_large(self):
        with pytest.raises(ParamOutOfRange):
            estimate_density(complete_graph(5), K3, 9, trials=10, seed=0)

    def test_density_deterministic_and_parallel(self):
        g = union_graph(
            sample_copy_hypergraph(ConstructionParams.derive(50, K3, 0.5, seed=6), K3)
        )
        serial = estimate_density(g, K3, 20, trials=60, seed=13, jobs=1)
        again = estimate_density(g, K3, 20, trials=60, seed=13, jobs=1)
        parallel = estimate_density(g, K3, 20, trials=60, seed=13, jobs=2)
        assert serial == again == parallel

    def test_density_hits_match_brute_force(self):
        # trial t draws its subset from PCG64((seed ^ t) mod 2^64); the hit
        # test here is the permutation oracle on the subset's own graph
        seed, subset_size, trials = 21, 6, 40
        for pattern in (K3, C4, path_graph(3)):
            for g in random_graphs(11, 4, seed=pattern.m * 5 + pattern.n):
                hits = 0
                for t in range(trials):
                    rng = np.random.Generator(np.random.PCG64((seed ^ t) & (2**64 - 1)))
                    chosen = sorted(int(v) for v in rng.choice(g.n, size=subset_size, replace=False))
                    local = {v: i for i, v in enumerate(chosen)}
                    sub = Graph.from_edges(subset_size, [
                        (local[u], local[v]) for u, v in g.edges if u in local and v in local
                    ])
                    hits += bool(copies_oracle(pattern, sub))
                est = estimate_density(g, pattern, subset_size, trials=trials, seed=seed)
                assert est.hits == hits

    def test_density_builds_no_graph_per_trial(self, monkeypatch):
        g = union_graph(
            sample_copy_hypergraph(ConstructionParams.derive(60, K3, 0.5, seed=2), K3)
        )
        built = []
        post_init = Graph.__post_init__

        def counting(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(Graph, "__post_init__", counting)
        est = estimate_density(g, K3, 20, trials=50, seed=4)
        assert est.trials == 50 and 0 < est.hits
        assert built == []

    def test_density_seeds_one_generator_per_chunk(self, monkeypatch):
        g = union_graph(
            sample_copy_hypergraph(ConstructionParams.derive(60, K3, 0.5, seed=2), K3)
        )
        built = []
        for name in ("PCG64", "Generator"):
            real = getattr(np.random, name)

            def counting(*args, _real=real, _name=name):
                built.append(_name)
                return _real(*args)

            monkeypatch.setattr(np.random, name, counting)
        est = estimate_density(g, K3, 20, trials=200, seed=4)
        assert est.trials == 200 and 0 < est.hits
        # 200 trials at n = 60 are one chunk in the Floyd regime
        assert built.count("PCG64") <= 1 and built.count("Generator") <= 1

    def test_negative_size_or_trials_rejected(self):
        g = complete_graph(6)
        with pytest.raises(ParamOutOfRange):
            estimate_density(g, K3, -1, trials=10)
        with pytest.raises(ParamOutOfRange):
            estimate_density(g, K3, 3, trials=-5)
        with pytest.raises(ParamOutOfRange):
            estimate_copy_count(C4, K3, 40, 0.3, trials=-2)
        with pytest.raises(ParamOutOfRange):
            estimate_copy_count(C4, K3, -5, 0.3, trials=0)
        assert estimate_density(g, K3, 3, trials=0).fraction == 0.0
        assert estimate_copy_count(C4, K3, 40, 0.3, trials=0).mean == 0.0

    def test_c4_union_mean_matches_brute_force(self):
        # every subset of the ten triangles of K5, weighted by its
        # probability, with C4 copies counted by raw injections
        n, p = 5, 0.3
        triangles = list(combinations(range(n), 3))
        expected = 0.0
        for bits in range(1 << len(triangles)):
            kept = [t for i, t in enumerate(triangles) if (bits >> i) & 1]
            edges = frozenset(e for t in kept for e in combinations(t, 2))
            weight = p ** len(kept) * (1 - p) ** (len(triangles) - len(kept))
            expected += weight * len(copies_oracle(C4, Graph(n, edges)))
        assert expected == pytest.approx(3.95713215)
        assert c4_triangle_union_mean(n, p) == pytest.approx(expected, rel=1e-12)

    def test_copy_count_zero_regime(self):
        stats = estimate_copy_count(C4, K3, 40, 0.3, trials=10, seed=0, p_override=0.0)
        assert stats.counts == [0] * 10
        assert stats.frac_within_sqrt == 1.0

    def test_copy_count_reports_cover_exponents(self):
        stats = estimate_copy_count(C4, K3, 60, 0.3, trials=5, seed=1)
        assert stats.cover_size_min == 2
        assert stats.exponent_bound == pytest.approx(0.6)
        assert stats.cover_size_max == 4
        assert stats.exponent_dominant == pytest.approx(1.2)

    @pytest.mark.parametrize("pattern", [K3, path_graph(3)], ids=["K3", "P3"])
    def test_cover_sizes_match_every_minimal_cover(self, pattern):
        """The smallest and largest inclusion-minimal covers of two or more
        traces, found without listing every cover, are those of the brute
        force oracle on every graph of at most 5 vertices and 6 edges."""
        for core in nonisomorphic_graphs(5, 6):
            sizes = [len(c) for c in min_trace_covers_oracle(core, pattern) if len(c) > 1]
            stats = estimate_copy_count(core, pattern, 20, 0.3, trials=0)
            expected = (min(sizes), max(sizes)) if sizes else (None, None)
            assert (stats.cover_size_min, stats.cover_size_max) == expected, core.edges

    def test_cover_sizes_need_not_list_every_cover(self):
        # the octahedron has 1,978,141 minimal triangle-trace covers
        stats = estimate_copy_count(parse_graph6("E}lw"), K3, 20, 0.3, trials=0)
        assert (stats.cover_size_min, stats.cover_size_max) == (4, 12)

    def test_copy_count_refuses_large_core_before_trials(self, monkeypatch):
        def trial(args):
            raise AssertionError("sampled before the core's edge cap was checked")

        monkeypatch.setattr(construction, "_copy_count_trial", trial)
        with pytest.raises(TooLarge):
            estimate_copy_count(complete_graph(6), K3, 120, 0.7, trials=3)

    def test_copy_count_deterministic(self):
        a = estimate_copy_count(C4, K3, 60, 0.3, trials=8, seed=21)
        b = estimate_copy_count(C4, K3, 60, 0.3, trials=8, seed=21)
        assert a.counts == b.counts

    def test_copy_count_parallel_matches_serial(self):
        serial = estimate_copy_count(C4, K3, 50, 0.3, trials=6, seed=2, jobs=1)
        parallel = estimate_copy_count(C4, K3, 50, 0.3, trials=6, seed=2, jobs=2)
        assert serial.counts == parallel.counts


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    )


@pytest.fixture(scope="module")
def construct_200():
    """The n = 200, seed 0 construction output with the arguments of its
    own density estimate: K3, subset size, trial seed."""
    final, rep = construct_family_free(200, K3, [complete_graph(4)], 0.3, seed=0)
    return final, K3, rep.density_subset_size, 0 ^ 0xD1CE


class FakePool:
    """Stands in for ProcessPoolExecutor: records its arguments and maps
    in this process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = None
        FakePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


class TestDensityTrials:
    """estimate_density answers its trial sets with embed.subset_hits."""

    REGIMES = {
        "high-fit": None,  # the construct_200 fixture
        "low-fit-dense": (_gnp(60, 0.5, 1), complete_graph(4), 12, 5),
        "low-fit-sparse": (_gnp(300, 0.01, 2), path_graph(4), 30, 6),
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_hits_equal_contains_copy_per_mask(self, regime, jobs, construct_200):
        g, pattern, k, seed = self.REGIMES[regime] or construct_200
        trials = 1000
        masks = _npexact._subset_masks(g.n, k, [seed ^ t for t in range(trials)])
        expected = sum(contains_copy(pattern, g, within=mask) for mask in masks)
        assert 0 < expected
        est = estimate_density(g, pattern, k, trials=trials, seed=seed, jobs=jobs)
        assert (est.hits, est.trials, est.subset_size) == (expected, trials, k)

    def test_found_copies_answer_later_trials(self, monkeypatch, construct_200):
        g, pattern, k, seed = construct_200
        searches = []
        real = embed._assignments

        def counting(*args, **kwargs):
            searches.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(embed, "_assignments", counting)
        est = estimate_density(g, pattern, k, trials=1000, seed=seed)
        assert est.hits == 1000
        assert len(searches) <= 150

    def test_workers_clamped_to_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr(construction, "ProcessPoolExecutor", FakePool)
        g = _gnp(30, 0.3, 4)
        serial = estimate_density(g, K3, 8, trials=10, seed=3)
        counts = estimate_copy_count(C4, K3, 40, 0.3, trials=3, seed=1).counts
        for cpus, workers in ((64, 10), (4, 4)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            FakePool.made = []
            assert estimate_density(g, K3, 8, trials=10, seed=3, jobs=5000) == serial
            assert estimate_copy_count(C4, K3, 40, 0.3, trials=3, seed=1, jobs=5000).counts == counts
            density, copy_count = FakePool.made
            assert (density.max_workers, copy_count.max_workers) == (workers, min(workers, 3))
            # one contiguous chunk of trial sets per worker, in trial order
            assert len(density.tasks) == workers
            masks = _npexact._subset_masks(g.n, 8, [3 ^ t for t in range(10)])
            assert [m for _, _, chunk in density.tasks for m in chunk] == masks

    @pytest.mark.parametrize("cpus, jobs", [(None, 8), (1, 8), (64, 1), (64, 0), (64, -3)])
    def test_one_worker_runs_in_process(self, monkeypatch, cpus, jobs):
        monkeypatch.setattr(construction, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        FakePool.made = []
        g = _gnp(30, 0.3, 4)
        assert estimate_density(g, K3, 8, trials=10, seed=3, jobs=jobs) == estimate_density(
            g, K3, 8, trials=10, seed=3
        )
        estimate_copy_count(C4, K3, 40, 0.3, trials=3, seed=1, jobs=jobs)
        assert FakePool.made == []


def _numpy_mask(n, k, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return sum(1 << int(v) for v in rng.choice(n, size=k, replace=False))


class TestSubsetMasks:
    """_npexact._subset_masks against the per-seed numpy draw that it
    replaces: Generator(PCG64(s)).choice(n, k, replace=False)."""

    def test_matches_numpy_choice(self):
        r = random.Random(10)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        seeds += [r.getrandbits(64) for _ in range(12)] + [r.getrandbits(16) for _ in range(12)]
        cases = [(0, 0), (1, 0), (1, 1), (2, 2), (9, 0), (9, 9), (9, 8), (200, 134)]
        cases += [(n, r.randint(0, n)) for n in (r.randint(1, 300) for _ in range(30))]
        for n, k in cases:
            expected = [_numpy_mask(n, k, s) for s in seeds]
            assert _npexact._subset_masks(n, k, seeds) == expected, (n, k)

    def test_both_numpy_regimes(self):
        # numpy runs Floyd's algorithm up to k = n // 50 above n = 10000
        # and shuffles the tail beyond it
        seeds = [3, 2**40 + 5, 2**64 - 1]
        for k in (200, 201):
            expected = [_numpy_mask(10001, k, s) for s in seeds]
            assert _npexact._subset_masks(10001, k, seeds) == expected

    def test_lemire_rejection_seed(self):
        # numpy's bounded draw rejects a 32-bit output u for the bound
        # j + 1 when (u * (j + 1)) mod 2**32 < 2**32 mod (j + 1); seed 34
        # does so at n = 10000, k = 5000 (24 of the seeds 0-2999 do)
        n, k, seed = 10000, 5000, 34
        bounds = np.arange(n - k, n, dtype=np.uint64) + np.uint64(1)
        raw = np.random.PCG64(seed).random_raw(k // 2).astype("<u8").view("<u4")
        low = (raw.astype(np.uint64) * bounds) & np.uint64(0xFFFFFFFF)
        assert (low < (np.uint64(1) << np.uint64(32)) % bounds).any()
        seeds = [seed, 35, 36]
        expected = [_numpy_mask(n, k, s) for s in seeds]
        assert _npexact._subset_masks(n, k, seeds) == expected

    @pytest.mark.parametrize("n, k, seed, digest", [
        (200, 134, 0, "c22cd1b6535bb27d10818979eb0637ddca426accafc1b7aa7d0200bbe089ad46"),
        (190, 134, 2**64 - 1, "bdd460932596ed91c621567adff36a0058ad8e8512e9cc25ded074b7c42517f4"),
        (60, 20, 2**32 + 7, "26e93929f080a2e1fc8aed5f82efc09b03e007a41530ba6e0f898a0ca8057236"),
        (7, 6, 3, "021fb596db81e6d02bf3d2586ee3981fe519f275c0ac9ca76bbcf2ebb4097d96"),
        (1000, 20, 123456789, "b16c2af025933de5e27e1569f2dcea37ea564b3929e322230960dcfbb92ca165"),
    ])
    def test_pinned_sets(self, n, k, seed, digest):
        # the sets every sampled report rests on, pinned apart from numpy:
        # should a later numpy's choice differ, only the comparisons fail
        mask = _npexact._subset_masks(n, k, [seed])[0]
        assert mask.bit_count() == k
        assert hashlib.sha256(mask.to_bytes((n + 7) // 8, "little")).hexdigest() == digest


def _numpy_choices(rng, n, a, calls):
    return [rng.choice(n, size=a, replace=False).tolist() for _ in range(calls)]


def _replayed(rng, n, a, calls):
    draws = _npexact.choices(rng, n, a)
    return [next(draws) for _ in range(calls)]


def _generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestChoices:
    """_npexact.choices against successive
    Generator(PCG64(s)).choice(n, a, replace=False) calls, as ordered lists."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    def test_matches_numpy_choice(self):
        r = random.Random(11)
        seeds = self.SEEDS + [r.getrandbits(64) for _ in range(6)]
        cases = [(0, 0), (1, 0), (1, 1), (2, 2), (3, 3), (5, 5), (9, 9)]
        cases += [(2, 1), (3, 2), (4, 3), (5, 4), (9, 8), (121, 120)]
        cases += [(n, r.randint(0, min(n, 12))) for n in (r.randint(1, 300) for _ in range(20))]
        for n, a in cases:
            for seed in seeds:
                expected = _numpy_choices(_generator(seed), n, a, 40)
                assert _replayed(_generator(seed), n, a, 40) == expected, (n, a, seed)

    def test_after_binomial_over_many_reads(self):
        # the copy sampler's use: one binomial draw, then more outputs than
        # the first bulk read holds
        for seed in self.SEEDS:
            ref, rng = _generator(seed), _generator(seed)
            assert ref.binomial(10**6, 0.3) == rng.binomial(10**6, 0.3)
            assert _replayed(rng, 120, 4, 600) == _numpy_choices(ref, 120, 4, 600)

    def test_pending_half_word(self):
        for seed in self.SEEDS:
            ref, rng = _generator(seed), _generator(seed)
            ref.random(dtype=np.float32)  # takes the low half of one output
            rng.random(dtype=np.float32)
            assert rng.bit_generator.state["has_uint32"] == 1
            assert _replayed(rng, 50, 3, 30) == _numpy_choices(ref, 50, 3, 30)

    def test_half_rejecting_bound(self, monkeypatch):
        # Lemire's method rejects u for the bound j + 1 when
        # (u * (j + 1)) mod 2**32 < 2**32 mod (j + 1), about half of all u
        # just above 2**31
        used = []
        uint32s = _npexact._uint32s

        def counting(bg):
            for u in uint32s(bg):
                used.append(u)
                yield u

        monkeypatch.setattr(_npexact, "_uint32s", counting)
        n, a, calls = 2**31 + 12345, 4, 100
        for seed in (5, 2**64 - 1):
            used.clear()
            replayed = _replayed(_generator(seed), n, a, calls)
            assert replayed == _numpy_choices(_generator(seed), n, a, calls)
            assert len(used) > 1.3 * calls * (2 * a - 1)

    def test_numpy_drawn_regimes(self, monkeypatch):
        # from n = 2**32 numpy's bounded draw changes, and above n = 10000
        # with a > n // 50 it shuffles a tail; numpy's choice draws there
        monkeypatch.setattr(_npexact, "_uint32s", None)
        for n, a in [(2**32, 3), (2**32 + 5, 4), (2**40, 2), (10001, 201)]:
            for seed in (3, 2**64 - 1):
                expected = _numpy_choices(_generator(seed), n, a, 5)
                assert _replayed(_generator(seed), n, a, 5) == expected, (n, a)

    def test_copies_match_numpy_choice_loop(self):
        # sample_copy_hypergraph against its per-copy choice loop on
        # patterns whose copies depend on the injections' order
        for pattern in (complete_graph(2), K3, path_graph(3), C4):
            for n, p in [(pattern.n + 1, 0.5), (40, None), (120, None)]:
                for seed in (0, 2**32, 2**64 - 1):
                    params = ConstructionParams.derive(n, pattern, 0.1, seed=seed, p_override=p)
                    sample = sample_copy_hypergraph(params, pattern)
                    rng = _generator(seed)
                    K = int(rng.binomial(total_copy_count(n, pattern), params.p))
                    chosen = {}
                    while len(chosen) < K:
                        inj = rng.choice(n, size=pattern.n, replace=False).tolist()
                        edges = frozenset(tuple(sorted((inj[u], inj[v]))) for u, v in pattern.edges)
                        copy = Copy(frozenset(inj), edges)
                        chosen.setdefault(copy.key(), copy)
                    assert [c.key() for c in sample.copies] == sorted(chosen)

    @pytest.mark.parametrize("n, pattern, eps, seed, digest", [
        (120, "K3", 0.3, 0,
         "f516350ddce5dcef7258cb5c8f64c1e58d24b38850b5a024002aa84e10f2196a"),
        (60, "C4", 0.5, 2**64 - 1,
         "528a504608d259479dc7799d35ee1c791cd77160d13ab52286af8949254b0bbd"),
        (200, "P3", 0.1, 2**32,
         "a4aa930fd1946f5b010e0608b813bd4526592524d502778bfe7f4d24656dc589"),
        (300, "K2", 0.05, 2**63,
         "c44b5da4e08ec7477de066157fd7acbfb567305bbf04bddb7d8971d9a888d06f"),
        (12, "C4", 1.5, 7,
         "d8740b9ad09a2c894885560504a9ec6ecf2f2984a839f6abc2b01a67d86e79cc"),
    ])
    def test_pinned_copies(self, n, pattern, eps, seed, digest):
        # the copies every sampled report rests on, pinned apart from numpy:
        # should a later numpy's choice differ, only the comparisons fail
        pattern = {"K2": complete_graph(2), "K3": K3, "P3": path_graph(3), "C4": C4}[pattern]
        sample = sample_copy_hypergraph(ConstructionParams.derive(n, pattern, eps, seed=seed), pattern)
        keys = repr([c.key() for c in sample.copies]).encode()
        assert hashlib.sha256(keys).hexdigest() == digest
