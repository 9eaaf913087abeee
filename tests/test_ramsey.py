import math
from itertools import combinations

import pytest

from ramseykit import embed
from ramseykit.certify import verify_coloring
from ramseykit.errors import (
    EnumerationTruncated,
    ParamOutOfRange,
    SubsetSpaceTooLarge,
    UnsupportedPattern,
)
from ramseykit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
)
from ramseykit.embed import contains_copy
from ramseykit.ramsey import DECIDED, UNKNOWN, copy_hypergraph, is_eps_dense, is_ramsey

from helpers import ramsey_oracle, random_graphs


class TestCopyHypergraph:
    def test_k4_triangles(self):
        hg = copy_hypergraph(complete_graph(4), complete_graph(3))
        assert len(hg.hyperedges) == 4
        assert all(len(he) == 3 for he in hg.hyperedges)

    def test_triangle_free(self):
        assert copy_hypergraph(cycle_graph(4), complete_graph(3)).hyperedges == []

    def test_edges_as_hyperedges(self):
        hg = copy_hypergraph(complete_graph(4), complete_graph(2))
        assert len(hg.hyperedges) == 6

    def test_dedup_by_vertex_set(self):
        # diamond and its spanning C4 share the vertex set
        hg = copy_hypergraph(complete_graph(4), cycle_graph(4))
        assert len(hg.hyperedges) == 1
        assert len(hg.witnesses) == 1
        sizes = set()
        for host in random_graphs(8, 20, seed=4):
            hg = copy_hypergraph(host, cycle_graph(4))
            copies = embed.enumerate_copies(cycle_graph(4), host).copies
            assert hg.hyperedges == sorted({c.vertices for c in copies}, key=sorted)
            assert list(hg.witnesses) == hg.hyperedges
            sizes.add(len(hg.hyperedges))
        assert max(sizes) > 1

    def test_truncation_raises(self):
        # K5 holds 10 triangles, past a limit of 3
        message = "copy enumeration truncated building hypergraph"
        with pytest.raises(EnumerationTruncated, match=message):
            copy_hypergraph(complete_graph(5), complete_graph(3), limit=3)
        with pytest.raises(EnumerationTruncated, match=message):
            is_ramsey(complete_graph(5), complete_graph(3), 2, copy_limit=3)


class TestIsRamsey:
    def test_k5_triangle_two_colors(self):
        assert is_ramsey(complete_graph(5), complete_graph(3), 2).ramsey

    def test_k4_triangle_two_colors_with_witness(self):
        dec = is_ramsey(complete_graph(4), complete_graph(3), 2)
        assert dec.ramsey is False
        ok, _ = verify_coloring(complete_graph(4), complete_graph(3), dec.witness)
        assert ok
        assert dec.witness.palette_size <= 2

    def test_k7_edges_six_colors(self):
        assert is_ramsey(complete_graph(7), complete_graph(2), 6).ramsey

    def test_pigeonhole_law(self):
        for s in (2, 3):
            for r in (1, 2, 3):
                for n in range(1, r * (s - 1) + 3):
                    dec = is_ramsey(complete_graph(n), complete_graph(s), r)
                    assert dec.status == DECIDED
                    assert dec.ramsey == (n >= r * (s - 1) + 1)

    def test_against_exhaustive_oracle(self):
        patterns = [complete_graph(2), complete_graph(3), path_graph(3)]
        for pattern in patterns:
            for g in random_graphs(5, 25, seed=pattern.m * 5):
                for r in (1, 2, 3):
                    dec = is_ramsey(g, pattern, r)
                    assert dec.status == DECIDED
                    assert dec.ramsey == ramsey_oracle(g, pattern, r)
                    if dec.ramsey is False:
                        ok, _ = verify_coloring(g, pattern, dec.witness)
                        assert ok
                        assert dec.witness.palette_size <= r

    def test_monotone_in_r(self):
        for g in random_graphs(6, 15, seed=8):
            for r in (2, 3):
                if is_ramsey(g, complete_graph(3), r).ramsey:
                    assert is_ramsey(g, complete_graph(3), r - 1).ramsey

    def test_pattern_free_host_never_ramsey(self):
        dec = is_ramsey(cycle_graph(5), complete_graph(3), 1)
        assert dec.ramsey is False
        assert dec.witness.palette_size == 1

    def test_isolated_vertex_pattern_rejected(self):
        with pytest.raises(UnsupportedPattern):
            is_ramsey(complete_graph(3), empty_graph(2), 2)
        with pytest.raises(UnsupportedPattern):
            is_ramsey(
                complete_graph(4),
                disjoint_union(complete_graph(2), empty_graph(1)),
                2,
            )

    def test_budget_exhaustion_is_unknown(self):
        dec = is_ramsey(complete_graph(6), complete_graph(3), 2, node_budget=3)
        assert dec.status == UNKNOWN
        assert dec.ramsey is None

    def test_long_path_needs_no_recursion(self):
        path = path_graph(1500)
        dec = is_ramsey(path, complete_graph(2), 2)
        assert dec.status == DECIDED and dec.ramsey is False
        assert all(dec.witness.colors[u] != dec.witness.colors[v] for u, v in path.edges)
        # even vertices keep colour 0, odd ones (750) try 0 before 1
        assert dec.nodes == 1500 + 750

    def test_bad_r(self):
        with pytest.raises(ParamOutOfRange):
            is_ramsey(complete_graph(3), complete_graph(2), 0)

    def test_empty_pattern_rejected(self):
        with pytest.raises(UnsupportedPattern, match="^pattern must have at least one vertex$"):
            is_ramsey(complete_graph(3), empty_graph(0), 2)


class TestEpsDense:
    def test_complete_graph_dense(self):
        assert is_eps_dense(complete_graph(10), complete_graph(3), 0.3).dense

    def test_cycle_has_independent_half(self):
        res = is_eps_dense(cycle_graph(10), complete_graph(2), 0.5)
        assert res.dense is False
        assert res.witness_subset == (0, 2, 4, 6, 8)

    def test_eps_one_is_containment(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        assert is_eps_dense(g, complete_graph(3), 1.0).dense is False
        assert is_eps_dense(g, path_graph(4), 1.0).dense is True

    def test_subset_floor_validation(self):
        with pytest.raises(ParamOutOfRange):
            is_eps_dense(complete_graph(5), complete_graph(2), 0.1)
        with pytest.raises(ParamOutOfRange):
            is_eps_dense(complete_graph(5), complete_graph(2), 1.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParamOutOfRange, match="^unknown mode 'bogus'$"):
            is_eps_dense(complete_graph(5), complete_graph(2), 0.5, mode="bogus")

    def test_exact_cap(self):
        with pytest.raises(SubsetSpaceTooLarge):
            is_eps_dense(complete_graph(50), complete_graph(3), 0.5)

    def test_sampled_mode(self):
        res = is_eps_dense(
            complete_graph(20), complete_graph(3), 0.2, mode="sampled", trials=200, seed=3
        )
        assert res.fraction == 1.0
        assert res.hits == 200
        empty = empty_graph(10)
        res = is_eps_dense(empty, complete_graph(2), 0.4, mode="sampled", trials=50, seed=1)
        assert res.fraction == 0.0

    def test_sampled_zero_trials(self):
        res = is_eps_dense(complete_graph(10), complete_graph(3), 0.3, "sampled", trials=0)
        assert (res.fraction, res.hits, res.trials) == (0.0, 0, 0)

    def test_sampled_deterministic(self):
        g = next(iter(random_graphs(12, 1, seed=4)))
        a = is_eps_dense(g, complete_graph(3), 0.4, mode="sampled", trials=100, seed=9)
        b = is_eps_dense(g, complete_graph(3), 0.4, mode="sampled", trials=100, seed=9)
        assert (a.fraction, a.hits) == (b.fraction, b.hits)

    def test_exact_matches_brute_force(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("exact mode built an Embedding")

        monkeypatch.setattr(embed, "Embedding", forbidden)
        outcomes = set()
        for n, seed in ((7, 31), (9, 32), (11, 33)):
            for g in random_graphs(n, 12, seed=seed):
                for pattern in (complete_graph(2), complete_graph(3), path_graph(3), cycle_graph(4)):
                    for eps in (0.3, 0.5, 0.75, 1.0):
                        size = math.floor(eps * n)
                        expected = (True, math.comb(n, size), math.comb(n, size), None)
                        for tried, subset in enumerate(combinations(range(n), size), 1):
                            if not contains_copy(pattern, g, within=sum(1 << v for v in subset)):
                                expected = (False, tried - 1, tried, subset)
                                break
                        res = is_eps_dense(g, pattern, eps)
                        assert (res.dense, res.hits, res.trials, res.witness_subset) == expected
                        assert res.fraction == res.hits / res.trials
                        outcomes.add((expected[0], expected[2] > 1))
        # dense graphs, misses at the first subset and misses further on
        assert {(True, True), (False, False), (False, True)} <= outcomes

    def test_density_implies_ramsey(self):
        # whenever the exact density check passes at 1/r, the Ramsey
        # decision at r must be positive
        for g in random_graphs(6, 40, seed=14):
            for r in (2, 3):
                dense = is_eps_dense(g, complete_graph(2), 1 / r)
                if dense.dense:
                    assert is_ramsey(g, complete_graph(2), r).ramsey

    def test_density_implies_ramsey_triangle(self):
        hits = 0
        for g in random_graphs(8, 60, seed=15):
            dense = is_eps_dense(g, complete_graph(3), 0.5)
            if dense.dense:
                hits += 1
                assert is_ramsey(g, complete_graph(3), 2).ramsey
        assert hits > 0
