import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ramseykit

from ramseykit.degeneracy import (
    ForestDecomposition,
    Piece,
    _components,
    _order_groups,
    extract_core,
    forest_decomposition,
    is_degenerate,
)
from ramseykit.embed import find_embedding
from ramseykit.errors import IsDegenerate
from ramseykit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    parse_graph6,
    path_graph,
    subgraph_from_sets,
)

from helpers import (
    all_graphs,
    bowtie,
    degenerate_oracle,
    diamond,
    forest_size_oracle,
    random_graphs,
    two_triangles,
)

ORACLE_PATTERNS = [complete_graph(3), path_graph(4), cycle_graph(4)]


def check_decomposition(g: Graph, pattern: Graph, dec):
    # edge cover, pairwise edge-disjoint
    seen = []
    for piece in dec.pieces:
        seen.extend(piece.edges)
    assert sorted(seen) == g.sorted_edges()
    assert len(seen) == len(set(seen))
    # vertex cover
    assert set().union(*(set(p.vertices) for p in dec.pieces)) == set(range(g.n))

    covered = set()
    for piece, att in zip(dec.pieces, dec.attachments):
        overlap = set(piece.vertices) & covered
        assert len(overlap) <= 1
        if att is None:
            assert not overlap
        else:
            assert overlap == {att}
        covered |= set(piece.vertices)

    # per-piece witness embeddings re-verified
    for piece, emb in zip(dec.pieces, dec.embeddings):
        assert set(emb) == set(piece.vertices)
        assert len(set(emb.values())) == len(piece.vertices)
        for u, v in piece.edges:
            assert pattern.has_edge(emb[u], emb[v])


class TestIsDegenerate:
    def test_named(self):
        assert is_degenerate(bowtie(), complete_graph(3)).degenerate
        check = is_degenerate(complete_graph(4), complete_graph(3))
        assert not check.degenerate
        assert len(check.offending_block.vertices) == 4
        check = is_degenerate(diamond(), complete_graph(3))
        assert not check.degenerate
        assert set(check.offending_block.vertices) == {0, 1, 2, 3}

    def test_against_oracle_exhaustive(self):
        for pattern in ORACLE_PATTERNS:
            for n in range(1, 6):
                for g in all_graphs(n):
                    assert (
                        is_degenerate(g, pattern).degenerate
                        == degenerate_oracle(g, pattern)
                    )

    def test_against_oracle_sampled(self):
        for pattern in ORACLE_PATTERNS:
            for n in (6, 7):
                for g in random_graphs(n, 60, seed=n * 31 + pattern.m):
                    assert (
                        is_degenerate(g, pattern).degenerate
                        == degenerate_oracle(g, pattern)
                    )


class TestForestDecomposition:
    def test_triangle_itself(self):
        dec = forest_decomposition(complete_graph(3), complete_graph(3))
        assert dec.size == 1
        assert dec.minimal

    def test_bowtie(self):
        dec = forest_decomposition(bowtie(), complete_graph(3))
        assert dec.size == 2
        assert dec.attachments == [None, 2]
        check_decomposition(bowtie(), complete_graph(3), dec)

    def test_p5_over_p3(self):
        dec = forest_decomposition(path_graph(5), path_graph(3))
        assert dec.size == 2
        check_decomposition(path_graph(5), path_graph(3), dec)

    def test_disjoint_triangles(self):
        dec = forest_decomposition(two_triangles(), complete_graph(3))
        assert dec.size == 2
        assert dec.attachments == [None, None]

    def test_none_for_non_degenerate(self):
        assert forest_decomposition(complete_graph(4), complete_graph(3)) is None
        assert forest_decomposition(diamond(), complete_graph(3)) is None

    def test_empty_graph_needs_no_pieces(self):
        dec = forest_decomposition(empty_graph(0), complete_graph(3))
        assert (dec.size, dec.pieces, dec.minimal) == (0, [], True)

    def test_isolated_vertices_covered(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])  # plus isolated 3, 4
        dec = forest_decomposition(g, path_graph(3))
        check_decomposition(g, path_graph(3), dec)
        # both isolated vertices ride along with the path piece or their own
        assert dec.size <= 3

    def test_size_matches_oracle_exhaustive(self):
        for pattern in ORACLE_PATTERNS:
            for n in range(1, 5):
                for g in all_graphs(n):
                    dec = forest_decomposition(g, pattern)
                    expected = (
                        forest_size_oracle(g, pattern)
                        if degenerate_oracle(g, pattern)
                        else None
                    )
                    if expected is None:
                        assert dec is None
                    else:
                        assert dec is not None and dec.size == expected
                        check_decomposition(g, pattern, dec)

    def test_size_matches_oracle_sampled(self):
        for pattern in ORACLE_PATTERNS:
            for n in (5, 6, 7):
                count = 0
                for g in random_graphs(n, 200, seed=n * 17 + pattern.n):
                    if g.m > 8:
                        continue  # keep the Bell-number oracle tractable
                    count += 1
                    dec = forest_decomposition(g, pattern)
                    expected = (
                        forest_size_oracle(g, pattern)
                        if degenerate_oracle(g, pattern)
                        else None
                    )
                    if expected is None:
                        assert dec is None
                    else:
                        assert dec is not None and dec.size == expected
                        check_decomposition(g, pattern, dec)
                assert count > 30

    def test_equivalence_with_is_degenerate(self):
        for pattern in ORACLE_PATTERNS:
            for n in (6, 8):
                for g in random_graphs(n, 80, seed=n + pattern.m * 3):
                    dec = forest_decomposition(g, pattern)
                    assert (dec is not None) == is_degenerate(g, pattern).degenerate

    def test_block_count_upper_bound(self):
        from ramseykit.blocks import block_decomposition

        for g in random_graphs(7, 50, seed=77):
            dec = forest_decomposition(g, complete_graph(3))
            if dec is None:
                continue
            bd = block_decomposition(g)
            assert dec.size <= len(bd.blocks) + len(bd.isolated_vertices)

    def test_budget_exhaustion_flagged(self):
        g = path_graph(6)
        dec = forest_decomposition(g, path_graph(3), node_budget=1)
        assert dec is not None
        assert not dec.minimal
        check_decomposition(g, path_graph(3), dec)

    def test_long_path_at_budget_zero_needs_no_recursion(self):
        g = path_graph(1500)
        dec = forest_decomposition(g, complete_graph(2), node_budget=0)
        assert dec.size == 1499 and not dec.minimal
        check_decomposition(g, complete_graph(2), dec)

    def test_deep_search_needs_no_recursion(self):
        # the search descends once per atom (399 here); with the limit a
        # little above the current depth, any recursion per atom would fail
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            dec = forest_decomposition(path_graph(400), path_graph(400))
        finally:
            sys.setrecursionlimit(limit)
        assert dec.size == 1 and dec.minimal

    def test_deterministic_tie_break(self):
        g = path_graph(5)
        a = forest_decomposition(g, path_graph(3))
        b = forest_decomposition(g, path_graph(3))
        assert [p.vertices for p in a.pieces] == [p.vertices for p in b.pieces]
        # lexicographically smallest piece sequence starts at vertex 0
        assert a.pieces[0].vertices[0] == 0

    def test_larger_budget_keeps_the_smaller_decomposition(self):
        # C4 with an isolated vertex, over C4: 1 piece is found within 3
        # nodes and must survive any larger budget
        g, pattern = parse_graph6("CB"), parse_graph6("Cl")
        for budget in (3, 6):
            assert forest_decomposition(g, pattern, node_budget=budget).size == 1

    def test_minimal_only_when_the_search_finished(self):
        g, pattern = parse_graph6("EBO?"), complete_graph(3)
        unbounded = forest_decomposition(g, pattern)
        for budget in (27, 30):
            dec = forest_decomposition(g, pattern, node_budget=budget)
            check_decomposition(g, pattern, dec)
            assert not dec.minimal or dec.pieces == unbounded.pieces

    def test_budget_ladder(self):
        # sizes never grow with the budget; minimal results are the
        # unbounded answer and are size-optimal by the brute-force oracle
        rng = random.Random(11)
        ladders = 0
        for _ in range(40):
            n = rng.randint(3, 8)
            p = rng.choice((0.2, 0.3, 0.45))
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            for pattern in (complete_graph(2), complete_graph(3), path_graph(3),
                            cycle_graph(4)):
                unbounded = forest_decomposition(g, pattern)
                if unbounded is None:
                    continue
                ladders += 1
                optimum = forest_size_oracle(g, pattern) if g.m <= 8 else None
                size = None
                for budget in range(0, 121, 4):
                    dec = forest_decomposition(g, pattern, node_budget=budget)
                    assert size is None or dec.size <= size
                    size = dec.size
                    if dec.minimal:
                        assert dec.pieces == unbounded.pieces
                        assert optimum is None or dec.size == optimum
        assert ladders > 80

    def test_each_atom_group_embedded_once(self, monkeypatch):
        from ramseykit import degeneracy

        groups, searches = [], []

        def recording_sets(vertices, edges):
            groups.append((frozenset(vertices), frozenset(edges)))
            return subgraph_from_sets(vertices, edges)

        def recording_find(sub, pattern):
            searches.append(sub)
            return find_embedding(sub, pattern)

        monkeypatch.setattr(degeneracy, "subgraph_from_sets", recording_sets)
        monkeypatch.setattr(degeneracy, "find_embedding", recording_find)
        g = disjoint_union(bowtie(), path_graph(4))
        dec = forest_decomposition(g, complete_graph(3))
        check_decomposition(g, complete_graph(3), dec)
        assert len(searches) == len(groups) == len(set(groups))


def _recursive_order_groups(group_vsets: list[frozenset[int]]) -> list[int] | None:
    """The recursive _order_groups, as it was before its stack form."""
    k = len(group_vsets)
    keys = [tuple(sorted(vs)) for vs in group_vsets]
    by_key = sorted(range(k), key=lambda i: keys[i])
    used = [False] * k
    order: list[int] = []
    covered: set[int] = set()

    def rec() -> bool:
        if len(order) == k:
            return True
        for i in by_key:
            if used[i]:
                continue
            if len(group_vsets[i] & covered) > 1:
                continue
            used[i] = True
            order.append(i)
            added = group_vsets[i] - covered
            covered.update(added)
            if rec():
                return True
            covered.difference_update(added)
            order.pop()
            used[i] = False
        return False

    return order if rec() else None


def test_order_groups_matches_recursive_form():
    rng = random.Random(3)
    orderable = 0
    for _ in range(3000):
        n = rng.randint(1, 9)
        groups = [
            frozenset(rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(0, 6))
        ]
        expected = _recursive_order_groups(groups)
        assert _order_groups(groups) == expected
        orderable += expected is not None
    assert 300 < orderable < 2700


@pytest.mark.parametrize("k", range(2, 11))
def test_order_groups_matches_recursive_form_on_shuffled_chains(k):
    # the recursive form backtracks through many dead ends on chains, so k
    # stays at 10 or below
    rng = random.Random(k)
    for _ in range(5):
        labels = rng.sample(range(3 * k), k + 1)
        groups = [frozenset(labels[j:j + 2]) for j in range(k)]
        rng.shuffle(groups)
        order = _order_groups(groups)
        assert order is not None
        assert order == _recursive_order_groups(groups)


class TestComponents:
    def test_two_shared_vertices_close_a_cycle(self):
        assert _components([frozenset({0, 1}), frozenset({0, 1, 2})]) is None

    def test_triangle_of_shared_vertices_is_a_cycle(self):
        groups = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0})]
        assert _components(groups) is None

    def test_disjoint_groups_get_distinct_labels(self):
        labels = _components([frozenset({0, 1}), frozenset({2}), frozenset({3, 4})])
        assert len(set(labels)) == 3

    def test_groups_sharing_a_vertex_share_a_label(self):
        labels = _components([frozenset({0, 1}), frozenset({5}), frozenset({1, 2})])
        assert labels[0] == labels[2] != labels[1]


SHUFFLED_PATH_17 = "P?G?aA?_?G?O?PCG?A?G@W??"  # a 17-vertex path, labels shuffled


def test_forest_orders_a_shuffled_path_in_bounded_time():
    # a backtracking piece order takes exponential time on this path
    src = str(Path(ramseykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "ramseykit", "forest", "--graph", SHUFFLED_PATH_17,
         "--pattern", "A_", "--budget", "0"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)["result"]["decomposition"]
    pieces = [Piece(tuple(p["vertices"]), tuple(map(tuple, p["edges"]))) for p in doc["pieces"]]
    # every piece is one edge u-v, mapped onto the pattern edge 0-1
    embeddings = [dict(zip(p.vertices, (0, 1))) for p in pieces]
    dec = ForestDecomposition(pieces, doc["attachments"], embeddings, doc["size"], doc["minimal"])
    check_decomposition(parse_graph6(SHUFFLED_PATH_17), complete_graph(2), dec)
    assert dec.size == len(pieces) == 16


class TestExtractCore:
    def test_k4(self):
        core = extract_core(complete_graph(4), complete_graph(3))
        assert core == complete_graph(4)

    def test_pendant_edge_ignored(self):
        g = Graph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        )
        core = extract_core(g, complete_graph(3))
        assert core == complete_graph(4)

    def test_smaller_offending_block_wins(self):
        g = Graph.from_edges(
            8,
            [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)],
        )
        core = extract_core(g, complete_graph(3))
        assert core == cycle_graph(4)

    def test_degenerate_input_raises(self):
        with pytest.raises(IsDegenerate):
            extract_core(bowtie(), complete_graph(3))

    def test_core_block_is_two_connected(self):
        for g in random_graphs(7, 60, seed=123):
            if is_degenerate(g, complete_graph(3)).degenerate:
                continue
            core = extract_core(g, complete_graph(3))
            assert find_embedding(core, complete_graph(3)) is None
            sub, _ = subgraph_from_sets(range(core.n), core.edges)
            from helpers import _two_connected

            assert _two_connected(range(core.n), core.sorted_edges())


def test_attached_union_piece_not_induced():
    # a piece may be a union of blocks whose vertex set spans extra edges
    # of the original graph; decomposition pieces carry explicit edge sets
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
    dec = forest_decomposition(g, complete_graph(3))
    assert dec is not None
    check_decomposition(g, complete_graph(3), dec)


def test_mixed_disjoint_and_glued():
    g = disjoint_union(bowtie(), complete_graph(3))
    dec = forest_decomposition(g, complete_graph(3))
    assert dec.size == 3
    check_decomposition(g, complete_graph(3), dec)
