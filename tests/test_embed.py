import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramseykit
from ramseykit import embed
from ramseykit.embed import (
    Copy,
    Embedding,
    _search_plan,
    _symmetry_plan,
    automorphism_count,
    contains_copy,
    count_copies,
    enumerate_copies,
    enumerate_copies_with_witness,
    enumerate_embeddings,
    find_embedding,
    subset_hits,
)
from ramseykit.errors import InvalidVertex
from ramseykit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    parse_graph6,
    path_graph,
)

from helpers import (
    all_graphs,
    automorphisms_oracle,
    bowtie,
    copies_oracle,
    diamond,
    embeddings_oracle,
    orbit_oracle,
    paw,
    random_graph,
    random_graphs,
)

PATTERNS = [
    complete_graph(2),
    path_graph(3),
    complete_graph(3),
    path_graph(4),
    cycle_graph(4),
    complete_graph(4),
    diamond(),
    paw(),
    disjoint_union(complete_graph(2), complete_graph(2)),
    disjoint_union(complete_graph(2), empty_graph(1)),
]


class TestAutomorphisms:
    def test_named(self):
        assert automorphism_count(complete_graph(3)) == 6
        assert automorphism_count(path_graph(3)) == 2
        assert automorphism_count(cycle_graph(4)) == 8

    def test_against_oracle(self):
        for g in PATTERNS:
            assert automorphism_count(g) == automorphisms_oracle(g)
        for g in random_graphs(5, 20, seed=5):
            assert automorphism_count(g) == automorphisms_oracle(g)

    def test_every_small_graph(self):
        for n in range(6):
            for g in all_graphs(n):
                assert automorphism_count(g) == automorphisms_oracle(g), g


class TestEnumerateCopies:
    def test_k3_in_k4(self):
        assert len(enumerate_copies(complete_graph(3), complete_graph(4)).copies) == 4

    def test_p3_in_c4(self):
        assert len(enumerate_copies(path_graph(3), cycle_graph(4)).copies) == 4

    def test_triangle_free_host(self):
        assert enumerate_copies(complete_graph(3), cycle_graph(4)).copies == []

    def test_pinned_center_of_bowtie(self):
        enum = enumerate_copies(complete_graph(3), bowtie(), pin=(0, 2))
        assert len(enum.copies) == 2

    def test_pinned_leaf_of_bowtie(self):
        enum = enumerate_copies(complete_graph(3), bowtie(), pin=(0, 0))
        assert len(enum.copies) == 1

    def test_pin_validation(self):
        with pytest.raises(InvalidVertex):
            enumerate_copies(complete_graph(3), bowtie(), pin=(7, 0))
        with pytest.raises(InvalidVertex):
            enumerate_copies(complete_graph(3), bowtie(), pin=(0, 9))

    def test_limit_and_truncation(self):
        enum = enumerate_copies(complete_graph(2), complete_graph(6), limit=5)
        assert len(enum.copies) == 5
        assert enum.truncated
        enum = enumerate_copies(complete_graph(2), complete_graph(6), limit=15)
        assert len(enum.copies) == 15
        assert not enum.truncated

    def test_against_oracle(self):
        for pattern in PATTERNS:
            for host in random_graphs(6, 12, seed=hash(pattern.edges) % 1000):
                got = {c.key() for c in enumerate_copies(pattern, host).copies}
                assert got == copies_oracle(pattern, host)


class TestContainsCopy:
    def test_named(self):
        assert not contains_copy(cycle_graph(4), complete_graph(3))
        assert contains_copy(path_graph(3), complete_graph(3))
        assert contains_copy(diamond(), complete_graph(4))

    def test_empty_pattern(self):
        assert contains_copy(empty_graph(0), complete_graph(3))
        assert contains_copy(empty_graph(0), complete_graph(3), within=0)
        assert contains_copy(empty_graph(0), empty_graph(0))

    def test_mask_smaller_than_pattern(self):
        k3, host = complete_graph(3), complete_graph(6)
        assert not contains_copy(k3, host, within=0b100001)
        assert not contains_copy(k3, host, within=0)
        assert contains_copy(k3, host, within=0b100011)

    def test_pattern_larger_than_mask_builds_no_plan(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a plan was built for a mask too small to search")

        monkeypatch.setattr(embed, "_search_plan", forbidden)
        monkeypatch.setattr(embed, "_symmetry_plan", forbidden)
        big, host = cycle_graph(12), complete_graph(6)
        assert not contains_copy(big, host)
        assert not contains_copy(big, host, within=0b111)
        assert list(subset_hits(big, host, [0, 0b111111, 0b101])) == [False] * 3

    def test_mask_outside_host_raises(self):
        k2, host = complete_graph(2), complete_graph(4)
        for mask in (1 << 4, 0b11111, -1):
            with pytest.raises(InvalidVertex):
                contains_copy(k2, host, within=mask)
            with pytest.raises(InvalidVertex):
                contains_copy(empty_graph(0), host, within=mask)

    def test_builds_no_embedding(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("contains_copy built an Embedding")

        monkeypatch.setattr(embed, "Embedding", forbidden)
        assert contains_copy(complete_graph(3), complete_graph(5), within=0b10110)
        assert not contains_copy(complete_graph(4), complete_graph(5), within=0b10110)


class TestSubsetHits:
    def count_searches(self, monkeypatch):
        searches = []
        real = embed._assignments

        def counting(*args, **kwargs):
            searches.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(embed, "_assignments", counting)
        return searches

    def test_named(self):
        k3, host = complete_graph(3), complete_graph(6)
        masks = [0b111, 0b100001, 0, 0b111000, 0b100011, 0b111111]
        assert list(subset_hits(k3, host, masks)) == [True, False, False, True, True, True]
        assert list(subset_hits(empty_graph(0), host, [0, 0b1])) == [True, True]
        assert list(subset_hits(k3, host, [])) == []

    def test_mask_outside_host_raises(self):
        host = complete_graph(4)
        for mask in (1 << 4, 0b11111, -1):
            with pytest.raises(InvalidVertex):
                list(subset_hits(complete_graph(2), host, [0b11, mask]))

    def test_found_copy_answers_later_masks(self, monkeypatch):
        searches = self.count_searches(monkeypatch)
        host = disjoint_union(complete_graph(3), complete_graph(3))
        masks = [0b111, 0b1111, 0b110111, 0b111000, 0b111111, 0b011011]
        assert list(subset_hits(complete_graph(3), host, masks)) == [
            True, True, True, True, True, False
        ]
        # one search finds each triangle; only the miss searches again
        assert searches == [0b111, 0b111000, 0b011011]

    def test_memo_is_capped_and_move_to_front(self, monkeypatch):
        cap = embed.MEMO_COPIES
        host = empty_graph(0)
        for _ in range(cap + 1):
            host = disjoint_union(host, complete_graph(3))
        tri = [0b111 << 3 * i for i in range(cap + 1)]
        searches = self.count_searches(monkeypatch)
        # the cap copies fill the memo; a memo hit on tri[0] moves it to the
        # front, so the next new copy evicts tri[1], not tri[0]
        masks = tri[:cap] + [tri[0], tri[cap], tri[0], tri[1]]
        assert all(subset_hits(complete_graph(3), host, masks))
        assert searches == tri[:cap] + [tri[cap], tri[1]]


class TestCountConsistency:
    def test_embeddings_equal_copies_times_automorphisms(self):
        for pattern in PATTERNS:
            if pattern.n > 4:
                continue
            aut = automorphism_count(pattern)
            for host in random_graphs(6, 10, seed=pattern.m * 13 + pattern.n):
                n_embeddings = sum(1 for _ in enumerate_embeddings(pattern, host))
                n_copies, truncated = count_copies(pattern, host)
                assert not truncated
                assert n_embeddings == n_copies * aut

    def test_pinned_union_covers_unpinned(self):
        pattern = path_graph(3)
        for host in random_graphs(6, 8, seed=21):
            unpinned = {c.key() for c in enumerate_copies(pattern, host).copies}
            for role in range(pattern.n):
                union = set()
                for v in range(host.n):
                    union |= {
                        c.key()
                        for c in enumerate_copies(pattern, host, pin=(role, v)).copies
                    }
                assert union == unpinned

    def test_pinned_subsets_of_unpinned(self):
        pattern = complete_graph(3)
        for host in random_graphs(7, 8, seed=33):
            unpinned = {c.key() for c in enumerate_copies(pattern, host).copies}
            for v in range(host.n):
                pinned = {
                    c.key() for c in enumerate_copies(pattern, host, pin=(1, v)).copies
                }
                assert pinned <= unpinned
                for key in pinned:
                    assert v in key[0]


@st.composite
def host_and_extra_edge(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) - 1))
    missing = [p for p in pairs if p not in edges]
    extra = draw(st.sampled_from(missing))
    return Graph(n, frozenset(edges)), extra


@settings(max_examples=60, deadline=None)
@given(host_and_extra_edge())
def test_copy_count_monotone_under_edge_addition(case):
    host, extra = case
    bigger = Graph(host.n, host.edges | {extra})
    for pattern in (complete_graph(3), path_graph(3), cycle_graph(4)):
        before, _ = count_copies(pattern, host)
        after, _ = count_copies(pattern, bigger)
        assert after >= before


class TestWithinMask:
    def test_pin_outside_mask_yields_nothing(self):
        k3, host = complete_graph(3), complete_graph(5)
        assert list(enumerate_embeddings(k3, host, (0, 4), 0b01111)) == []
        assert find_embedding(k3, host, (0, 3), 0b01111) is not None

    def test_mask_outside_host_raises(self):
        k2, host = complete_graph(2), complete_graph(4)
        for mask in (1 << 4, 0b11111, -1):
            with pytest.raises(InvalidVertex):
                list(enumerate_embeddings(k2, host, within=mask))
            with pytest.raises(InvalidVertex):
                find_embedding(k2, host, within=mask)

    def test_none_is_the_whole_host(self):
        for pattern in PATTERNS:
            for host in random_graphs(6, 5, seed=pattern.m * 7 + pattern.n):
                whole = list(enumerate_embeddings(pattern, host))
                assert whole == list(
                    enumerate_embeddings(pattern, host, within=(1 << host.n) - 1)
                )
                assert sorted(e.map for e in whole) == sorted(
                    embeddings_oracle(pattern, host)
                )


@st.composite
def host_mask_and_pin(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    pattern = draw(st.sampled_from(PATTERNS))
    kept = [v for v in range(n) if mask >> v & 1]
    pin = None
    if kept and draw(st.booleans()):
        pin = (draw(st.integers(0, pattern.n - 1)), draw(st.sampled_from(kept)))
    return pattern, Graph(n, frozenset(edges)), mask, pin


@settings(max_examples=200, deadline=None)
@given(host_mask_and_pin())
def test_within_matches_induced_subgraph(case):
    pattern, host, mask, pin = case
    sub, kept = induced_subgraph(host, [v for v in range(host.n) if mask >> v & 1])
    local_pin = None if pin is None else (pin[0], kept.index(pin[1]))

    def back(emb):
        m = tuple(kept[v] for v in emb.map)
        edges = frozenset((kept[u], kept[v]) for u, v in emb.image_edges)
        return Embedding(emb.pattern_n, m, frozenset(m), edges)

    expected = [back(emb) for emb in enumerate_embeddings(pattern, sub, local_pin)]
    assert list(enumerate_embeddings(pattern, host, pin, within=mask)) == expected
    pairs, truncated = enumerate_copies_with_witness(pattern, sub, local_pin)
    expected_pairs = [
        (Copy(e.image_vertices, e.image_edges), e) for e in (back(emb) for _, emb in pairs)
    ]
    assert enumerate_copies_with_witness(pattern, host, pin, within=mask) == (
        expected_pairs, truncated
    )


@settings(max_examples=200, deadline=None)
@given(host_mask_and_pin())
def test_contains_copy_is_find_first(case):
    pattern, host, mask, _ = case
    found = contains_copy(pattern, host, within=mask)
    assert found == (find_embedding(pattern, host, within=mask) is not None)
    sub, _ = induced_subgraph(host, [v for v in range(host.n) if mask >> v & 1])
    assert found == bool(copies_oracle(pattern, sub))


@settings(max_examples=100, deadline=None)
@given(host_mask_and_pin(), st.data())
def test_subset_hits_is_contains_copy_per_mask(case, data):
    pattern, host, mask, _ = case
    masks = [mask] + data.draw(st.lists(st.integers(0, (1 << host.n) - 1), max_size=30))
    assert list(subset_hits(pattern, host, masks)) == [
        contains_copy(pattern, host, within=mask) for mask in masks
    ]


def find_first_corpus(count: int, seed: int):
    """Seeded (pattern, host, pin, mask) cases: hosts of up to 13 vertices
    and patterns of up to 6, every third one disconnected, all densities;
    pins and masks on about half of them."""
    rng = random.Random(seed)

    def draw(lo: int, hi: int) -> Graph:
        n = rng.randint(lo, hi)
        return random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)

    for case in range(count):
        pattern = draw(1, 6)
        if case % 3 == 0:
            pattern = disjoint_union(draw(1, 3), draw(1, 3))
        host = draw(0, 13)
        mask = rng.getrandbits(host.n) if rng.random() < 0.6 else None
        pin = None
        if host.n and rng.random() < 0.5:
            pin = (rng.randrange(pattern.n), rng.randrange(host.n))
        yield pattern, host, pin, mask


def test_find_first_answers_are_the_default_stream():
    """The find-first searches break the pattern's symmetry, yet answer as
    the unconstrained default stream does."""
    rng = random.Random(7)
    checked = 0
    for pattern, host, pin, mask in find_first_corpus(400, seed=19):
        first = next(enumerate_embeddings(pattern, host, pin, mask), None)
        assert find_embedding(pattern, host, pin, mask) == first
        kept = [v for v in range(host.n) if mask is None or mask >> v & 1]
        found = contains_copy(pattern, host, mask)
        if len(kept) <= 8:  # the permutation oracle grows as 8!/2! here
            sub, _ = induced_subgraph(host, kept)
            assert found == bool(embeddings_oracle(pattern, sub))
            checked += 1
        masks = [rng.getrandbits(host.n) for _ in range(6)] + [mask or 0]
        assert list(subset_hits(pattern, host, masks)) == [
            contains_copy(pattern, host, within=m) for m in masks
        ]
    assert checked >= 200


def test_find_first_above_the_cap_builds_no_symmetry_plan(monkeypatch):
    planned = []
    real = embed._symmetry_plan

    def recording(pattern, first):
        planned.append(pattern.n)
        return real(pattern, first)

    monkeypatch.setattr(embed, "_symmetry_plan", recording)
    cap = embed.SYMMETRY_CAP
    host = cycle_graph(4 * cap)
    whole = (1 << host.n) - 1
    for n in (cap + 1, 3 * cap):
        path = path_graph(n)
        assert find_embedding(path, host) is not None
        assert find_embedding(path, host, pin=(0, 5), within=whole) is not None
        assert contains_copy(path, host)
        assert list(subset_hits(path, host, [whole, whole >> 1])) == [True, True]
    assert planned == []
    path = path_graph(cap)
    find_embedding(path, host)
    contains_copy(path, host)
    list(subset_hits(path, host, [whole]))
    assert planned == [cap] * 3


def first_of_each_copy(stream):
    """The dedup loop one_per_copy replaces: keep the first embedding of
    each image, in stream order."""
    seen = set()
    for emb in stream:
        key = (emb.image_vertices, emb.image_edges)
        if key not in seen:
            seen.add(key)
            yield emb


def graphs_upto(max_n: int, min_n: int = 0):
    @st.composite
    def draw_graph(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return Graph(n, frozenset(edges))

    return draw_graph()


@st.composite
def pattern_host_pin_mask(draw):
    pattern = draw(graphs_upto(6, min_n=1))
    host = draw(graphs_upto(9))
    mask = None
    if draw(st.booleans()):
        mask = draw(st.integers(min_value=0, max_value=(1 << host.n) - 1))
    pin = None
    if host.n and draw(st.booleans()):
        pin = (draw(st.integers(0, pattern.n - 1)), draw(st.integers(0, host.n - 1)))
    return pattern, host, pin, mask


@settings(max_examples=300, deadline=None)
@given(pattern_host_pin_mask())
def test_one_per_copy_is_the_deduplicated_stream(case):
    pattern, host, pin, mask = case
    plain = enumerate_embeddings(pattern, host, pin, mask)
    once = list(enumerate_embeddings(pattern, host, pin, mask, one_per_copy=True))
    assert once == list(first_of_each_copy(plain))


@pytest.mark.parametrize("pattern", PATTERNS + [bowtie(), cycle_graph(5), complete_graph(5)])
def test_one_per_copy_against_the_copy_oracle(pattern):
    for host in random_graphs(7, 8, seed=pattern.m * 31 + pattern.n):
        keys = [
            Copy(e.image_vertices, e.image_edges).key()
            for e in enumerate_embeddings(pattern, host, one_per_copy=True)
        ]
        assert len(keys) == len(set(keys))
        assert set(keys) == copies_oracle(pattern, host)


def test_streams_are_the_sorted_oracle():
    """The default stream is every edge-preserving injection that keeps the
    pin and the mask, in lexicographic order of host ids by plan position;
    the one_per_copy stream is that stream with repeated images removed.
    The corpus holds patterns whose last plan vertex has two or more placed
    neighbours, pinned plans, and masks that drop the last position's image
    of an otherwise kept embedding, which the forward check must refuse."""
    rng = random.Random(23)

    def draw(lo: int, hi: int) -> Graph:
        n = rng.randint(lo, hi)
        return random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)

    closing_nbrs = pinned = closing_dropped = 0
    named = PATTERNS + [bowtie(), cycle_graph(5)]
    for case in range(400):
        pattern = rng.choice(named) if case % 2 else draw(1, 5)
        host = draw(0, 7)
        mask = rng.getrandbits(host.n) if rng.random() < 0.5 else None
        pin = None
        if host.n and rng.random() < 0.5:
            pin = (rng.randrange(pattern.n), rng.randrange(host.n))
        order, placed_nbrs, _ = _search_plan(pattern, None if pin is None else pin[0])
        maps = [p for p in embeddings_oracle(pattern, host) if pin is None or p[pin[0]] == pin[1]]
        outside = [[v for v in p if mask is not None and not mask >> v & 1] for p in maps]
        kept = [p for p, out in zip(maps, outside) if not out]
        kept.sort(key=lambda p: [p[v] for v in order])
        stream = list(enumerate_embeddings(pattern, host, pin, mask))
        assert [e.map for e in stream] == kept
        once = enumerate_embeddings(pattern, host, pin, mask, one_per_copy=True)
        assert list(once) == list(first_of_each_copy(stream))
        closing_nbrs += len(placed_nbrs[-1]) >= 2
        pinned += pin is not None
        closing_dropped += any(out == [p[order[-1]]] for p, out in zip(maps, outside))
    assert closing_nbrs >= 100 and pinned >= 150 and closing_dropped >= 30


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


def test_forward_check_reads_fewer_adjacency_masks():
    """The Petersen graph has girth 5, so it holds no C4.  The search reads
    the host's adjacency masks 50 times to show it; without the forward
    check of the last position it read them 116 times, since each path of
    three vertices that the order constraints allow was extended to a
    fourth position that had no candidate."""

    class CountingReads(tuple):
        reads = 0

        def __getitem__(self, index):
            CountingReads.reads += 1
            return tuple.__getitem__(self, index)

    host = petersen()
    host.__dict__["adj_bits"] = CountingReads(host.adj_bits)
    assert count_copies(cycle_graph(4), host) == (0, False)
    assert 0 < CountingReads.reads < 116


LARGE_SYMMETRY = """
from ramseykit.embed import automorphism_count, count_copies
from ramseykit.graphs import complete_graph
k12 = complete_graph(12)
print(count_copies(k12, k12), automorphism_count(k12))
"""


def test_complete_graph_symmetry_is_not_enumerated():
    """479,001,600 embeddings of K12 into itself would take hours; one per
    copy and the orbit-size product take well under the timeout."""
    src = str(Path(ramseykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", LARGE_SYMMETRY],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["(1,", "False)", "479001600"]


def test_long_path_needs_no_recursion():
    path = path_graph(1500)
    emb = find_embedding(path, path)
    assert emb is not None and emb.image_edges == path.edges
    assert count_copies(path, path) == (1, False)


def _max_order(pattern: Graph, first: int | None) -> tuple[int, ...]:
    """The plan order as a max over every unplaced vertex at each step."""
    order = [] if first is None else [first]
    seen = set(order)
    while len(order) < pattern.n:
        best = max(
            (v for v in range(pattern.n) if v not in seen),
            key=lambda v: (len(pattern.adj[v] & seen), pattern.degree(v), -v),
        )
        order.append(best)
        seen.add(best)
    return tuple(order)


def test_search_plan_order_matches_max_formulation():
    for n in range(1, 8):
        for g in random_graphs(n, 40, seed=n):
            for first in (None, *range(n)):
                assert _search_plan.__wrapped__(g, first)[0] == _max_order(g, first)


def test_search_plan_is_near_linear():
    path = path_graph(1500)
    for first in (None, 750):
        start = time.perf_counter()
        order = _search_plan.__wrapped__(path, first)[0]
        assert time.perf_counter() - start < 0.1
        assert sorted(order) == list(range(1500))


def test_symmetry_plan_searches_only_matching_neighbour_degrees(monkeypatch):
    """On a path only the mirror image of the first vertex shares its sorted
    neighbour degrees, so the plan needs one self-search, not one per
    interior vertex."""
    real = embed._assignments
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(embed, "_assignments", counting)
    smaller, sizes, _ = _symmetry_plan.__wrapped__(path_graph(200), None)
    assert len(calls) < 10
    assert sizes[0] == 2 and all(size == 1 for size in sizes[1:])


def test_pinned_plans_carry_the_whole_group():
    """A pinned plan decides level 0 as well, without breaking it: its
    orbit sizes multiply to the order of the whole group, and its level-0
    orbit is the pinned role's."""
    for n in range(6):
        for g in all_graphs(n):
            order = automorphisms_oracle(g)
            for role in range(n):
                _, sizes, orbit = _symmetry_plan(g, role)
                assert math.prod(sizes) == order
                assert orbit == orbit_oracle(g, role)


def test_symmetry_plan_of_a_dense_pattern_is_fast():
    """Deeper levels are decided first, so each self-search walks one map
    per coset of the next stabiliser, not one per automorphism."""
    g = parse_graph6("L||^rf}z~||~z~")
    start = time.perf_counter()
    _, sizes, _ = _symmetry_plan.__wrapped__(g, None)
    assert time.perf_counter() - start < 0.15
    assert math.prod(sizes) == 288
