import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ramseykit
from ramseykit import certify
from ramseykit.certify import (
    COLORING,
    EMBEDDING,
    UNKNOWN,
    degeneracy_coloring,
    embed_or_color,
    greedy_disjoint_family,
    palette_bound,
    star_family_at_least,
    verify_coloring,
)
from ramseykit.embed import (
    Embedding,
    _symmetry_plan,
    contains_copy,
    enumerate_copies,
    enumerate_copies_with_witness,
)
from ramseykit.errors import (
    CertificateError,
    EnumerationTruncated,
    NotDegenerate,
    ParamOutOfRange,
)
from ramseykit.graphs import (
    Graph,
    VertexColoring,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    parse_graph6,
    path_graph,
)

from helpers import (
    bowtie,
    diamond,
    nonisomorphic_graphs,
    orbit_oracle,
    paw,
    random_graph,
    random_graphs,
    two_triangles,
)


class TestStarFamily:
    def test_bowtie_center(self):
        ok, fam = star_family_at_least(bowtie(), complete_graph(3), 0, 2, 2)
        assert ok
        assert fam.size() == 2
        vsets = [set(c.vertices) for c in fam.copies]
        assert all(2 in vs for vs in vsets)
        inter = vsets[0] & vsets[1]
        assert inter == {2}

    def test_bowtie_leaf(self):
        ok, fam = star_family_at_least(bowtie(), complete_graph(3), 0, 0, 2)
        assert not ok and fam is None

    def test_no_triangles_at_all(self):
        ok, _ = star_family_at_least(cycle_graph(4), complete_graph(3), 0, 0, 1)
        assert not ok

    def test_witness_embeddings_pin_the_center(self):
        ok, fam = star_family_at_least(complete_graph(6), complete_graph(3), 1, 4, 2)
        assert ok
        for emb in fam.embeddings:
            assert emb.map[1] == 4

    def test_packing_needs_search(self):
        # two triangle pairs overlap except for one exact combination
        g = Graph.from_edges(
            7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]
        )
        ok, fam = star_family_at_least(g, complete_graph(3), 0, 0, 3)
        assert ok and fam.size() == 3

    def test_truncation_raises(self):
        with pytest.raises(EnumerationTruncated):
            star_family_at_least(complete_graph(8), complete_graph(3), 0, 0, 2, limit=3)

    def test_large_star_needs_no_recursion(self):
        star = Graph.from_edges(1501, [(0, leaf) for leaf in range(1, 1501)])
        ok, fam = star_family_at_least(star, complete_graph(2), 0, 0, 1500)
        assert ok and fam.size() == 1500

    def test_packing_matches_recursive_form(self):
        patterns = [complete_graph(2), complete_graph(3), path_graph(3), cycle_graph(4)]
        for n in (6, 8):
            for g in random_graphs(n, 12, seed=n * 13):
                for pattern in patterns:
                    for role in range(pattern.n):
                        for v in range(n):
                            pairs, _ = enumerate_copies_with_witness(pattern, g, pin=(role, v))
                            masks = [sum(1 << w for w in c.vertices if w != v) for c, _ in pairs]
                            for t in range(1, 5):
                                chosen = _recursive_pack(masks, t)
                                ok, fam = star_family_at_least(g, pattern, role, v, t)
                                assert ok == (chosen is not None)
                                if ok:
                                    assert fam.copies == [pairs[j][0] for j in chosen]


def _recursive_pack(masks: list[int], t: int) -> list[int] | None:
    """The recursive packing star_family_at_least used before its stack form."""
    chosen: list[int] = []

    def pack(idx: int, used: int) -> bool:
        if len(chosen) == t:
            return True
        if len(chosen) + (len(masks) - idx) < t:
            return False
        for j in range(idx, len(masks)):
            if masks[j] & used:
                continue
            chosen.append(j)
            if pack(j + 1, used | masks[j]):
                return True
            chosen.pop()
        return False

    return chosen if pack(0, 0) else None


class TestGreedyDisjointFamily:
    def test_k6_has_two(self):
        fam = greedy_disjoint_family(complete_graph(6), complete_graph(3))
        assert len(fam) == 2

    def test_c4_empty(self):
        assert greedy_disjoint_family(cycle_graph(4), complete_graph(3)) == []

    def test_two_triangles(self):
        fam = greedy_disjoint_family(two_triangles(), complete_graph(3))
        assert len(fam) == 2

    def test_maximality(self):
        for g in random_graphs(8, 30, seed=42):
            fam = greedy_disjoint_family(g, complete_graph(3))
            used = set()
            for copy in fam:
                assert not (copy.vertices & used)
                used |= copy.vertices
            rest, _ = induced_subgraph(g, [v for v in range(g.n) if v not in used])
            assert not contains_copy(complete_graph(3), rest)

    def test_same_family_as_round_by_round(self):
        """One scan over the copies keeps what re-enumerating the leftover
        and taking its first copy, round after round, keeps."""

        def rounds(g, pattern, within):
            family, remaining = [], within
            while True:
                copies = enumerate_copies(pattern, g, limit=None, within=remaining).copies
                if not copies:
                    return family
                family.append(copies[0])
                remaining &= ~sum(1 << w for w in copies[0].vertices)

        for pattern in (complete_graph(2), path_graph(3), complete_graph(3), cycle_graph(4)):
            for g in random_graphs(9, 15, seed=pattern.m * 5 + pattern.n):
                for within in (None, 0b101101101, 0b111110000):
                    full = (1 << g.n) - 1 if within is None else within
                    assert greedy_disjoint_family(g, pattern, within=within) == rounds(
                        g, pattern, full
                    )

    def test_truncates_only_when_the_mask_holds_too_many(self):
        k3 = complete_graph(3)
        assert len(greedy_disjoint_family(two_triangles(), k3, limit=2)) == 2
        with pytest.raises(EnumerationTruncated):
            greedy_disjoint_family(two_triangles(), k3, limit=1)


def independent_degeneracy(g: Graph) -> int:
    """Max over the removal sequence of the minimum degree."""
    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in alive}
    worst = 0
    while alive:
        v = min(alive, key=lambda w: (deg[w], w))
        worst = max(worst, deg[v])
        alive.remove(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
    return worst


class TestDegeneracyColoring:
    def test_edgeless(self):
        assert degeneracy_coloring(empty_graph(5)).palette_size == 1

    def test_c5(self):
        col = degeneracy_coloring(cycle_graph(5))
        assert col.palette_size <= 3
        for u, v in cycle_graph(5).edges:
            assert col.colors[u] != col.colors[v]

    def test_bound_against_independent_degeneracy(self):
        for g in random_graphs(10, 40, seed=7):
            col = degeneracy_coloring(g)
            for u, v in g.edges:
                assert col.colors[u] != col.colors[v]
            assert col.palette_size <= independent_degeneracy(g) + 1


class TestVerifyColoring:
    def test_monochromatic_triangle(self):
        ok, witness = verify_coloring(
            complete_graph(3), complete_graph(3), VertexColoring((0, 0, 0))
        )
        assert not ok
        assert witness.vertices == frozenset({0, 1, 2})

    def test_rainbow(self):
        ok, witness = verify_coloring(
            complete_graph(3), complete_graph(3), VertexColoring((0, 1, 2))
        )
        assert ok and witness is None

    def test_c6_proper_two_coloring(self):
        c6 = cycle_graph(6)
        proper = VertexColoring((0, 1, 0, 1, 0, 1))
        assert verify_coloring(c6, complete_graph(2), proper)[0]
        assert not verify_coloring(c6, complete_graph(2), VertexColoring((0,) * 6))[0]

    def test_length_mismatch(self):
        with pytest.raises(ParamOutOfRange):
            verify_coloring(complete_graph(3), complete_graph(2), VertexColoring((0,)))


def assert_certificate_sound(host, pattern, target, cert):
    if cert.branch == EMBEDDING:
        assert cert.verified
        assert len(cert.embedding) == target.n
        assert len(set(cert.embedding.values())) == target.n
        for u, v in target.edges:
            assert host.has_edge(cert.embedding[u], cert.embedding[v])
    elif cert.branch == COLORING:
        assert cert.verified
        assert verify_coloring(host, pattern, cert.coloring)[0]
        assert cert.coloring.palette_size <= cert.palette_bound
    else:
        pytest.fail(f"unexpected branch {cert.branch}")


ACCEPTANCE_PAIRS = [
    (complete_graph(3), bowtie()),
    (complete_graph(2), path_graph(3)),
    (complete_graph(3), two_triangles()),
]


class TestEmbedOrColor:
    def test_identity_embedding(self):
        cert = embed_or_color(bowtie(), complete_graph(3), bowtie())
        assert cert.branch == EMBEDDING
        assert_certificate_sound(bowtie(), complete_graph(3), bowtie(), cert)

    def test_k4_gets_coloring_within_26(self):
        cert = embed_or_color(complete_graph(4), complete_graph(3), bowtie())
        assert cert.branch == COLORING
        assert cert.palette_bound == 26
        assert cert.coloring.palette_size <= 26
        assert_certificate_sound(complete_graph(4), complete_graph(3), bowtie(), cert)

    def test_k7_contains_p3(self):
        cert = embed_or_color(complete_graph(7), complete_graph(2), path_graph(3))
        assert cert.branch == EMBEDDING
        assert_certificate_sound(
            complete_graph(7), complete_graph(2), path_graph(3), cert
        )

    def test_not_degenerate_raises(self):
        with pytest.raises(NotDegenerate):
            embed_or_color(complete_graph(5), complete_graph(3), complete_graph(4))

    def test_tiny_pattern_rejected(self):
        with pytest.raises(ParamOutOfRange):
            embed_or_color(complete_graph(3), complete_graph(1), path_graph(3))

    def test_star_host_regression(self):
        # the coloring machinery alone would 2-color this host and miss the path
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        cert = embed_or_color(star, complete_graph(2), path_graph(3))
        assert cert.branch == EMBEDDING

    def test_killer_triangle_regression(self):
        # the lexicographically first triangle intersects both disjoint ones
        g = Graph.from_edges(
            6, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (0, 2), (1, 2)]
        )
        cert = embed_or_color(g, complete_graph(3), two_triangles())
        assert cert.branch == EMBEDDING
        assert_certificate_sound(g, complete_graph(3), two_triangles(), cert)

    def test_empty_target_rejected(self):
        with pytest.raises(ParamOutOfRange, match="^target needs at least one vertex$"):
            embed_or_color(complete_graph(3), complete_graph(3), empty_graph(0))

    def test_star_family_of_no_copies_rejected(self):
        with pytest.raises(ParamOutOfRange, match="^target family size must be at least 1$"):
            star_family_at_least(complete_graph(4), complete_graph(3), 0, 0, 0)

    def test_empty_host(self):
        cert = embed_or_color(empty_graph(0), complete_graph(3), bowtie())
        assert cert.branch == COLORING
        assert cert.coloring.palette_size == 0

    def test_equivalence_and_soundness_over_corpus(self):
        for pattern, target in ACCEPTANCE_PAIRS:
            for n in (5, 7, 9):
                for host in random_graphs(n, 40, seed=n * 3 + target.n):
                    cert = embed_or_color(host, pattern, target)
                    assert_certificate_sound(host, pattern, target, cert)
                    expected = contains_copy(target, host)
                    assert (cert.branch == EMBEDDING) == expected

    def test_asymmetric_pattern_roles(self):
        pattern = path_graph(3)
        target = path_graph(5)  # two pattern pieces glued at the middle
        for host in random_graphs(8, 40, seed=11):
            cert = embed_or_color(host, pattern, target)
            assert_certificate_sound(host, pattern, target, cert)
            assert (cert.branch == EMBEDDING) == contains_copy(target, host)

    def test_three_pieces_deep_recursion(self):
        pattern = complete_graph(3)
        target = disjoint_union(bowtie(), complete_graph(3))
        for host in random_graphs(9, 25, seed=19):
            cert = embed_or_color(host, pattern, target)
            assert_certificate_sound(host, pattern, target, cert)
            assert (cert.branch == EMBEDDING) == contains_copy(target, host)

    def test_unknown_on_truncation(self):
        cert = embed_or_color(
            complete_graph(4), complete_graph(3), bowtie(), copy_limit=2
        )
        assert cert.branch == UNKNOWN
        assert not cert.verified
        assert cert.reason

    def test_levels_recorded(self):
        cert = embed_or_color(complete_graph(4), complete_graph(3), bowtie())
        assert cert.levels
        assert cert.levels[0].case in {"glued", "disjoint", "single-piece"}
        assert cert.levels[0].host_size == 4

    def test_deterministic(self):
        host = next(iter(random_graphs(9, 1, seed=5)))
        a = embed_or_color(host, complete_graph(3), bowtie())
        b = embed_or_color(host, complete_graph(3), bowtie())
        assert a.to_json_dict() == b.to_json_dict()

    def test_explicit_decomposition(self):
        from ramseykit.degeneracy import forest_decomposition

        dec = forest_decomposition(bowtie(), complete_graph(3))
        cert = embed_or_color(
            complete_graph(4), complete_graph(3), bowtie(), decomposition=dec
        )
        assert cert.branch == COLORING and cert.pieces == 2

    def test_json_shape(self):
        cert = embed_or_color(complete_graph(4), complete_graph(3), bowtie())
        doc = cert.to_json_dict()
        assert doc["branch"] == COLORING
        assert doc["palette_size"] <= doc["palette_bound"]
        assert len(doc["coloring"]) == 4
        assert all("u_size" in level for level in doc["levels"])


class TestPaletteBound:
    def test_formula(self):
        assert palette_bound(3, 5, 2) == 26
        assert palette_bound(2, 3, 2) == 6

    def test_small_targets(self):
        assert palette_bound(3, 2, 1) == 1
        assert palette_bound(3, 2, 2) == 3


def test_target_plan_is_built_once_per_pair(monkeypatch):
    real = certify.forest_decomposition
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, "forest_decomposition", counting)
    certify._target_plan.cache_clear()
    hosts = list(random_graphs(8, 12, seed=3))
    branches = {embed_or_color(host, complete_graph(3), bowtie()).branch for host in hosts}
    assert len(hosts) == 12 and branches == {EMBEDDING, COLORING}
    assert len(calls) == 1


def test_supplied_decomposition_builds_an_uncached_plan():
    from ramseykit.degeneracy import forest_decomposition

    pattern, target = complete_graph(3), path_graph(3)
    dec = forest_decomposition(target, pattern, node_budget=0)
    assert dec.size == 2 and not dec.minimal
    host = Graph.from_edges(5, [(0, 1), (2, 3)])
    cert = embed_or_color(host, pattern, target, decomposition=dec)
    assert (cert.pieces, cert.palette_bound) == (2, 10)
    assert_certificate_sound(host, pattern, target, cert)
    cert = embed_or_color(host, pattern, target)
    assert (cert.pieces, cert.palette_bound) == (1, 5)
    assert_certificate_sound(host, pattern, target, cert)


def test_cold_and_warm_plans_give_equal_certificates():
    from ramseykit.degeneracy import forest_decomposition

    pairs = ACCEPTANCE_PAIRS + [
        (path_graph(3), path_graph(5)),
        (complete_graph(3), disjoint_union(bowtie(), complete_graph(3))),
    ]
    for pattern, target in pairs:
        dec = forest_decomposition(target, pattern)
        for host in random_graphs(8, 10, seed=target.m):
            certify._target_plan.cache_clear()
            cold = embed_or_color(host, pattern, target).to_json_dict()
            warm = embed_or_color(host, pattern, target).to_json_dict()
            supplied = embed_or_color(host, pattern, target, decomposition=dec)
            assert cold == warm == supplied.to_json_dict()


def test_one_target_search_and_no_induced_subgraph(monkeypatch):
    real_find = certify.find_embedding
    searched = []

    def counting_find(pattern, host, *args, **kwargs):
        searched.append(pattern)
        return real_find(pattern, host, *args, **kwargs)

    def no_induced_subgraph(*args, **kwargs):
        raise AssertionError("certify built an induced subgraph")

    monkeypatch.setattr(certify, "find_embedding", counting_find)
    monkeypatch.setattr(certify, "induced_subgraph", no_induced_subgraph, raising=False)
    three_pieces = (complete_graph(3), disjoint_union(bowtie(), complete_graph(3)))
    branches = set()
    for pattern, target in ACCEPTANCE_PAIRS + [three_pieces]:
        for host in random_graphs(8, 12, seed=target.n):
            searched.clear()
            cert = embed_or_color(host, pattern, target)
            branches.add(cert.branch)
            targets = [g for g in searched if g is not pattern]
            assert len(targets) == 1 and targets[0] is target
    assert branches == {EMBEDDING, COLORING}


# six triangles sharing vertex 0, and a chain of three triangles
FLOWER = "L{eCKA@_C?o?_@"
CHAIN = "FxKGW"


def test_flower_colors_u_inside_u():
    """The first glued level keeps the flower's centre active and colors
    the twelve petal vertices as U, over their copies inside U only."""
    flower, chain, k3 = parse_graph6(FLOWER), parse_graph6(CHAIN), complete_graph(3)
    for limit in (None, 6):
        cert = embed_or_color(flower, k3, chain, copy_limit=limit)
        assert cert.branch == COLORING
        assert (cert.coloring.palette_size, cert.palette_bound) == (2, 63)
        levels = [(s.case, s.host_size, s.u_size) for s in cert.levels]
        assert levels == [("glued", 13, 12), ("glued", 1, 1), ("single-piece", 0, None)]
        assert_certificate_sound(flower, k3, chain, cert)
    cert = embed_or_color(flower, k3, chain, copy_limit=5)
    assert cert.branch == UNKNOWN
    assert cert.reason == "pinned copy enumeration at vertex 0 exceeded 5 copies"


def test_one_pinned_enumeration_per_vertex_and_level(monkeypatch):
    """Each glued level makes one unpinned copy enumeration in the host,
    and at the default copy limit no pinned one: the per-vertex lists are
    read off that enumeration through the role's orbit."""
    real_copies, real_pinned = certify._distinct_copies, certify.enumerate_copies_with_witness
    streams, pinned = [], []

    def counting_copies(pattern, host, pin, limit, within):
        streams.append((host, pin))
        return real_copies(pattern, host, pin, limit, within)

    def counting_pinned(*args, **kwargs):
        pinned.append(args)
        return real_pinned(*args, **kwargs)

    monkeypatch.setattr(certify, "_distinct_copies", counting_copies)
    monkeypatch.setattr(certify, "enumerate_copies_with_witness", counting_pinned)
    cases = [
        (host, pattern, target)
        for pattern, target in ACCEPTANCE_PAIRS + [(path_graph(3), path_graph(5))]
        for host in random_graphs(8, 12, seed=target.n)
    ]
    cases.append((parse_graph6(FLOWER), complete_graph(3), parse_graph6(CHAIN)))
    glued = u_below_active = 0
    for host, pattern, target in cases:
        streams.clear()
        cert = embed_or_color(host, pattern, target)
        levels = [s for s in cert.levels if s.case == "glued"]
        in_host = [pin for h, pin in streams if h is host]
        assert in_host == [None] * len(levels)
        glued += len(levels)
        u_below_active += sum(s.u_size < s.host_size for s in levels)
    assert glued and u_below_active
    assert not pinned


def _outcome(f, *args):
    try:
        return f(*args)
    except EnumerationTruncated as exc:
        return str(exc)


def _pinned_lists(host, pattern, role, limit, within):
    """Per active vertex, the vertex masks without v of its pinned copies
    in key order, or the truncation message of the first vertex past the
    limit."""
    lists = {}
    for v in certify._iter_bits(within):
        pairs, truncated = enumerate_copies_with_witness(
            pattern, host, pin=(role, v), limit=limit, within=within
        )
        if truncated:
            raise EnumerationTruncated(
                f"pinned copy enumeration at vertex {v} exceeded {limit} copies"
            )
        lists[v] = [sum(1 << w for w in copy.vertices if w != v) for copy, _ in pairs]
    return lists


def test_level_lists_match_pinned_enumerations():
    """_level_copies gives every active vertex the masks of its pinned
    enumeration, or raises the pinned enumeration's truncation at the
    first vertex past the limit, whether or not the copy count passed
    limit * |active| / |orbit| and cut the enumeration short."""
    rng = random.Random(20)
    patterns = [
        complete_graph(2), path_graph(3), complete_graph(3), paw(), diamond(),
        cycle_graph(4), bowtie(),
    ]
    orbit_sizes = set()
    under_cap = past_cap = 0
    for n in rng.choices(range(6, 15), k=30):
        host = random_graph(n, rng.randint(n, 3 * n), rng)
        within = sum(1 << v for v in range(n) if rng.random() < 0.85)
        for pattern in patterns:
            copies = len(enumerate_copies(pattern, host, limit=None, within=within).copies)
            for role in range(pattern.n):
                orbit = _symmetry_plan(pattern, role)[2]
                orbit_sizes.add(len(orbit))
                for limit in (None, 0, 1, 2, 3, 5):
                    expected = _outcome(_pinned_lists, host, pattern, role, limit, within)
                    got = _outcome(
                        certify._level_copies, host, pattern, role, orbit, limit, within
                    )
                    assert got == expected
                    if isinstance(expected, str):
                        cap = limit * within.bit_count() // len(orbit)
                        past_cap += copies > cap
                        under_cap += copies <= cap
    assert orbit_sizes == {1, 2, 3, 4}
    assert under_cap and past_cap


def test_role_orbits_match_brute_force():
    for g in nonisomorphic_graphs(5, 10):
        for role in range(g.n):
            assert _symmetry_plan(g, role)[2] == orbit_oracle(g, role)
    for pattern, target in ACCEPTANCE_PAIRS + [(complete_graph(3), parse_graph6(CHAIN))]:
        for _, _, role, orbit, _ in certify._target_plan(target, pattern)[2]:
            assert orbit == orbit_oracle(pattern, role)


def test_supplied_decomposition_of_another_target_is_refused():
    from ramseykit.degeneracy import forest_decomposition

    k2, k3 = complete_graph(2), complete_graph(3)
    triangle_dec = forest_decomposition(k3, k3)
    for host in (complete_graph(4), complete_graph(5)):
        with pytest.raises(ParamOutOfRange):
            embed_or_color(host, k3, bowtie(), decomposition=triangle_dec)
    # the bowtie's pieces are triangles, which do not map into K2
    bowtie_dec = forest_decomposition(bowtie(), k3)
    with pytest.raises(ParamOutOfRange):
        embed_or_color(complete_graph(5), k2, bowtie(), decomposition=bowtie_dec)


def test_malformed_supplied_decomposition_is_refused():
    from ramseykit.degeneracy import forest_decomposition

    k3 = complete_graph(3)
    dec = forest_decomposition(bowtie(), k3)
    assert dec.attachments == [None, 2]
    first, second = dec.pieces
    short = dataclasses.replace(second, edges=second.edges[:2])
    changes = [
        {"size": 3},
        {"attachments": [None, None]},
        {"attachments": [None, 3]},
        {"attachments": [0, 2]},
        {"pieces": [first, short]},
        {"pieces": [first, first]},
        {"embeddings": [dec.embeddings[0], {v: 0 for v in second.vertices}]},
        {"embeddings": [dec.embeddings[0], {2: 0, 3: 1}]},
    ]
    for change in changes:
        wrong = dataclasses.replace(dec, **change)
        with pytest.raises(ParamOutOfRange):
            embed_or_color(complete_graph(4), k3, bowtie(), decomposition=wrong)
    cert = embed_or_color(complete_graph(4), k3, bowtie(), decomposition=dec)
    assert cert.branch == COLORING


def test_supplied_decomposition_missing_a_vertex_is_refused():
    from ramseykit.degeneracy import forest_decomposition

    k3 = complete_graph(3)
    # the triangle's pieces split the edges of K3 plus an isolated vertex
    # but leave that vertex out
    target = disjoint_union(k3, empty_graph(1))
    dec = forest_decomposition(k3, k3)
    with pytest.raises(ParamOutOfRange, match="^the pieces do not cover the target's vertices$"):
        embed_or_color(complete_graph(4), k3, target, decomposition=dec)


class TestCertificateRechecks:
    """embed_or_color re-checks each certificate before returning it; a
    faulty search or colouring raises CertificateError, not a wrong answer."""

    def test_embedding_onto_a_non_edge(self, monkeypatch):
        # the identity on five vertices sends every bowtie edge onto a non-edge
        wrong = Embedding(5, (0, 1, 2, 3, 4), frozenset(range(5)), frozenset())
        monkeypatch.setattr(certify, "find_embedding", lambda *args, **kwargs: wrong)
        with pytest.raises(
            CertificateError, match="^embedding certificate failed verification$"
        ):
            embed_or_color(empty_graph(5), complete_graph(3), bowtie())

    def test_coloring_missing_a_vertex(self, monkeypatch):
        monkeypatch.setattr(certify, "_solve", lambda *args: ({0: 0, 1: 0}, []))
        with pytest.raises(
            CertificateError, match="^coloring certificate leaves a vertex uncolored$"
        ):
            embed_or_color(path_graph(3), complete_graph(3), bowtie())

    def test_coloring_with_a_monochromatic_triangle(self, monkeypatch):
        triangle, k3 = complete_graph(3), complete_graph(3)
        monkeypatch.setattr(certify, "_solve", lambda *args: ({0: 0, 1: 0, 2: 0}, []))
        ok, witness = verify_coloring(triangle, k3, VertexColoring((0, 0, 0)))
        assert not ok and witness.vertices == {0, 1, 2}
        message = f"coloring certificate has a monochromatic copy: {witness}"
        with pytest.raises(CertificateError) as caught:
            embed_or_color(triangle, k3, bowtie())
        assert str(caught.value) == message

    def test_coloring_past_its_palette_bound(self, monkeypatch):
        # four disjoint edges hold no P3; eight colours pass the bound of 6
        matching = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert palette_bound(2, 3, 2) == 6
        monkeypatch.setattr(certify, "_solve", lambda *args: ({v: v for v in range(8)}, []))
        with pytest.raises(
            CertificateError, match="^coloring certificate exceeds its palette bound$"
        ):
            embed_or_color(matching, complete_graph(2), path_graph(3))


OPTIMIZED_CHECKS = """
import sys
from ramseykit import certify, ramsey
from ramseykit.errors import CertificateError
from ramseykit.graphs import Graph, VertexColoring, complete_graph

if __debug__:
    sys.exit("assertions are enabled")
bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
solve, certify._solve = certify._solve, lambda *args: ({v: v for v in range(8)}, [])
matching = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
try:
    certify.embed_or_color(matching, complete_graph(2), Graph.from_edges(3, [(0, 1), (1, 2)]))
except CertificateError as exc:
    print("palette" if str(exc) == "coloring certificate exceeds its palette bound" else exc)
certify._solve = solve
certify.verify_coloring = lambda *args: (False, None)
try:
    certify.embed_or_color(complete_graph(4), complete_graph(3), bowtie)
except CertificateError:
    print("certify")
ramsey.VertexColoring = lambda colors: VertexColoring((0,) * len(colors))
try:
    ramsey.is_ramsey(complete_graph(4), complete_graph(3), 2)
except CertificateError:
    print("ramsey")
"""


def test_certificate_checks_survive_optimized_mode():
    src = str(Path(ramseykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["palette", "certify", "ramsey"]
