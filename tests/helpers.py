"""Shared graph corpora and independent brute-force oracles for the tests.

Everything here must stay independent of the implementation paths it
checks: connectivity by plain BFS, embeddings by raw injections, Ramsey
decisions by full coloring enumeration, decompositions by edge-set
partition search, minimal trace covers by trying every subset of traces.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, permutations
from math import comb
from operator import or_

from ramseykit.graphs import Graph

# --- named graphs -----------------------------------------------------------


def bowtie() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def diamond() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def paw() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


# --- corpora ----------------------------------------------------------------


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1))


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph(n, frozenset(rng.sample(pairs, min(m, len(pairs)))))


def random_graphs(n: int, count: int, seed: int):
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(count):
        m = rng.randint(0, len(pairs))
        yield Graph(n, frozenset(rng.sample(pairs, m)))


def nonisomorphic_graphs(max_n: int, max_m: int):
    """The first labeled graph of each isomorphism class, in all_graphs
    order, for every n <= max_n, keeping those with at most max_m edges."""
    for n in range(max_n + 1):
        seen = set()
        perms = list(permutations(range(n)))
        for g in all_graphs(n):
            if g.m > max_m:
                continue
            forms = [tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges))
                     for p in perms]
            if min(forms) not in seen:
                seen.add(min(forms))
                yield g


def bfs_components(n: int, adj) -> list[set[int]]:
    seen = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        queue = [s]
        seen.add(s)
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(bfs_components(g.n, g.adj)) == 1


def random_connected_graphs(n_lo: int, n_hi: int, count: int, seed: int):
    """Deterministic sample of connected graphs, sizes uniform in range."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_lo, n_hi)
        pairs = list(combinations(range(n), 2))
        # bias toward sparse graphs, where the structure is interesting
        m = rng.randint(n - 1, min(len(pairs), 3 * n))
        g = Graph(n, frozenset(rng.sample(pairs, m)))
        if is_connected(g):
            out.append(g)
    return out


# --- oracles ----------------------------------------------------------------


def articulation_oracle(g: Graph) -> set[int]:
    """v is an articulation point iff removing it increases the number of
    components (isolated vertices never count)."""
    base = len(bfs_components(g.n, g.adj))
    cuts = set()
    for v in range(g.n):
        adj = [set(a) for a in g.adj]
        for w in adj[v]:
            adj[w].discard(v)
        adj[v] = set()
        comps = bfs_components(g.n, adj)
        # ignore the singleton left by v itself
        comps = [c for c in comps if c != {v}]
        if len(comps) > base:
            cuts.add(v)
    return cuts


def embeddings_oracle(pattern: Graph, host: Graph) -> list[tuple[int, ...]]:
    """All edge-preserving injections, by raw permutation enumeration."""
    found = []
    for perm in permutations(range(host.n), pattern.n):
        if all(host.has_edge(perm[u], perm[v]) for u, v in pattern.edges):
            found.append(perm)
    return found


def copies_oracle(pattern: Graph, host: Graph) -> set[tuple]:
    images = set()
    for perm in embeddings_oracle(pattern, host):
        verts = tuple(sorted(perm))
        edges = tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in pattern.edges
            )
        )
        images.add((verts, edges))
    return images


def _automorphisms(g: Graph):
    for perm in permutations(range(g.n)):
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges):
            yield perm


def automorphisms_oracle(g: Graph) -> int:
    return sum(1 for _ in _automorphisms(g))


def orbit_oracle(g: Graph, role: int) -> tuple[int, ...]:
    """The vertices some automorphism maps role to, ascending, by trying
    every permutation."""
    return tuple(sorted({perm[role] for perm in _automorphisms(g)}))


def degenerate_oracle(g: Graph, pattern: Graph) -> bool:
    """Every 2-vertex-connected subgraph embeds into the pattern.

    It suffices to check induced subgraphs on vertex subsets that are
    2-connected with all their edges: removing edges never helps
    2-connectivity, and embeddability is inherited downward.
    """
    for size in range(2, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub_edges = [(u, v) for u, v in g.edges if u in subset and v in subset]
            if not _two_connected(subset, sub_edges):
                continue
            relabel = {v: i for i, v in enumerate(subset)}
            sub = Graph(size, frozenset((relabel[u], relabel[v]) for u, v in sub_edges))
            if not embeddings_oracle(sub, pattern):
                return False
    return True


def _two_connected(vertices, edges) -> bool:
    """2-vertex-connected including K2; every vertex must carry an edge."""
    vs = list(vertices)
    n = len(vs)
    idx = {v: i for i, v in enumerate(vs)}
    adj = [set() for _ in vs]
    for u, v in edges:
        adj[idx[u]].add(idx[v])
        adj[idx[v]].add(idx[u])
    if any(not a for a in adj):
        return False
    if len(bfs_components(n, adj)) != 1:
        return False
    if n == 2:
        return True
    for v in range(n):
        trimmed = [set(a) for a in adj]
        for w in trimmed[v]:
            trimmed[w].discard(v)
        trimmed[v] = set()
        comps = [c for c in bfs_components(n, trimmed) if c != {v}]
        if len(comps) > 1:
            return False
    return True


def _partitions(items: list):
    """All set partitions, restricted-growth style."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def forest_size_oracle(g: Graph, pattern: Graph) -> int | None:
    """Minimum number of pieces over all edge-set partitions with isolated
    vertices attached, validated by brute-force ordering search."""
    edges = sorted(g.edges)
    isolated = [v for v in range(g.n) if not g.adj[v]]
    atoms = [("e", e) for e in edges] + [("v", v) for v in isolated]
    if not atoms:
        return 0
    best = None
    for part in _partitions(atoms):
        if best is not None and len(part) >= best:
            continue
        pieces = []
        ok = True
        for group in part:
            vs = set()
            es = []
            for kind, item in group:
                if kind == "e":
                    es.append(item)
                    vs.update(item)
                else:
                    vs.add(item)
            relabel = {v: i for i, v in enumerate(sorted(vs))}
            sub = Graph(len(vs), frozenset((relabel[u], relabel[v]) for u, v in es))
            if not embeddings_oracle(sub, pattern):
                ok = False
                break
            pieces.append(frozenset(vs))
        if not ok:
            continue
        if _orderable(pieces):
            best = len(part)
    return best


def _orderable(pieces: list[frozenset]) -> bool:
    """Can the pieces be ordered with single-vertex attachments?  Subset DP."""
    k = len(pieces)
    union_of = {}

    def union(mask: int) -> frozenset:
        if mask not in union_of:
            vs = frozenset()
            for i in range(k):
                if (mask >> i) & 1:
                    vs = vs | pieces[i]
            union_of[mask] = vs
        return union_of[mask]

    reachable = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        if mask == (1 << k) - 1:
            return True
        cov = union(mask)
        for i in range(k):
            if (mask >> i) & 1:
                continue
            nxt = mask | (1 << i)
            if nxt in reachable:
                continue
            if len(pieces[i] & cov) <= 1:
                reachable.add(nxt)
                frontier.append(nxt)
    return (1 << k) - 1 in reachable


def trace_masks_oracle(core: Graph, pattern: Graph) -> list[int]:
    """Edge bitmasks, over the sorted core edges and in increasing order, of
    every nonempty edge subset that embeddings_oracle embeds into the
    pattern (a trace), by testing all of them."""
    edges = sorted(core.edges)
    k = len(edges)
    traces = []
    for mask in range(1, 1 << k):
        sub_edges = [edges[i] for i in range(k) if (mask >> i) & 1]
        verts = sorted({w for e in sub_edges for w in e})
        relabel = {v: i for i, v in enumerate(verts)}
        sub = Graph(len(verts), frozenset((relabel[u], relabel[v]) for u, v in sub_edges))
        if embeddings_oracle(sub, pattern):
            traces.append(mask)
    return traces


def min_trace_covers_oracle(
    core: Graph, pattern: Graph, max_size: int | None = None
) -> list[tuple[int, ...]]:
    """Inclusion-minimal covers of the core's edges by pattern-embeddable
    edge subsets (traces), by brute force.

    Traces come from trace_masks_oracle; every subset of at most k traces
    (k = the core's edge count, or max_size) is tried, and a cover is
    minimal when removing any one trace uncovers an edge.  Each cover is
    the sorted tuple of its traces' edge bitmasks over the sorted core
    edges; covers come in (size, masks) order.
    """
    k = core.m
    traces = trace_masks_oracle(core, pattern)
    full = (1 << k) - 1
    covers = []
    for size in range(1, (k if max_size is None else max_size) + 1):
        for chosen in combinations(traces, size):
            if reduce(or_, chosen) == full and all(
                reduce(or_, chosen[:i] + chosen[i + 1:], 0) != full for i in range(size)
            ):
                covers.append(chosen)
    return sorted(covers, key=lambda c: (len(c), c))


def c4_triangle_union_mean(n: int, p: float) -> float:
    """Exact expected number of 4-cycle copies in the union of the
    triangles of K_n, each triangle kept independently with probability p.

    Fix a 4-cycle with edges e0..e3 in cyclic order.  Four triangles hold
    two of its edges each: triangle i holds e_i and e_(i+1 mod 4).  Every
    edge also lies in n - 4 private triangles that hold no other cycle
    edge.  Conditioning on which of the four shared triangles are kept
    leaves independent per-edge events for the uncovered edges, so

        E = 3 * C(n, 4) * sum over kept-sets S of
            p^|S| (1-p)^(4-|S|) * (1 - (1-p)^(n-4))^(edges S misses).
    """
    q = 1.0 - p
    private_hit = 1.0 - q ** (n - 4)
    covered = 0.0
    for kept in range(16):
        weight = 1.0
        for i in range(4):
            weight *= p if (kept >> i) & 1 else q
        for i in range(4):  # edge i lies in shared triangles i-1 and i
            if not ((kept >> i) & 1 or (kept >> ((i - 1) % 4)) & 1):
                weight *= private_hit
        covered += weight
    return 3 * comb(n, 4) * covered


def ramsey_oracle(g: Graph, pattern: Graph, r: int) -> bool:
    """Enumerate all r^n colorings; monochromatic copies via the oracle
    copy list."""
    copies = [set(vs) for vs, _ in copies_oracle(pattern, g)]
    vertex_sets = {tuple(sorted(c)) for c in copies}
    if not vertex_sets:
        return False
    colorings = [[]]
    for _ in range(g.n):
        colorings = [c + [x] for c in colorings for x in range(r)]
    for coloring in colorings:
        if not any(
            len({coloring[v] for v in vs}) == 1 for vs in vertex_sets
        ):
            return False
    return True
