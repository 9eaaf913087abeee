"""Subgraph isomorphism: enumerate, count, and pin copies of a pattern.

Backtracking, on an explicit stack, over a connected pattern ordering that
maximizes back-edges, with bitmask candidate filtering on the host and a
forward check of the plan's last position (Haralick & Elliott, Artificial
Intelligence 14, 1980) that cuts only subtrees without a leaf, so no stream
changes.  A Copy is an image subgraph, identified by its (vertex set, edge
set) pair.  The default embedding stream holds as many embeddings per copy
as the pattern has automorphisms; with one_per_copy, order constraints
from the pattern's stabiliser chain (Grochow & Kellis, RECOMB 2007) let
only the first of them through, so each copy is generated once.

Find-first searches (find_embedding, contains_copy, subset_hits) use the
same constraints for patterns of up to SYMMETRY_CAP vertices.  Their
answers do not change: the default stream is in lexicographic order of
host ids by plan position, so its first embedding is the least embedding of
its copy and passes every constraint, and the search still reaches it first;
a search that fails walks one embedding per copy instead of one per
automorphism.  Larger patterns search unconstrained, since the plan's
self-searches of the pattern can cost far more than a search saves.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from operator import or_

from .errors import InvalidVertex
from .graphs import Edge, Graph

DEFAULT_COPY_LIMIT = 100_000
# copies subset_hits keeps to answer later masks from; more makes every
# miss scan longer where few copies fit a mask
MEMO_COPIES = 8
# largest pattern order whose find-first searches break its symmetry: the
# plan takes at most 0.5 ms at 10 vertices and 0.15 s at 20 (40 random graphs
# of density 0.5-0.95), and on rigid regular patterns every failing
# self-search is a full one: random cubic ones take 2.3 s at 150 vertices
SYMMETRY_CAP = 10


@dataclass(frozen=True)
class Embedding:
    """Injective role map: pattern vertex i sits at host vertex map[i]."""

    pattern_n: int
    map: tuple[int, ...]
    image_vertices: frozenset[int]
    image_edges: frozenset[Edge]


@dataclass(frozen=True)
class Copy:
    """An image subgraph of the pattern inside the host."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    def key(self) -> tuple:
        return (tuple(sorted(self.vertices)), tuple(sorted(self.edges)))


@dataclass
class CopyEnumeration:
    copies: list[Copy]
    truncated: bool


@lru_cache(maxsize=256)
def _search_plan(pattern: Graph, first: int | None) -> tuple:
    """Vertex order maximizing already-placed neighbors at every step, each
    step's placed-neighbor positions and degree; shared by repeated searches."""
    # a lazy heap on (-placed neighbours, -degree, v): a vertex gets a fresh
    # entry each time a neighbour is placed, and stale entries are skipped
    placed = [0] * pattern.n  # -1 once the vertex itself is placed
    heap = [(0, -pattern.degree(v), v) for v in range(pattern.n) if v != first]
    heapq.heapify(heap)
    order = []

    def place(v: int) -> None:
        order.append(v)
        placed[v] = -1
        for w in pattern.adj[v]:
            if placed[w] >= 0:
                placed[w] += 1
                heapq.heappush(heap, (-placed[w], -pattern.degree(w), w))

    if first is not None:
        place(first)
    while heap:
        key, _, v = heapq.heappop(heap)
        if -key == placed[v]:
            place(v)
    pos = {v: i for i, v in enumerate(order)}
    placed_nbrs = tuple(
        tuple(pos[w] for w in pattern.adj[v] if pos[w] < i) for i, v in enumerate(order)
    )
    return tuple(order), placed_nbrs, tuple(pattern.degree(v) for v in order)


@lru_cache(maxsize=256)
def _symmetry_plan(pattern: Graph, first: int | None) -> tuple:
    """Stabiliser-chain symmetry breaking for the plan of (pattern, first).

    Level j holds the automorphisms fixing order[:j] pointwise; w is in the
    orbit of order[j] iff a search of the pattern into itself extends the
    prefix order[:j] + (w,).  An embedding is the lexicographically least of
    its copy's, in plan order, iff at every level j its image at order[j] is
    below its images at the other members of the orbit.  Levels are decided
    deepest first, each search under the deeper levels' constraints, which
    pass only the least map of each coset of the stabiliser of order[:j+1].
    With a pin, level 0 adds no constraint, so only the pinned role's
    stabiliser is broken.  Returns, per position i, the earlier positions j whose image
    must be smaller; the orbit sizes, whose product is the order of the
    group (orbit-stabiliser); and the level-0 orbit, ascending.
    """
    plan = _search_plan(pattern, first)
    order, placed_nbrs, _ = plan
    pos = {v: i for i, v in enumerate(order)}
    everything = (1 << pattern.n) - 1
    # an automorphism preserves each vertex's sorted neighbour degrees, so
    # only candidates sharing them with order[j] need a self-search
    nbr_degrees = [sorted(pattern.degree(u) for u in pattern.adj[v]) for v in range(pattern.n)]
    prefix_bits = list(accumulate((1 << v for v in order), or_))
    smaller: list[list[int]] = [[] for _ in order]
    sizes, orbit = [], []
    for j in reversed(range(pattern.n)):
        # level-j candidates other than order[j] itself, which the identity fixes
        cand = everything & ~prefix_bits[j]
        for p in placed_nbrs[j]:
            cand &= pattern.adj_bits[order[p]]
        orbit = [order[j]]
        for w in _iter_bits(cand):
            if nbr_degrees[w] != nbr_degrees[order[j]]:
                continue
            if any(_assignments(plan, pattern, everything, order[:j] + (w,), smaller)):
                orbit.append(w)
        if j or first is None:
            for w in orbit[1:]:
                smaller[pos[w]].insert(0, j)
        sizes.append(len(orbit))
    return tuple(map(tuple, smaller)), tuple(reversed(sizes)), tuple(sorted(orbit))


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _assignments(plan: tuple, host: Graph, within: int, prefix: tuple = (), smaller=None):
    """The search core: every placement of the plan's pattern inside the
    host's vertex mask `within` whose first positions hold `prefix`, in
    lexicographic order of host ids by position.  `smaller[i]` lists earlier
    positions whose image must be below position i's.  Yields the one
    assignment list, overwritten as the search goes on.

    An explicit stack: position i keeps its untried candidates, the host
    vertices taken before it, and the closing mask: the last position's
    candidates left by the positions before it.  A position narrows that
    mask when the last pattern vertex neighbours its own or must sit above
    its image, and a host vertex that would empty it is refused.  The last
    position tries the closing mask minus the used vertices.  A candidate's
    degree counts its neighbours inside the mask, so the filter matches the
    induced subgraph's; it is taken only for the candidates tried, and not
    at the last position, whose pattern neighbours are all placed.
    """
    order, placed_nbrs, pdeg = plan
    pn = len(order)
    if not pn:
        yield []
        return
    hbits = host.adj_bits
    start = [within] * pn
    for i, hv in enumerate(prefix):
        start[i] &= 1 << hv
    if smaller is None:
        smaller = ((),) * pn
    assignment = [0] * pn
    untried = [0] * pn
    used = [0] * pn
    untried[0] = start[0]
    i, last = 0, pn - 1
    closing = [start[last]] * pn
    adjacent = [False] * pn
    for j in placed_nbrs[last]:
        adjacent[j] = True
    below = [False] * pn
    for j in smaller[last]:
        below[j] = True
    while True:
        mask = untried[i]
        if not mask:
            if not i:
                return
            i -= 1
            continue
        low = mask & -mask
        untried[i] = mask ^ low
        hv = low.bit_length() - 1
        assignment[i] = hv
        if i == last:
            yield assignment
            continue
        nbrs = hbits[hv]
        reach = closing[i]
        if adjacent[i]:
            reach &= nbrs
        if below[i]:
            reach &= -2 << hv
        if not reach:
            continue
        if (nbrs & within).bit_count() < pdeg[i]:
            continue
        taken = used[i] | low
        i += 1
        used[i] = taken
        closing[i] = reach
        if i == last:
            untried[i] = reach & ~taken
            continue
        mask = start[i] & ~taken
        for j in placed_nbrs[i]:
            mask &= hbits[assignment[j]]
        for j in smaller[i]:
            mask &= -2 << assignment[j]
        untried[i] = mask


def enumerate_embeddings(
    pattern: Graph,
    host: Graph,
    pin: tuple[int, int] | None = None,
    within: int | None = None,
    one_per_copy: bool = False,
):
    """Yield every embedding of pattern into host, deterministically.

    pin = (role, host_vertex) restricts to embeddings with
    map[role] = host_vertex.  within, a bitmask of host vertices, restricts
    the search to the subgraph they induce; the embeddings and their order
    are those of the induced subgraph, mapped back to host ids.  With
    one_per_copy, only the first embedding of each copy is yielded: the
    same stream with repeats of an earlier image removed.
    """
    pn, hn = pattern.n, host.n
    if within is None:
        within = (1 << hn) - 1
    elif within >> hn:  # also catches negative masks
        raise InvalidVertex(f"vertex mask reaches outside 0..{hn - 1}")
    if pin is not None:
        if not 0 <= pin[0] < pn:
            raise InvalidVertex(f"pin role {pin[0]} outside pattern")
        if not 0 <= pin[1] < hn:
            raise InvalidVertex(f"pin vertex {pin[1]} outside host")
    if pn > within.bit_count():
        return
    first = None if pin is None else pin[0]
    plan = _search_plan(pattern, first)
    order = plan[0]
    smaller = _symmetry_plan(pattern, first)[0] if one_per_copy else None
    prefix = () if pin is None else (pin[1],)
    m = [0] * pn
    for assignment in _assignments(plan, host, within, prefix, smaller):
        for i in range(pn):
            m[order[i]] = assignment[i]
        image_edges = frozenset(
            (m[u], m[v]) if m[u] < m[v] else (m[v], m[u]) for u, v in pattern.edges
        )
        yield Embedding(pn, tuple(m), frozenset(m), image_edges)


def find_embedding(
    pattern: Graph, host: Graph,
    pin: tuple[int, int] | None = None, within: int | None = None,
) -> Embedding | None:
    """The first embedding of the default stream of enumerate_embeddings
    with these arguments, or None.  Up to SYMMETRY_CAP pattern vertices it
    is taken from the one_per_copy stream, which starts with it."""
    one_per_copy = pattern.n <= SYMMETRY_CAP
    return next(enumerate_embeddings(pattern, host, pin, within, one_per_copy), None)


def contains_copy(pattern: Graph, host: Graph, within: int | None = None) -> bool:
    """True iff host has at least one copy of pattern as a subgraph.

    within, a bitmask of host vertices, restricts the search to the
    subgraph they induce, as in enumerate_embeddings.  The answer is
    find_embedding(...) is not None: subset_hits on the one mask, which
    builds no Embedding.
    """
    return next(subset_hits(pattern, host, [(1 << host.n) - 1 if within is None else within]))


def subset_hits(pattern: Graph, host: Graph, masks):
    """Yield, for each host vertex mask in masks, whether the subgraph it
    induces holds a copy of pattern: find_embedding(pattern, host,
    within=mask) is not None, mask by mask.

    The vertex masks of the MEMO_COPIES copies used most recently are kept,
    most recent first.  A mask holding one of them is answered True without
    a search; otherwise the find-first search runs inside the mask and a
    copy it finds goes to the front.
    """
    pn, hn = pattern.n, host.n
    plan = smaller = None  # built by the first mask that reaches the search
    found: list[int] = []
    for mask in masks:
        if mask >> hn:  # also catches negative masks
            raise InvalidVertex(f"vertex mask reaches outside 0..{hn - 1}")
        if pn > mask.bit_count():
            yield False
            continue
        for c in found:
            if c & mask == c:
                found.remove(c)
                break
        else:
            if plan is None:
                plan = _search_plan(pattern, None)
                smaller = _symmetry_plan(pattern, None)[0] if pn <= SYMMETRY_CAP else None
            assignment = next(_assignments(plan, host, mask, (), smaller), None)
            if assignment is None:
                yield False
                continue
            c = sum(map((1).__lshift__, assignment))
            del found[MEMO_COPIES - 1:]
        found.insert(0, c)
        yield True


def _distinct_copies(pattern, host, pin, limit, within) -> tuple[list[Embedding], bool]:
    """First embedding of each distinct copy, in enumeration order; stops
    at the (limit + 1)-th copy."""
    stream = enumerate_embeddings(pattern, host, pin, within, one_per_copy=True)
    firsts = list(stream if limit is None else islice(stream, limit + 1))
    if limit is not None and len(firsts) > limit:
        return firsts[:limit], True
    return firsts, False


def enumerate_copies(
    pattern: Graph,
    host: Graph,
    pin: tuple[int, int] | None = None,
    limit: int | None = DEFAULT_COPY_LIMIT,
    within: int | None = None,
) -> CopyEnumeration:
    """All distinct copies of pattern in host, deduplicated by image.

    Enumeration stops after `limit` distinct copies; truncation is
    reported on the result, never silent.
    """
    pairs, truncated = enumerate_copies_with_witness(pattern, host, pin, limit, within)
    return CopyEnumeration([c for c, _ in pairs], truncated)


def enumerate_copies_with_witness(
    pattern: Graph,
    host: Graph,
    pin: tuple[int, int] | None = None,
    limit: int | None = DEFAULT_COPY_LIMIT,
    within: int | None = None,
) -> tuple[list[tuple[Copy, Embedding]], bool]:
    """Like enumerate_copies but keeps the first embedding of each copy."""
    firsts, truncated = _distinct_copies(pattern, host, pin, limit, within)
    pairs = [(Copy(emb.image_vertices, emb.image_edges), emb) for emb in firsts]
    pairs.sort(key=lambda pair: pair[0].key())
    return pairs, truncated


def count_copies(
    pattern: Graph,
    host: Graph,
    limit: int | None = DEFAULT_COPY_LIMIT,
) -> tuple[int, bool]:
    """(number of distinct copies, truncated flag)."""
    firsts, truncated = _distinct_copies(pattern, host, None, limit, None)
    return len(firsts), truncated


def automorphism_count(g: Graph) -> int:
    """Number of edge-preserving bijections of g onto itself: the product of
    the stabiliser chain's orbit sizes, without listing the group."""
    return math.prod(_symmetry_plan(g, None)[1])
