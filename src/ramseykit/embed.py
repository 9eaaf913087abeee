"""Subgraph isomorphism: enumerate, count, and pin copies of a pattern.

Backtracking over a connected pattern ordering that maximizes back-edges,
with bitmask candidate filtering on the host.  A Copy is an image
subgraph, identified by its (vertex set, edge set) pair; embeddings per
copy equal the pattern's automorphism count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidVertex
from .graphs import Edge, Graph

DEFAULT_COPY_LIMIT = 100_000


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
    order = [] if first is None else [first]
    seen = set(order)
    while len(order) < pattern.n:
        best = max(
            (v for v in range(pattern.n) if v not in seen),
            key=lambda v: (len(pattern.adj[v] & seen), pattern.degree(v), -v),
        )
        order.append(best)
        seen.add(best)
    pos = {v: i for i, v in enumerate(order)}
    placed_nbrs = tuple(
        tuple(pos[w] for w in pattern.adj[v] if pos[w] < i) for i, v in enumerate(order)
    )
    return tuple(order), placed_nbrs, tuple(pattern.degree(v) for v in order)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_embeddings(
    pattern: Graph,
    host: Graph,
    pin: tuple[int, int] | None = None,
    within: int | None = None,
):
    """Yield every embedding of pattern into host, deterministically.

    pin = (role, host_vertex) restricts to embeddings with
    map[role] = host_vertex.  within, a bitmask of host vertices, restricts
    the search to the subgraph they induce; the embeddings and their order
    are those of the induced subgraph, mapped back to host ids.
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
    if pn == 0:
        yield Embedding(0, (), frozenset(), frozenset())
        return
    order, placed_nbrs, pdeg = _search_plan(pattern, pin[0] if pin else None)
    hbits = host.adj_bits
    # degrees inside the mask, so the filter matches the induced subgraph's
    hdeg = [(b & within).bit_count() for b in hbits]
    assignment = [0] * pn

    def emit() -> Embedding:
        m = [0] * pn
        for i in range(pn):
            m[order[i]] = assignment[i]
        image_edges = frozenset(
            (m[u], m[v]) if m[u] < m[v] else (m[v], m[u]) for u, v in pattern.edges
        )
        return Embedding(pn, tuple(m), frozenset(m), image_edges)

    def extend(i: int, used: int):
        if i == pn:
            yield emit()
            return
        mask = within & ~used
        for j in placed_nbrs[i]:
            mask &= hbits[assignment[j]]
        need = pdeg[i]
        for hv in _iter_bits(mask):
            if hdeg[hv] < need:
                continue
            assignment[i] = hv
            yield from extend(i + 1, used | (1 << hv))

    if pin is not None:
        if not within >> pin[1] & 1 or hdeg[pin[1]] < pdeg[0]:
            return
        assignment[0] = pin[1]
        yield from extend(1, 1 << pin[1])
    else:
        yield from extend(0, 0)


def find_embedding(
    pattern: Graph, host: Graph,
    pin: tuple[int, int] | None = None, within: int | None = None,
) -> Embedding | None:
    return next(enumerate_embeddings(pattern, host, pin, within), None)


def contains_copy(pattern: Graph, host: Graph) -> bool:
    """True iff host has at least one copy of pattern as a subgraph."""
    return find_embedding(pattern, host) is not None


def _distinct_copies(pattern, host, pin, limit, within) -> tuple[dict, bool]:
    """First embedding of each distinct copy, keyed by its image, in
    enumeration order; stops before the (limit + 1)-th distinct copy."""
    seen: dict[tuple, Embedding] = {}
    for emb in enumerate_embeddings(pattern, host, pin, within):
        k = (emb.image_vertices, emb.image_edges)
        if k in seen:
            continue
        if limit is not None and len(seen) >= limit:
            return seen, True
        seen[k] = emb
    return seen, False


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
    seen, truncated = _distinct_copies(pattern, host, pin, limit, within)
    pairs = [(Copy(*k), emb) for k, emb in seen.items()]
    pairs.sort(key=lambda pair: pair[0].key())
    return pairs, truncated


def count_copies(
    pattern: Graph,
    host: Graph,
    limit: int | None = DEFAULT_COPY_LIMIT,
) -> tuple[int, bool]:
    """(number of distinct copies, truncated flag)."""
    seen, truncated = _distinct_copies(pattern, host, None, limit, None)
    return len(seen), truncated


def automorphism_count(g: Graph) -> int:
    """Number of edge-preserving bijections of g onto itself."""
    if g.n == 0:
        return 1
    return sum(1 for _ in enumerate_embeddings(g, g))
