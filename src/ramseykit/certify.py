"""Certifying dichotomy: embed the target graph or color away the pattern.

Given a host G, a pattern, and a pattern-degenerate target graph with a
minimum forest decomposition into pieces, produce either an embedding of
the target into G, or a vertex coloring of G with at most
pieces * (2*(a-1)*(b-2) + 1) colors and no monochromatic pattern copy
(a, b the pattern/target vertex counts).  Both branches are verified
before they are returned.

The target is searched for once, in the whole host, so the embedding
branch is returned exactly when the host contains the target.  Otherwise
the host is colored level by level, each level a vertex mask of the host:
vertices carrying few pairwise-almost-disjoint pattern copies in a chosen
role are colored via a bounded-out-degree auxiliary digraph, and the rest
goes on to the target minus its last attached piece.  No level needs a
search of its own: every vertex of the rest carries b - 1 copies that meet
only there, and at most b - 2 of them meet an embedding of the smaller
target, so such an embedding would extend to one of the whole target.
A level enumerates its pattern copies once, unpinned, and reads each
vertex's copies in the role off them through the role's orbit.

The decomposition, and each level's role, b and palette arithmetic,
depend only on (target, pattern): they form a target plan, built once per
pair and cached.  A caller-supplied decomposition is checked against the
target and pattern, then builds its plan uncached."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

from .degeneracy import ForestDecomposition, forest_decomposition
from .embed import (
    Copy,
    DEFAULT_COPY_LIMIT,
    Embedding,
    _distinct_copies,
    _iter_bits,
    _symmetry_plan,
    enumerate_copies,
    enumerate_copies_with_witness,
    enumerate_embeddings,
    find_embedding,
)
from .errors import CertificateError, EnumerationTruncated, NotDegenerate, ParamOutOfRange
from .graphs import Graph, VertexColoring, subgraph_from_sets

EMBEDDING = "embedding"
COLORING = "coloring"
UNKNOWN = "unknown"


@dataclass
class StarFamily:
    """Copies of the pattern through one host vertex in a fixed role,
    pairwise intersecting only at that vertex."""

    center: int
    role: int
    copies: list[Copy]
    embeddings: list[Embedding]

    def size(self) -> int:
        return len(self.copies)


@dataclass
class LevelStats:
    depth: int
    case: str
    host_size: int
    pieces: int
    u_size: int | None = None
    colors_here: int = 0


@dataclass
class Certificate:
    branch: str
    embedding: dict[int, int] | None
    coloring: VertexColoring | None
    palette_bound: int
    pattern_n: int
    target_n: int
    pieces: int
    verified: bool
    levels: list[LevelStats] = field(default_factory=list)
    reason: str | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "branch": self.branch,
            "palette_bound": self.palette_bound,
            "pattern_n": self.pattern_n,
            "target_n": self.target_n,
            "pieces": self.pieces,
            "verified": self.verified,
            "levels": [asdict(s) for s in self.levels],
        }
        if self.embedding is not None:
            doc["embedding"] = [[k, self.embedding[k]] for k in sorted(self.embedding)]
        if self.coloring is not None:
            doc["coloring"] = list(self.coloring.colors)
            doc["palette_size"] = self.coloring.palette_size
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


def _past_limit(v: int, limit: int | None) -> EnumerationTruncated:
    return EnumerationTruncated(f"pinned copy enumeration at vertex {v} exceeded {limit} copies")


def _level_copies(
    g: Graph, pattern: Graph, role: int, orbit: tuple[int, ...], limit: int | None, active: int
) -> dict[int, list[int]]:
    """For every active v, in id order, the vertex masks without v of the
    pattern copies inside `active` with v in the given role, in key order,
    from one unpinned enumeration: a copy sits at v in the role exactly
    when its first embedding maps a member of the role's orbit to v.  A
    copy lands at len(orbit) vertices, so past limit * |active| / len(orbit)
    copies some vertex is past the limit; the enumeration stops there, and
    pinned enumerations name the first such vertex."""
    cap = None if limit is None else limit * active.bit_count() // len(orbit)
    firsts, truncated = _distinct_copies(pattern, g, None, cap, active)
    if truncated:
        v = next(
            v for v in _iter_bits(active)
            if _distinct_copies(pattern, g, (role, v), limit, active)[1]
        )
        raise _past_limit(v, limit)
    # copies in key order, as vertex tuples and role maps; copies on one
    # vertex set have one mask, so ties need no edge order
    copies = sorted((tuple(sorted(emb.map)), emb.map) for emb in firsts)
    lists: dict[int, list[int]] = {v: [] for v in _iter_bits(active)}
    for verts, m in copies:
        mask = sum(1 << w for w in verts)
        for w in orbit:
            lists[m[w]].append(mask ^ (1 << m[w]))
    for v, masks in lists.items():
        if limit is not None and len(masks) > limit:
            raise _past_limit(v, limit)
    return lists


def _pack(masks: list[int], t: int) -> list[int] | None:
    """Indices of the first t pairwise disjoint masks in depth-first order
    over the list, or None when there are no t such masks: take the next
    mask disjoint from the chosen ones while enough masks are left to reach
    t, else drop the last choice and resume after it."""
    chosen: list[int] = []
    used = 0
    start = 0
    while len(chosen) < t:
        for j in range(start, len(masks) - t + len(chosen) + 1):
            if not masks[j] & used:
                chosen.append(j)
                used |= masks[j]
                break
        else:
            if not chosen:
                return None
            j = chosen.pop()
            used ^= masks[j]
        start = j + 1
    return chosen


def star_family_at_least(
    g: Graph,
    pattern: Graph,
    role: int,
    v: int,
    t: int,
    limit: int | None = DEFAULT_COPY_LIMIT,
    within: int | None = None,
) -> tuple[bool, StarFamily | None]:
    """Decide whether t pattern copies sit at v in the given role, pairwise
    intersecting only at v, inside the vertex mask `within` (default: all
    of g).  Exact branch-and-bound packing over the pinned copies in key
    order, read from enumerate_copies_with_witness; raises
    EnumerationTruncated past `limit` of them.  A witness family is
    returned on success."""
    if t < 1:
        raise ParamOutOfRange("target family size must be at least 1")
    pairs, truncated = enumerate_copies_with_witness(pattern, g, (role, v), limit, within)
    if truncated:
        raise _past_limit(v, limit)
    chosen = _pack([sum(1 << w for w in c.vertices if w != v) for c, _ in pairs], t)
    if chosen is None:
        return False, None
    picked = [pairs[j] for j in chosen]
    return True, StarFamily(v, role, [c for c, _ in picked], [e for _, e in picked])


def greedy_disjoint_family(
    g: Graph,
    pattern: Graph,
    limit: int | None = DEFAULT_COPY_LIMIT,
    within: int | None = None,
) -> list[Copy]:
    """Maximal family of pairwise vertex-disjoint pattern copies inside the
    vertex mask `within` (default: all of g), grown greedily over copies in
    canonical order.  The copies are enumerated once: those avoiding the
    vertices already taken are exactly the copies of what is left, so the
    scan keeps the canonically first copy of the leftover at every step,
    and stops only when the leftover vertices induce no copy."""
    enum = enumerate_copies(pattern, g, limit=limit, within=within)
    if enum.truncated:
        raise EnumerationTruncated("copy enumeration truncated in greedy family")
    family: list[Copy] = []
    taken = 0
    for copy in enum.copies:
        mask = sum(1 << w for w in copy.vertices)
        if not mask & taken:
            family.append(copy)
            taken |= mask
    return family


def degeneracy_coloring(gamma: Graph) -> VertexColoring:
    """Proper coloring via smallest-last ordering; uses at most
    degeneracy(gamma) + 1 colors."""
    n = gamma.n
    deg = [gamma.degree(v) for v in range(n)]
    alive = set(range(n))
    removal: list[int] = []
    for _ in range(n):
        v = min(alive, key=lambda w: (deg[w], w))
        removal.append(v)
        alive.remove(v)
        for w in gamma.adj[v]:
            if w in alive:
                deg[w] -= 1
    colors = [-1] * n
    for v in reversed(removal):
        used = {colors[w] for w in gamma.adj[v] if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return VertexColoring(tuple(colors))


def verify_coloring(
    g: Graph, pattern: Graph, coloring: VertexColoring
) -> tuple[bool, Copy | None]:
    """True iff no pattern copy of g is monochromatic; otherwise one
    offending copy is returned."""
    if len(coloring.colors) != g.n:
        raise ParamOutOfRange("coloring must assign a color to every vertex")
    classes = coloring.color_classes()
    for c in sorted(classes):
        members = classes[c]
        if len(members) < pattern.n:
            continue
        emb = find_embedding(pattern, g, within=sum(1 << v for v in members))
        if emb is not None:
            return False, Copy(emb.image_vertices, emb.image_edges)
    return True, None


# --- the dichotomy ----------------------------------------------------------


def _solve(
    host: Graph,
    pattern: Graph,
    levels: tuple,
    final: tuple[str, int],
    copy_limit: int | None,
) -> tuple[dict[int, int], list[LevelStats]]:
    """Color a host that contains no copy of the target, with no
    monochromatic pattern copy, one plan level at a time.  Each glued level
    enumerates the pattern's copies inside the active vertices once,
    unpinned, and lists each active vertex's copies in the role by the
    role's orbit.  U, the vertices without b_cur - 1 of them pairwise
    meeting only there, is colored from the same lists, filtered to the
    copies inside U; the rest stays active for the target minus the
    detached piece.  A level's colors start past the earlier levels'
    palettes.  Returns (vertex -> color, one LevelStats per level)."""
    active = (1 << host.n) - 1
    colors: dict[int, int] = {}
    stats: list[LevelStats] = []
    offset = 0
    for depth, (pieces, b_cur, role, orbit, out_cap) in enumerate(levels):
        level = LevelStats(depth, "glued", active.bit_count(), pieces)
        lists = _level_copies(host, pattern, role, orbit, copy_limit, active)
        u_lists = {v: masks for v, masks in lists.items() if _pack(masks, b_cur - 1) is None}
        u_mask = sum(1 << v for v in u_lists)
        level.u_size = len(u_lists)

        # color U through the bounded-out-degree digraph, over the copies
        # whose masks have no vertex outside U
        local = {v: j for j, v in enumerate(u_lists)}
        arcs: set[tuple[int, int]] = set()
        for v, masks in u_lists.items():
            reach = 0
            for m in masks:
                if not m & (reach | ~u_mask):
                    reach |= m
            assert reach.bit_count() <= out_cap, "out-degree bound of the auxiliary digraph"
            for u in _iter_bits(reach):
                arcs.add((min(local[u], local[v]), max(local[u], local[v])))
        u_coloring = degeneracy_coloring(Graph(len(local), frozenset(arcs)))
        level.colors_here = u_coloring.palette_size
        assert level.colors_here <= 2 * out_cap + 1, "degeneracy palette bound"
        colors.update((v, offset + c) for v, c in zip(local, u_coloring.colors))
        offset += level.colors_here
        stats.append(level)
        active &= ~u_mask

    case, pieces = final
    level = LevelStats(len(levels), case, active.bit_count(), pieces)
    stats.append(level)
    if case == "single-piece":
        # single piece embeds into the pattern, so a pattern-free host is
        # exactly a target-free host: one color suffices
        level.colors_here = 1 if active else 0
        colors.update((v, offset) for v in _iter_bits(active))
        return colors, stats
    family = greedy_disjoint_family(host, pattern, limit=copy_limit, within=active)
    # one piece per copy would embed the target
    assert len(family) < pieces, "too many disjoint copies for a target-free host"
    for j, copy in enumerate(family):
        verts = sorted(copy.vertices)
        colors[verts[0]] = offset + 2 * j
        for w in verts[1:]:
            colors[w] = offset + 2 * j + 1
    leftover = [w for w in _iter_bits(active) if w not in colors]
    for w in leftover:
        colors[w] = offset + 2 * len(family)
    level.colors_here = 2 * len(family) + (1 if leftover else 0)
    return colors, stats


def _build_target_plan(target: Graph, pattern: Graph, dec: ForestDecomposition) -> tuple:
    """Everything the coloring needs that does not depend on the host:
    (decomposition size, palette bound, glued levels, final case).  Each
    glued level detaches the last piece that meets the earlier union and
    is (pieces, b_cur, role, orbit, out_cap), the role taken from the least
    embedding of the piece into the pattern, with its orbit under the
    pattern's automorphisms (level 0 of the role's pinned stabiliser
    chain); the final case is ("single-piece" or "disjoint", pieces)."""
    plist = list(zip(dec.pieces, dec.attachments))
    levels = []
    while len(plist) > 1 and any(att is not None for _, att in plist):
        i = max(idx for idx, (_, att) in enumerate(plist) if att is not None)
        piece, x = plist[i]
        b_cur = len({v for p, _ in plist for v in p.vertices})
        assert b_cur >= 3, "glued case needs at least three target vertices"
        psub, pmap = subgraph_from_sets(piece.vertices, piece.edges)
        eta = min(enumerate_embeddings(psub, pattern), key=lambda e: e.map, default=None)
        assert eta is not None, "decomposition pieces embed into the pattern"
        role = eta.map[pmap.index(x)]
        orbit = _symmetry_plan(pattern, role)[2]
        levels.append((len(plist), b_cur, role, orbit, (pattern.n - 1) * (b_cur - 2)))
        del plist[i]
    final = ("single-piece" if len(plist) == 1 else "disjoint", len(plist))
    bound = palette_bound(pattern.n, target.n, dec.size)
    return dec.size, bound, tuple(levels), final


def _check_decomposition(target: Graph, pattern: Graph, dec: ForestDecomposition) -> None:
    """Refuse a supplied decomposition unless it is one of target over
    pattern: its pieces split target's edges and cover its vertices, each
    meets the earlier ones in at most its attachment, and each embedding
    maps its piece injectively into pattern, edges onto edges."""
    if not len(dec.pieces) == len(dec.attachments) == len(dec.embeddings) == dec.size:
        raise ParamOutOfRange("decomposition size and list lengths disagree")
    edges = [e for piece in dec.pieces for e in piece.edges]
    if len(edges) != len(set(edges)) or set(edges) != target.edges:
        raise ParamOutOfRange("the pieces do not split the target's edges")
    seen: set[int] = set()
    for piece, att, emb in zip(dec.pieces, dec.attachments, dec.embeddings):
        if seen.intersection(piece.vertices) != ({att} if att is not None else set()):
            raise ParamOutOfRange("a piece meets the earlier ones off its attachment")
        seen.update(piece.vertices)
        image = set(emb.values())
        if (
            sorted(emb) != sorted(piece.vertices)
            or not {w for e in piece.edges for w in e} <= emb.keys()
            or len(image) != len(emb)
            or not image <= set(range(pattern.n))
            or not all(pattern.has_edge(emb[u], emb[w]) for u, w in piece.edges)
        ):
            raise ParamOutOfRange("a piece's embedding does not map it into the pattern")
    if seen != set(range(target.n)):
        raise ParamOutOfRange("the pieces do not cover the target's vertices")


@lru_cache(maxsize=256)
def _target_plan(target: Graph, pattern: Graph) -> tuple | None:
    """The plan of target over its minimum forest decomposition, shared by
    every host; None when target is not degenerate over pattern."""
    dec = forest_decomposition(target, pattern)
    return None if dec is None else _build_target_plan(target, pattern, dec)


def palette_bound(pattern_n: int, target_n: int, pieces: int) -> int:
    if target_n >= 3:
        return pieces * (2 * (pattern_n - 1) * (target_n - 2) + 1)
    return max(1, 2 * pieces - 1)


def embed_or_color(
    host: Graph,
    pattern: Graph,
    target: Graph,
    decomposition: ForestDecomposition | None = None,
    copy_limit: int | None = DEFAULT_COPY_LIMIT,
) -> Certificate:
    """Produce a verified certificate: an embedding of target into host,
    or a coloring of host with no monochromatic pattern copy using at most
    palette_bound(...) colors.

    The embedding branch is returned exactly when host contains a copy of
    target.  Raises NotDegenerate when target has a block that does not
    embed into pattern, ParamOutOfRange when a supplied decomposition is
    not one of target over pattern, and CertificateError if a certificate
    fails its final check; truncated enumerations yield an "unknown"
    certificate instead of a guess.
    """
    if pattern.n < 2:
        raise ParamOutOfRange("pattern needs at least two vertices")
    if target.n < 1:
        raise ParamOutOfRange("target needs at least one vertex")
    if decomposition is None:
        plan = _target_plan(target, pattern)
    else:
        _check_decomposition(target, pattern, decomposition)
        plan = _build_target_plan(target, pattern, decomposition)
    if plan is None:
        raise NotDegenerate("target has a block that does not embed into the pattern")
    pieces, bound, levels, final = plan
    certificate = partial(
        Certificate,
        palette_bound=bound,
        pattern_n=pattern.n,
        target_n=target.n,
        pieces=pieces,
    )

    emb = find_embedding(target, host)
    if emb is not None:
        mapping = dict(enumerate(emb.map))
        if (
            len(mapping) != target.n
            or len(set(mapping.values())) != target.n
            or not all(host.has_edge(mapping[u], mapping[v]) for u, v in target.edges)
        ):
            raise CertificateError("embedding certificate failed verification")
        level = LevelStats(0, "direct-embedding", host.n, pieces)
        return certificate(
            branch=EMBEDDING, embedding=mapping, coloring=None, verified=True,
            levels=[level],
        )

    try:
        colors, stats = _solve(host, pattern, levels, final, copy_limit)
    except EnumerationTruncated as exc:
        return certificate(
            branch=UNKNOWN, embedding=None, coloring=None, verified=False,
            reason=str(exc),
        )
    coloring = VertexColoring(tuple(colors.get(v, 0) for v in range(host.n)))
    if len(colors) != host.n:
        raise CertificateError("coloring certificate leaves a vertex uncolored")
    ok, witness = verify_coloring(host, pattern, coloring)
    if not ok:
        raise CertificateError(f"coloring certificate has a monochromatic copy: {witness}")
    if coloring.palette_size > bound:
        raise CertificateError("coloring certificate exceeds its palette bound")
    return certificate(
        branch=COLORING, embedding=None, coloring=coloring, verified=True,
        levels=stats,
    )
