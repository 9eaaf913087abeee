"""Pattern-degeneracy, minimum forest decompositions, and core extraction.

A graph is degenerate with respect to a pattern when every block (maximal
2-vertex-connected subgraph, single edges included) embeds into the
pattern.  Such a graph splits into an ordered list of pieces, each
embeddable into the pattern, where every later piece meets the union of
the earlier ones in at most one vertex.  Since no 2-connected subgraph can
cross a single-vertex attachment, pieces are unions of whole blocks (plus
isolated vertices), which makes exact minimization of the number of
pieces a partition search over the block-cut structure.

Pieces can be so ordered exactly when the bipartite (piece, shared vertex)
incidence is a forest.  The order is then built greedily: each step places
the least piece that meets the placed ones in exactly one vertex, or in
none when no piece of its incidence component is placed yet.  A prefix
extends to a full order exactly when the placed pieces of each component
stay connected: a piece next to them meets them in one vertex, as a
second would close a cycle, and a piece joining two separate placed parts
would, placed last on the path between them, meet two.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .blocks import Block, block_decomposition
from .embed import contains_copy, find_embedding
from .errors import IsDegenerate
from .graphs import Edge, Graph, induced_subgraph, subgraph_from_sets

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Piece:
    """One piece of a forest decomposition, in the host graph's labels."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass
class ForestDecomposition:
    pieces: list[Piece]
    # attachments[i] is the single vertex shared with the union of the
    # earlier pieces, or None when the piece is disjoint from it
    attachments: list[int | None]
    embeddings: list[dict[int, int]]  # piece vertex -> pattern vertex
    size: int
    minimal: bool  # False when the search budget expired


@dataclass
class DegeneracyCheck:
    degenerate: bool
    offending_block: Block | None


def _offending_blocks(graph: Graph, pattern: Graph) -> Iterator[Block]:
    """The blocks of graph that do not embed into pattern, in block order."""
    for block in block_decomposition(graph).blocks:
        sub, _ = subgraph_from_sets(block.vertices, block.edges)
        if not contains_copy(sub, pattern):
            yield block


def is_degenerate(graph: Graph, pattern: Graph) -> DegeneracyCheck:
    """Does every block of graph embed into pattern?"""
    block = next(_offending_blocks(graph, pattern), None)
    return DegeneracyCheck(block is None, block)


def extract_core(graph: Graph, pattern: Graph) -> Graph:
    """Smallest block of graph that does not embed into pattern.

    Ties on vertex count break by block order.  The result is relabeled
    to 0..k-1.
    """
    offending = list(_offending_blocks(graph, pattern))
    if not offending:
        raise IsDegenerate("every block embeds into the pattern")
    best = min(offending, key=lambda b: (len(b.vertices), b.edges))
    core, _ = induced_subgraph(graph, best.vertices)
    return core


# --- minimum decomposition search ------------------------------------------


def _atoms(graph: Graph) -> list[tuple[frozenset[int], frozenset[Edge]]]:
    dec = block_decomposition(graph)
    atoms = [(frozenset(b.vertices), frozenset(b.edges)) for b in dec.blocks]
    atoms.extend((frozenset({v}), frozenset()) for v in sorted(dec.isolated_vertices))
    return atoms


def _components(group_vsets: list[frozenset[int]]) -> list[int] | None:
    """A component label per group in the bipartite (group, shared vertex)
    incidence, or None when it has a cycle.  Union-find over group indices:
    each group holding a vertex joins the first group that held it, and a
    join of two groups already connected closes a cycle."""
    parent = list(range(len(group_vsets)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first: dict[int, int] = {}
    for gi, vs in enumerate(group_vsets):
        for v in vs:
            held = first.setdefault(v, gi)
            if held != gi:
                a, b = find(held), find(gi)
                if a == b:
                    return None
                parent[b] = a
    return [find(gi) for gi in range(len(group_vsets))]


def _order_groups(group_vsets: list[frozenset[int]]) -> list[int] | None:
    """Lexicographically smallest valid piece order, or None; one greedy
    pass by the rule in the module docstring."""
    comp = _components(group_vsets)
    if comp is None:
        return None
    by_key = sorted(range(len(group_vsets)), key=lambda i: sorted(group_vsets[i]))
    order: list[int] = []
    covered: set[int] = set()
    started: set[int] = set()
    while by_key:
        for pos, i in enumerate(by_key):
            meet = len(group_vsets[i] & covered)
            if meet == 1 or (meet == 0 and comp[i] not in started):
                break
        order.append(by_key.pop(pos))
        covered |= group_vsets[i]
        started.add(comp[i])
    return order


def forest_decomposition(
    graph: Graph,
    pattern: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ForestDecomposition | None:
    """Minimum-size forest decomposition of graph over pattern-embeddable
    pieces, or None when some block does not embed into pattern.

    One exact branch and bound over groupings of blocks and isolated
    vertices keeps the smallest (size, piece vertex sets in order)
    partition found, so among minimum decompositions the lexicographically
    smallest sequence of piece vertex sets is returned, and a larger node
    budget never gives a larger decomposition.  If the budget runs out the
    best decomposition found so far (one piece per block or isolated
    vertex if none was) is returned; minimal is True exactly when the
    search finished.  The budget bounds the whole run apart from one
    polynomial ordering pass per partition offered.
    """
    atoms = _atoms(graph)
    n_atoms = len(atoms)
    if n_atoms == 0:
        return ForestDecomposition([], [], [], 0, True)

    # atom group -> (vertices, edges, piece vertex -> pattern vertex map or
    # None when the group does not embed)
    memo: dict[frozenset[int], tuple] = {}

    def group_embeds(atom_ids: frozenset[int]) -> bool:
        entry = memo.get(atom_ids)
        if entry is None:
            vs = frozenset().union(*(atoms[i][0] for i in atom_ids))
            es = frozenset().union(*(atoms[i][1] for i in atom_ids))
            sub, kept = subgraph_from_sets(vs, es)
            emb = find_embedding(sub, pattern)
            emb_map = None if emb is None else {kept[i]: emb.map[i] for i in range(sub.n)}
            entry = memo[atom_ids] = (vs, es, emb_map)
        return entry[2] is not None

    if not all(group_embeds(frozenset({i})) for i in range(n_atoms)):
        return None

    # incumbent: (size, key, partition, order), key the piece vertex sets in
    # _order_groups order
    best: tuple | None = None

    def offer(groups: list[frozenset[int]]) -> None:
        nonlocal best
        group_vsets = [memo[grp][0] for grp in groups]
        order = _order_groups(group_vsets)  # a forest incidence always has one
        key = tuple(tuple(sorted(group_vsets[i])) for i in order)
        if best is None or (len(groups), key) < best[:2]:
            best = (len(groups), key, list(groups), order)

    def search() -> bool:
        # Atoms go into groups in id order, depth first on an explicit
        # stack, one node per placement tried; False when the budget runs
        # out.  Partitions as large as the incumbent still compete on key.
        nodes = 0
        groups: list[frozenset[int]] = []
        # frames[i] = [group holding atom i, bound on the groups it may try,
        # fixed when the frame was pushed]
        frames: list[list[int]] = []
        ok = True
        while True:
            size = best[0] if best else n_atoms + 1
            if ok and len(groups) <= size:
                if len(frames) < n_atoms:
                    frames.append([-1, min(len(groups) + 1, size)])
                else:
                    offer(groups)
            if not frames:
                return True
            i = len(frames) - 1
            frame = frames[i]
            gi = frame[0]
            if gi >= 0:
                groups[gi] -= {i}
                if not groups[gi]:
                    groups.pop()
            gi += 1
            ok = gi < frame[1]
            if not ok:
                frames.pop()
                continue
            nodes += 1
            if nodes > node_budget:
                return False
            frame[0] = gi
            if gi == len(groups):
                groups.append(frozenset())
            groups[gi] |= {i}
            ok = group_embeds(groups[gi]) and _components(
                [memo[grp][0] for grp in groups]
            ) is not None

    minimal = search()
    if best is None:
        offer([frozenset({i}) for i in range(n_atoms)])

    _, _, partition, order = best
    pieces: list[Piece] = []
    attachments: list[int | None] = []
    embeddings: list[dict[int, int]] = []
    covered: set[int] = set()
    for idx in order:
        vs, es, emb_map = memo[partition[idx]]
        overlap = vs & covered
        attachments.append(min(overlap) if overlap else None)
        covered |= vs
        pieces.append(Piece(tuple(sorted(vs)), tuple(sorted(es))))
        embeddings.append(emb_map)
    return ForestDecomposition(pieces, attachments, embeddings, len(pieces), minimal)
