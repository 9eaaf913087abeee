"""Simple undirected graphs with dense 0..n-1 vertex ids, plus text formats.

Graphs are immutable values: equality is exact labeled equality on
(vertex count, edge set).  graph6 is the interchange format, a "u v"
edge list the human-authoring format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .errors import InvalidVertex, MalformedInput

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise MalformedInput(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidVertex(f"edge ({u}, {v}) outside 0..{self.n - 1}")
            if u > v:
                raise MalformedInput(f"edge ({u}, {v}) not normalized")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks; bit v of adj_bits[u] is set iff u~v."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def vertices(self) -> range:
        return range(self.n)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexColoring:
    """Total map vertex id -> color id, stored positionally."""

    colors: tuple[int, ...]

    @property
    def palette_size(self) -> int:
        return len(set(self.colors))

    def color_classes(self) -> dict[int, list[int]]:
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(self.colors):
            classes.setdefault(c, []).append(v)
        return classes


# --- small builders -------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise MalformedInput("cycle needs at least 3 vertices")
    edges = {(i, i + 1) for i in range(n - 1)}
    edges.add((0, n - 1))
    return Graph(n, frozenset(edges))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = {(u + g.n, v + g.n) for u, v in h.edges}
    return Graph(g.n + h.n, g.edges | frozenset(shifted))


# --- graph6 ---------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_decode_n(s: str) -> tuple[int, int]:
    """Return (n, index of first payload char)."""
    if not s:
        raise MalformedInput("empty graph6 string")
    c0 = ord(s[0])
    if not 63 <= c0 <= 126:
        raise MalformedInput(f"bad graph6 header byte {c0}")
    if s[0] != "~":
        return c0 - 63, 1
    # "~" then 3 count characters, or "~~" then 6
    start, end, form = (2, 8, "extra-long") if s[1:2] == "~" else (1, 4, "long")
    if len(s) < end:
        raise MalformedInput(f"truncated {form}-form vertex count")
    n = 0
    for ch in s[start:end]:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise MalformedInput(f"bad graph6 byte {o}")
        n = (n << 6) | (o - 63)
    return n, end


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (short or long form)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    n, start = _g6_decode_n(s)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    payload = s[start:]
    if len(payload) < nchars:
        raise MalformedInput(
            f"graph6 payload truncated: need {nchars} chars for n={n}, got {len(payload)}"
        )
    if len(payload) > nchars:
        raise MalformedInput("trailing characters after graph6 payload")
    if payload and not ("?" <= min(payload) and max(payload) <= "~"):
        bad = next(o for o in map(ord, payload) if not 63 <= o <= 126)
        raise MalformedInput(f"bad graph6 byte {bad}")
    # bit i of the column-order string (0,1), (0,2), (1,2), (0,3), ... is
    # the pair (i - col(col-1)/2, col) with col = (1 + isqrt(1 + 8i)) // 2
    bits = "".join([format(ord(ch) - 63, "06b") for ch in payload])
    edges = []
    i = bits.find("1", 0, nbits)
    while i >= 0:
        col = (1 + isqrt(1 + 8 * i)) // 2
        edges.append((i - col * (col - 1) // 2, col))
        i = bits.find("1", i + 1, nbits)
    return Graph(n, frozenset(edges))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding; inverse of parse_graph6."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    elif n <= 68719476735:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise MalformedInput("vertex count too large for graph6")
    # column col holds rows 0..col-1, lowest row first
    adj_bits = g.adj_bits
    bits = "".join([
        format(adj_bits[col] & ((1 << col) - 1), f"0{col}b")[::-1] for col in range(1, n)
    ])
    bits += "0" * (-len(bits) % 6)
    return head + "".join([chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6)])


# --- edge list ------------------------------------------------------------

def is_count_header(line: str) -> bool:
    """True iff line is an edge list's "n=<count>" header, spaces allowed
    around the "="."""
    return line.replace(" ", "").startswith("n=")


def parse_edge_list(text: str) -> Graph:
    """Parse newline-delimited "u v" pairs, optionally led by "n=<count>"."""
    declared = None
    edges = set()
    max_id = -1
    lines = text.splitlines()
    start = 0
    for i, raw in enumerate(lines):
        if raw.strip():
            first = raw.strip()
            if is_count_header(first):
                try:
                    declared = int(first.partition("=")[2])
                except ValueError as exc:
                    raise MalformedInput(f"bad vertex count line {first!r}") from exc
                if declared < 0:
                    raise MalformedInput("negative vertex count")
                start = i + 1
            break
    for raw in lines[start:]:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedInput(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedInput(f"non-integer token in {line!r}") from exc
        if u < 0 or v < 0:
            raise MalformedInput(f"negative vertex id in {line!r}")
        if u == v:
            raise MalformedInput(f"loop at vertex {u}")
        edges.add(_norm_edge(u, v))
        max_id = max(max_id, u, v)
    n = declared if declared is not None else max_id + 1
    if max_id >= n:
        raise MalformedInput(f"vertex {max_id} exceeds declared count {n}")
    return Graph(n, frozenset(edges))


def write_edge_list(g: Graph) -> str:
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# --- induced subgraphs ----------------------------------------------------

def induced_subgraph(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on vertex set s, relabeled to 0..|s|-1.

    Returns (subgraph, kept) where kept[i] is the original id of new
    vertex i; kept is ascending.
    """
    kept = tuple(sorted(set(s)))
    for v in kept:
        if not 0 <= v < g.n:
            raise InvalidVertex(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(kept)}
    inside = frozenset(
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    )
    return Graph(len(kept), inside), kept


def subgraph_from_sets(vertices, edges) -> tuple[Graph, tuple[int, ...]]:
    """Relabel an explicit (vertex set, edge set) subgraph to 0..k-1."""
    kept = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(kept)}
    relabeled = frozenset(_norm_edge(index[u], index[v]) for u, v in edges)
    return Graph(len(kept), relabeled), kept
