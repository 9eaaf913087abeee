"""Output checks that do not trust ramseykit.

Every check here is written from the definitions, with its own graph6
codec, its own containment search and its own Ramsey oracle, so a bug in
the program cannot hide itself by also breaking the check.  Each check
returns None when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import numpy as np


# --- graph6 -------------------------------------------------------------------


def _pairs(n: int):
    """Vertex pairs in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    for j in range(1, n):
        for i in range(j):
            yield i, j


def encode_graph6(n: int, edges) -> str:
    """graph6 text of a graph on at most 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("encoder covers only 0..62 vertices")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if p in present else 0 for p in _pairs(n)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(n + 63) + "".join(
        chr(63 + int("".join(map(str, c)), 2)) for c in chunks
    )


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) of one graph6 line; raises ValueError."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    vals = [ord(c) - 63 for c in s]
    if not vals or any(not 0 <= x <= 63 for x in vals):
        raise ValueError("graph6 byte outside 63..126")
    if vals[0] != 63:
        n, head = vals[0], 1
    elif len(vals) > 1 and vals[1] != 63:
        n, head = _int6(vals[1:4]), 4
    else:
        n, head = _int6(vals[2:8]), 8
    nbits = n * (n - 1) // 2
    payload = vals[head:]
    if len(payload) != (nbits + 5) // 6:
        raise ValueError(f"graph6 payload has {len(payload)} chars for n={n}")
    adj = [0] * n
    for k, (i, j) in enumerate(_pairs(n)):
        if (payload[k // 6] >> (5 - k % 6)) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return n, adj


def _int6(vals: list[int]) -> int:
    if len(vals) not in (3, 6):
        raise ValueError("truncated graph6 vertex count")
    out = 0
    for x in vals:
        out = (out << 6) | x
    return out


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


# --- containment ---------------------------------------------------------------


def contains(adj: list[int], allowed: int, pattern_n: int, pattern_edges) -> bool:
    """Is there an injective edge-preserving map of the pattern into the
    vertices of the allowed bitmask?  Plain backtracking in pattern order."""
    back: list[list[int]] = [[] for _ in range(pattern_n)]
    for u, v in pattern_edges:
        back[max(u, v)].append(min(u, v))
    image = [0] * pattern_n

    def place(i: int, used: int) -> bool:
        if i == pattern_n:
            return True
        cand = allowed & ~used
        for j in back[i]:
            cand &= adj[image[j]]
        while cand:
            low = cand & -cand
            image[i] = low.bit_length() - 1
            if place(i + 1, used | low):
                return True
            cand ^= low
        return False

    return place(0, 0)


def has_clique(adj: list[int], size: int) -> bool:
    """Does the graph contain K_size?  Used to check K4-freeness."""

    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if grow(cand & adj[v], need - 1):
                return True
        return False

    return grow((1 << len(adj)) - 1, size)


# --- certificates -----------------------------------------------------------------


def check_embedding(host_adj: list[int], target_n: int, target_edges, mapping) -> str | None:
    """The map covers every target vertex, is injective, lands in the host
    and sends every target edge onto a host edge."""
    if sorted(mapping) != list(range(target_n)):
        return "embedding does not map every target vertex"
    image = [mapping[i] for i in range(target_n)]
    if len(set(image)) != target_n:
        return "embedding is not injective"
    if any(not 0 <= w < len(host_adj) for w in image):
        return "embedding leaves the host"
    for u, v in target_edges:
        if not (host_adj[image[u]] >> image[v]) & 1:
            return f"target edge ({u},{v}) is not a host edge"
    return None


def check_coloring(host_adj: list[int], colors, pattern_n: int, pattern_edges,
                   bound: int) -> str | None:
    """Every vertex is colored, the palette is within the bound and no
    color class holds a copy of the pattern."""
    if len(colors) != len(host_adj):
        return "coloring does not cover every vertex"
    palette = set(colors)
    if len(palette) > bound:
        return f"palette {len(palette)} exceeds bound {bound}"
    for c in palette:
        members = 0
        for v, cv in enumerate(colors):
            if cv == c:
                members |= 1 << v
        if contains(host_adj, members, pattern_n, pattern_edges):
            return f"color class {c} holds a pattern copy"
    return None


def forced_mono_clique(adj: list[int], size: int) -> bool:
    """Does every 2-coloring of the vertices leave a monochromatic K_size?
    Exhaustive over all 2^n colorings at once, for small n."""
    n = len(adj)
    cliques: list[int] = []

    def grow(members: int, cand: int, need: int):
        if need == 0:
            cliques.append(members)
            return
        while cand:
            low = cand & -cand
            cand ^= low
            grow(members | low, cand & adj[low.bit_length() - 1], need - 1)

    grow(0, (1 << n) - 1, size)
    colorings = np.arange(1 << n, dtype=np.int64)
    mono = np.zeros(1 << n, dtype=bool)
    for q in cliques:
        part = colorings & q
        mono |= (part == q) | (part == 0)
    return bool(mono.all())
