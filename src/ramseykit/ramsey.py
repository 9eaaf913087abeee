"""Exact desk-scale decisions: vertex Ramseyness and subset density.

A host is r-Ramsey for a pattern iff the hypergraph of copy vertex sets
admits no r-coloring free of monochromatic hyperedges; the search is a
self-contained backtracker with color-symmetry breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .construction import estimate_density
from .embed import Copy, DEFAULT_COPY_LIMIT, enumerate_copies, subset_hits
from .errors import (
    CertificateError,
    EnumerationTruncated,
    ParamOutOfRange,
    SubsetSpaceTooLarge,
    UnsupportedPattern,
)
from .graphs import Graph, VertexColoring

DEFAULT_SEARCH_BUDGET = 100_000_000
EXACT_SUBSET_CAP = 1_000_000

DECIDED = "decided"
UNKNOWN = "unknown"


@dataclass
class CopyHypergraph:
    n: int
    hyperedges: list[frozenset[int]]  # distinct copy vertex sets, sorted
    witnesses: dict[frozenset[int], Copy]


@dataclass
class RamseyDecision:
    status: str  # "decided" | "unknown"
    ramsey: bool | None
    witness: VertexColoring | None  # proper coloring when not Ramsey
    nodes: int


@dataclass
class DensityResult:
    mode: str  # "exact" | "sampled"
    dense: bool | None  # exact mode only
    fraction: float
    hits: int
    trials: int
    subset_size: int
    witness_subset: tuple[int, ...] | None = None


def copy_hypergraph(
    g: Graph, pattern: Graph, limit: int | None = DEFAULT_COPY_LIMIT
) -> CopyHypergraph:
    """Distinct vertex sets of pattern copies in g, with one witness each."""
    enum = enumerate_copies(pattern, g, limit=limit)
    if enum.truncated:
        raise EnumerationTruncated("copy enumeration truncated building hypergraph")
    witnesses: dict[frozenset[int], Copy] = {}
    for copy in enum.copies:
        witnesses.setdefault(copy.vertices, copy)
    # copies come in key order, which starts with the sorted vertex tuple
    return CopyHypergraph(g.n, list(witnesses), witnesses)


def is_ramsey(
    g: Graph,
    pattern: Graph,
    r: int,
    copy_limit: int | None = DEFAULT_COPY_LIMIT,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
) -> RamseyDecision:
    """Is every r-coloring of g's vertices forced to contain a
    monochromatic copy of pattern?

    False answers carry a verified witness coloring.  Patterns with
    isolated vertices are rejected (their monochromatic-copy convention is
    ambiguous).  A budget exhaustion yields an "unknown" decision.
    """
    if r < 1:
        raise ParamOutOfRange("need at least one color")
    if pattern.n < 1:
        raise UnsupportedPattern("pattern must have at least one vertex")
    if any(pattern.degree(v) == 0 for v in range(pattern.n)):
        raise UnsupportedPattern("patterns with isolated vertices are not supported")
    hg = copy_hypergraph(g, pattern, limit=copy_limit)
    n = g.n
    if not hg.hyperedges:
        witness = VertexColoring(tuple(0 for _ in range(n)))
        return RamseyDecision(DECIDED, False, witness, 0)

    # hyperedges indexed by their largest vertex: a set becomes fully
    # colored exactly when that vertex is assigned (vertices go in id order)
    closing: list[list[list[int]]] = [[] for _ in range(n)]
    for he in hg.hyperedges:
        members = sorted(he)
        closing[members[-1]].append(members)

    # vertices go in id order on an explicit stack; colors[v] is the colour
    # last tried at v, and used[v] the highest colour among vertices < v.
    # A new colour is introduced only as used[v] + 1, killing colour symmetry.
    colors = [-1] * n
    used = [-1] * (n + 1)
    nodes = 0
    v = 0
    while v < n:
        c, top = colors[v] + 1, min(r - 1, used[v] + 1)
        while c <= top:
            nodes += 1
            if nodes > node_budget:
                return RamseyDecision(UNKNOWN, None, None, nodes)
            if not any(all(colors[w] == c for w in members[:-1]) for members in closing[v]):
                break
            c += 1
        if c > top:
            if v == 0:
                return RamseyDecision(DECIDED, True, None, nodes)
            colors[v] = -1
            v -= 1
            continue
        colors[v] = c
        used[v + 1] = max(used[v], c)
        v += 1
    witness = VertexColoring(tuple(colors))
    for he in hg.hyperedges:
        if len({witness.colors[w] for w in he}) < 2:
            raise CertificateError(f"witness coloring leaves copy {sorted(he)} monochromatic")
    return RamseyDecision(DECIDED, False, witness, nodes)


def is_eps_dense(
    g: Graph,
    pattern: Graph,
    eps: float,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
) -> DensityResult:
    """Does every induced subgraph on floor(eps * n) vertices contain a
    pattern copy?  Exact over all subsets, or estimated on uniform samples;
    both modes answer the subsets with embed.subset_hits.  In both, hits
    counts the subsets tried that held a copy and fraction is hits / trials;
    exact mode stops at the first subset without one (witness_subset).
    """
    if not 0 < eps <= 1:
        raise ParamOutOfRange("eps must lie in (0, 1]")
    n = g.n
    size = math.floor(eps * n)
    if size < 1:
        raise ParamOutOfRange("floor(eps * n) must be at least 1")
    if mode == "exact":
        total = math.comb(n, size)
        if total > EXACT_SUBSET_CAP:
            raise SubsetSpaceTooLarge(
                f"C({n},{size}) exceeds the exact cap {EXACT_SUBSET_CAP}"
            )
        masks = map(sum, combinations([1 << v for v in range(n)], size))
        hits = subset_hits(pattern, g, masks)
        for tried, (subset, hit) in enumerate(zip(combinations(range(n), size), hits), 1):
            if not hit:  # every subset before this one held a copy
                held = tried - 1
                return DensityResult("exact", False, held / tried, held, tried, size, subset)
        return DensityResult("exact", True, 1.0, total, total, size)
    if mode != "sampled":
        raise ParamOutOfRange(f"unknown mode {mode!r}")
    est = estimate_density(g, pattern, size, trials=trials, seed=seed)
    return DensityResult("sampled", None, est.fraction, est.hits, est.trials, size)
