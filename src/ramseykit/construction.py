"""Randomized dense construction from sampled pattern copies, plus the
exhaustive trace-cover counting apparatus that bounds rare-subgraph counts.

The copy hypergraph on [n] keeps each of the T possible pattern copies
independently with probability p; the construction graph is the union of
the chosen copies' edges.  Sampling draws K ~ Binomial(T, p) and then K
distinct copies uniformly (rejection on random injections), which is
exactly equidistributed with per-copy coin flips and runs in O(K * a)
expected time instead of O(T).  The injections are exactly the ones
numpy's Generator(PCG64(seed)).choice(n, a, replace=False) would return
call by call, replayed in Python ints from one bulk read of the
generator's output (ramseykit._npexact), as are the density trials' sets.
The count and construct trials keep the copies as (vertex set, edge set)
pairs and read only their number and union, which is complete once every
copy is drawn; only sample_copy_hypergraph builds the canonical Copy list.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from ._npexact import _subset_masks, choices
from .degeneracy import extract_core
from .embed import (
    Copy,
    DEFAULT_COPY_LIMIT,
    _iter_bits,
    automorphism_count,
    contains_copy,
    count_copies,
    enumerate_copies,
    subset_hits,
)
from .errors import (
    EnumerationTruncated,
    IsDegenerate,
    NotApplicable,
    ParamOutOfRange,
    TooLarge,
)
from .graphs import (
    Edge,
    Graph,
    complete_graph,
    empty_graph,
    induced_subgraph,
    subgraph_from_sets,
    write_graph6,
)

MAX_COVER_EDGES = 12
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:  # also false for NaN
        raise ParamOutOfRange("eps must be a positive finite number")


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    a: int
    eps: float
    p: float
    delta0: float
    delta: float
    subset_size: int
    k_edges: int | None
    deletion_multiplier: float
    seed: int
    p_clamped: bool
    eps_within_claim_bound: bool

    @staticmethod
    def derive(
        n: int,
        pattern: Graph,
        eps: float,
        seed: int = 0,
        k_edges: int | None = None,
        p_override: float | None = None,
        deletion_multiplier: float = 1.0,
    ) -> "ConstructionParams":
        a = pattern.n
        if n < 1:
            raise ParamOutOfRange("n must be positive")
        if a < 2:
            raise ParamOutOfRange("pattern needs at least two vertices")
        _check_eps(eps)
        if not 0 <= deletion_multiplier < math.inf:
            raise ParamOutOfRange("deletion multiplier must be a nonnegative finite number")
        delta0 = eps / (2 * (a - 1))
        delta = delta0 / 2
        subset_size = math.floor(n ** (1 - delta0))
        if subset_size < a:
            raise ParamOutOfRange(
                f"subset size {subset_size} below pattern order {a}; n too small"
            )
        clamped = False
        if p_override is not None:
            if not 0 <= p_override <= 1:
                raise ParamOutOfRange("explicit p must lie in [0, 1]")
            p = p_override
        else:
            p = float(n) ** (1 - a + eps)
            if p > 1.0:
                p = 1.0
                clamped = True
        eps_ok = k_edges is None or eps < 1 / (2 * k_edges)
        return ConstructionParams(
            n=n,
            a=a,
            eps=eps,
            p=p,
            delta0=delta0,
            delta=delta,
            subset_size=subset_size,
            k_edges=k_edges,
            deletion_multiplier=deletion_multiplier,
            seed=seed,
            p_clamped=clamped,
            eps_within_claim_bound=eps_ok,
        )


@dataclass
class CopySample:
    copies: list[Copy]  # canonical order
    params: ConstructionParams
    total_copies: int  # T: all possible pattern copies on [n]
    requested: int  # K drawn from Binomial(T, p)


def total_copy_count(n: int, pattern: Graph) -> int:
    """Number of distinct pattern copies on n labeled vertices."""
    a = pattern.n
    if a > n:
        return 0
    falling = 1
    for i in range(a):
        falling *= n - i
    return falling // automorphism_count(pattern)


def _base_images(pattern: Graph) -> list[frozenset[Edge]]:
    """Distinct pattern images on the fixed vertex set 0..a-1."""
    return [c.edges for c in enumerate_copies(pattern, complete_graph(pattern.n), limit=None).copies]


def _pair(injection, edges) -> tuple:
    """The copy that injection makes of edges, as (vertex set, edge set)."""
    return frozenset(injection), frozenset(
        (injection[u], injection[v]) if injection[u] < injection[v]
        else (injection[v], injection[u])
        for u, v in edges
    )


def _all_pairs(n: int, pattern: Graph):
    """Every pattern copy on [n], in combinations order, made on demand."""
    base = _base_images(pattern)
    for comb in combinations(range(n), pattern.n):
        for image in base:
            yield _pair(comb, image)


def _sample_pairs(params: ConstructionParams, pattern: Graph) -> tuple:
    """T, K and the K distinct sampled copies as (vertex set, edge set)
    pairs in draw order.  At p == 1 every copy is drawn and the pairs are
    listed lazily, so a caller that needs only their union lists none."""
    if pattern.n != params.a:
        raise ParamOutOfRange("pattern order disagrees with params")
    n, a, p = params.n, params.a, params.p
    T = total_copy_count(n, pattern)
    if p == 0.0 or T == 0:
        return T, 0, []
    if p == 1.0:
        return T, T, _all_pairs(n, pattern)
    rng = np.random.Generator(np.random.PCG64(params.seed & _SEED_MASK))
    K = int(rng.binomial(T, p))
    chosen: dict[tuple, None] = {}
    injections = choices(rng, n, a)
    while len(chosen) < K:
        chosen[_pair(next(injections), pattern.edges)] = None
    return T, K, list(chosen)


def _sampled_union(params: ConstructionParams, pattern: Graph) -> tuple[int, Graph]:
    """K and the union of the sampled copies; once every copy is drawn it is
    complete (edgeless for an edgeless pattern) and no copy is listed."""
    T, K, pairs = _sample_pairs(params, pattern)
    if 0 < K == T:
        return K, complete_graph(params.n) if pattern.m else empty_graph(params.n)
    return K, Graph(params.n, frozenset().union(*[edges for _, edges in pairs]))


def sample_copy_hypergraph(params: ConstructionParams, pattern: Graph) -> CopySample:
    """Draw the binomial copy hypergraph for the given parameters."""
    T, K, pairs = _sample_pairs(params, pattern)
    copies = sorted((Copy(*pair) for pair in pairs), key=Copy.key)
    return CopySample(copies, params, T, K)


def union_graph(sample: CopySample) -> Graph:
    """Edges present in at least one sampled copy."""
    edges: set[Edge] = set()
    for copy in sample.copies:
        edges |= copy.edges
    return Graph(sample.params.n, frozenset(edges))


# --- trace covers -----------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """A subgraph of the core, given as the endpoints of its edge set."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass
class TraceCover:
    traces: list[Trace]
    v_sizes: list[int]
    overlap_sizes: list[int]
    sum_v: int
    size: int


def _candidate_traces(core: Graph, pattern: Graph) -> tuple[list[int], list[int], list[Trace]]:
    """Edge bitmasks (over core.sorted_edges()), vertex bitmasks and traces
    of the core's pattern-embeddable nonempty edge subsets, in increasing
    edge-bitmask order; a candidate's id is its position.  A trace has no
    isolated vertex, so a subset with more edges than the pattern, or with
    more endpoints than the pattern has vertices, is skipped unbuilt."""
    edges = core.sorted_edges()
    k = len(edges)
    if k > MAX_COVER_EDGES:
        raise TooLarge(f"core has {k} edges, exhaustive cap is {MAX_COVER_EDGES}")
    ends = [(1 << u) | (1 << v) for u, v in edges]
    masks, vmasks, traces = [], [], []
    for mask in range(1, 1 << k):
        if mask.bit_count() > pattern.m:
            continue
        vmask = 0
        for i in _iter_bits(mask):
            vmask |= ends[i]
        if vmask.bit_count() > pattern.n:
            continue
        sub_edges = [edges[i] for i in _iter_bits(mask)]
        verts = list(_iter_bits(vmask))
        sub, _ = subgraph_from_sets(verts, sub_edges)
        if contains_copy(sub, pattern):
            masks.append(mask)
            vmasks.append(vmask)
            traces.append(Trace(tuple(verts), tuple(sub_edges)))
    return masks, vmasks, traces


def _min_covers(masks: list[int], vmasks: list[int], k: int, cap: int, leaf) -> None:
    """Call leaf(chosen, vsum, twice) once for each inclusion-minimal cover
    of the k edges by at most cap of the edge bitmasks: MMCS (Murakami &
    Uno, Discrete Appl. Math. 2014).  chosen holds the cover's mask ids in
    the order they were chosen, vsum is the total of their vertex counts and
    twice the vertices that two or more of them share; both are carried
    down the recursion, one trace per level.  Branch on the uncovered edge
    with the fewest candidates left, try them in id order, and let each
    one's subtree add back only those tried before it.  A branch dies once
    a chosen mask has no critical edge (one no other chosen mask covers)
    left."""
    by_edge = [sum(1 << c for c, m in enumerate(masks) if (m >> i) & 1) for i in range(k)]

    def extend(chosen: tuple, crit: list, uncov: int, cand: int, vsum: int, once: int, twice: int):
        if not uncov:
            leaf(chosen, vsum, twice)
            return
        if len(chosen) >= cap:
            return
        edge = min(_iter_bits(uncov), key=lambda i: (by_edge[i] & cand).bit_count())
        branch = by_edge[edge] & cand
        cand &= ~branch
        for c in _iter_bits(branch):
            m = masks[c]
            kept = [x & ~m for x in crit]
            if 0 not in kept:
                kept.append(m & uncov)
                vm = vmasks[c]
                extend(chosen + (c,), kept, uncov & ~m, cand,
                       vsum + vm.bit_count(), once | vm, twice | (once & vm))
            cand |= 1 << c

    if k:
        extend((), [], (1 << k) - 1, (1 << len(masks)) - 1, 0, 0, 0)


def _overlaps(vmasks: list[int]) -> list[int]:
    """Per vertex bitmask, how many of its vertices another mask shares."""
    once = twice = 0
    for vm in vmasks:
        twice |= once & vm
        once |= vm
    return [(vm & twice).bit_count() for vm in vmasks]


def _trace_cover(traces: list[Trace], ids: tuple) -> TraceCover:
    chosen = sorted((traces[c] for c in ids), key=lambda t: t.edges)
    v_sizes = [len(t.vertices) for t in chosen]
    overlaps = _overlaps([sum(1 << v for v in t.vertices) for t in chosen])
    return TraceCover(chosen, v_sizes, overlaps, sum(v_sizes), len(chosen))


def enumerate_min_trace_covers(
    core: Graph, pattern: Graph, max_size: int | None = None
) -> list[TraceCover]:
    """All inclusion-minimal covers of the core's edges by pattern-embeddable
    subgraphs (traces), each emitted once, in (size, candidate ids) order.
    Minimality: dropping any trace breaks coverage.  max_size bounds the
    search depth, so no cover of more traces is built."""
    masks, vmasks, traces = _candidate_traces(core, pattern)
    found = []
    _min_covers(masks, vmasks, core.m, core.m if max_size is None else max_size,
                lambda chosen, vsum, twice: found.append(tuple(sorted(chosen))))
    return [_trace_cover(traces, ids) for ids in sorted(found, key=lambda c: (len(c), c))]


@dataclass
class CoverReport:
    core_n: int
    covers_total: int
    covers_in_scope: int  # size >= 2 and every overlap >= 2
    violations: list[TraceCover]
    min_slack: int | None
    min_cover: TraceCover | None
    equality_cases: int
    all_covers_overlap_ge2: bool


def verify_cover_inequality(core: Graph, pattern: Graph) -> CoverReport:
    """Check sum(v_i) >= core order + cover size over every in-scope
    inclusion-minimal trace cover (size >= 2, all overlaps >= 2); report the
    minimizing cover (the first minimum in (slack, size, candidate ids)
    order) and whether every cover satisfies the overlap property.  Each
    cover reaches the leaf below with its vertex total and twice-covered
    vertices, so a trace's overlap is one AND; ids are sorted only for a
    violation or a cover that may be the new minimum, and nothing else per
    cover is kept.  Only the reported covers become TraceCover objects."""
    masks, vmasks, traces = _candidate_traces(core, pattern)
    b = core.n
    total = in_scope = equality = 0
    all_ge2 = True
    best = None  # (slack, size, ids)
    violations = []

    def leaf(chosen: tuple, vsum: int, twice: int) -> None:
        nonlocal total, in_scope, equality, all_ge2, best
        total += 1
        for c in chosen:
            if (vmasks[c] & twice).bit_count() < 2:  # also every single-trace cover
                all_ge2 = False
                return
        in_scope += 1
        size = len(chosen)
        slack = vsum - (b + size)
        if slack == 0:
            equality += 1
        elif slack < 0:
            violations.append(tuple(sorted(chosen)))
        if best is None or (slack, size) <= best[:2]:
            key = (slack, size, tuple(sorted(chosen)))
            if best is None or key < best:
                best = key

    _min_covers(masks, vmasks, core.m, core.m, leaf)
    violations.sort(key=lambda c: (len(c), c))
    return CoverReport(
        core_n=b,
        covers_total=total,
        covers_in_scope=in_scope,
        violations=[_trace_cover(traces, ids) for ids in violations],
        min_slack=None if best is None else best[0],
        min_cover=None if best is None else _trace_cover(traces, best[2]),
        equality_cases=equality,
        all_covers_overlap_ge2=total > 0 and all_ge2,
    )


# --- end-to-end construction -------------------------------------------------


@dataclass
class ConstructionReport:
    params: ConstructionParams
    cores: list[str]  # graph6 of each extracted core
    core_copy_counts: list[int]
    sampled_copies: int
    union_edges: int
    deletions: list[int]
    deletions_within_budget: bool
    deletion_budget: float
    survivors: list[int]
    family_free: list[bool]
    density_fraction: float
    density_trials: int
    density_subset_size: int

    def to_json_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "cores": self.cores,
            "core_copy_counts": self.core_copy_counts,
            "sampled_copies": self.sampled_copies,
            "union_edges": self.union_edges,
            "deletions": self.deletions,
            "deletions_within_budget": self.deletions_within_budget,
            "deletion_budget": self.deletion_budget,
            "survivors_count": len(self.survivors),
            "family_free": self.family_free,
            "density": {
                "fraction": self.density_fraction,
                "trials": self.density_trials,
                "subset_size": self.density_subset_size,
            },
        }


def construct_family_free(
    n: int,
    pattern: Graph,
    family: list[Graph],
    eps: float,
    seed: int = 0,
    deletion_multiplier: float = 1.0,
    density_trials: int = 1000,
    copy_limit: int | None = DEFAULT_COPY_LIMIT,
) -> tuple[Graph, ConstructionReport]:
    """Sample the copy-union graph, delete one vertex from every copy of
    each family member's core, and return the surviving induced graph with
    a run report (copy counts, deletion budget check, density estimate,
    direct family-freeness verification)."""
    if not family:
        raise ParamOutOfRange("family must be nonempty")
    cores = []
    for member in family:
        try:
            cores.append(extract_core(member, pattern))
        except IsDegenerate:
            raise NotApplicable(
                "a family member is pattern-degenerate; no free dense graph exists"
            ) from None
    k_edges = max(core.m for core in cores)
    params = ConstructionParams.derive(
        n,
        pattern,
        eps,
        seed=seed,
        k_edges=k_edges,
        deletion_multiplier=deletion_multiplier,
    )
    if density_trials < 0:
        raise ParamOutOfRange("density trials must be nonnegative")
    sampled, g0 = _sampled_union(params, pattern)

    doomed: set[int] = set()
    counts = []
    for core in cores:
        enum = enumerate_copies(core, g0, limit=copy_limit)
        if enum.truncated:
            raise EnumerationTruncated("core copy enumeration truncated")
        counts.append(len(enum.copies))
        for copy in enum.copies:
            doomed.add(min(copy.vertices))
    survivors = [v for v in range(n) if v not in doomed]
    final, _ = induced_subgraph(g0, survivors)

    budget = deletion_multiplier * math.sqrt(n)
    free = [not contains_copy(member, final) for member in family]
    subset = min(params.subset_size, final.n)
    density = estimate_density(
        final, pattern, subset, trials=density_trials, seed=(seed ^ 0xD1CE) & _SEED_MASK
    )
    report = ConstructionReport(
        params=params,
        cores=[write_graph6(c) for c in cores],
        core_copy_counts=counts,
        sampled_copies=sampled,
        union_edges=g0.m,
        deletions=sorted(doomed),
        deletions_within_budget=len(doomed) <= budget,
        deletion_budget=budget,
        survivors=survivors,
        family_free=[bool(x) for x in free],
        density_fraction=density.fraction,
        density_trials=density.trials,
        density_subset_size=subset,
    )
    return final, report


# --- Monte Carlo estimators ---------------------------------------------------


@dataclass
class DensityEstimate:
    fraction: float
    hits: int
    trials: int
    subset_size: int


@dataclass
class CopyCountStats:
    trials: int
    counts: list[int]
    mean: float
    max: int
    sqrt_n: float
    frac_within_sqrt: float
    cover_size_min: int | None
    exponent_bound: float | None
    # a cover of size l with vertex total sum_v contributes
    # n^(b + l + l*eps - sum_v) <= n^(l*eps) for a core on b vertices, with
    # equality exactly when the cover inequality is tight; the largest
    # inclusion-minimal cover bounds the growth of the expected count
    cover_size_max: int | None
    exponent_dominant: float | None


def _density_chunk(args) -> int:
    g, pattern, masks = args
    return sum(subset_hits(pattern, g, masks))


def _copy_count_trial(args) -> int:
    core, pattern, n, eps, seed, copy_limit, p_override = args
    params = ConstructionParams.derive(n, pattern, eps, seed=seed, p_override=p_override)
    _, g = _sampled_union(params, pattern)
    count, truncated = count_copies(core, g, limit=copy_limit)
    if truncated:
        raise EnumerationTruncated("core copy count truncated during trial")
    return count


def _workers(jobs: int, tasks: int) -> int:
    """Worker processes for tasks: never more than tasks or CPUs."""
    workers = min(jobs, tasks)
    return min(workers, os.cpu_count() or 1) if workers > 1 else 1


def _run_trials(worker, jobs: int, tasks: list) -> list:
    workers = _workers(jobs, len(tasks))
    if workers == 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // workers)))


def estimate_density(
    g: Graph,
    pattern: Graph,
    subset_size: int,
    trials: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> DensityEstimate:
    """Fraction of uniform subsets of the given size whose induced subgraph
    contains a pattern copy.  Trial t tests the set that
    Generator(PCG64((seed ^ t) mod 2**64)).choice draws; all sets are drawn
    here, in one batch, and each worker searches one contiguous chunk of
    them with subset_hits, so copies found answer later sets."""
    if subset_size < 0 or trials < 0:
        raise ParamOutOfRange("subset size and trials must be nonnegative")
    if subset_size > g.n:
        raise ParamOutOfRange("subset size exceeds graph order")
    masks = _subset_masks(g.n, subset_size, [(seed ^ t) & _SEED_MASK for t in range(trials)])
    size = max(1, -(-trials // _workers(jobs, trials)))
    chunks = [(g, pattern, masks[i:i + size]) for i in range(0, trials, size)]
    hits = sum(_run_trials(_density_chunk, jobs, chunks))
    return DensityEstimate(hits / trials if trials else 0.0, hits, trials, subset_size)


def estimate_copy_count(
    core: Graph,
    pattern: Graph,
    n: int,
    eps: float,
    trials: int = 100,
    seed: int = 0,
    jobs: int = 1,
    copy_limit: int | None = DEFAULT_COPY_LIMIT,
    p_override: float | None = None,
) -> CopyCountStats:
    """Distribution of the number of core copies over independent samples
    of the copy-union graph, with the cover-exponent bounds of the smallest
    and largest inclusion-minimal covers of two or more traces."""
    if n < 0 or trials < 0:
        raise ParamOutOfRange("n and trials must be nonnegative")
    _check_eps(eps)
    masks, vmasks, _ = _candidate_traces(core, pattern)  # refuses a large core before sampling
    ell_min = ell_max = None
    if core.m >= 2 and masks:
        # every single edge is then a trace and the all-single-edge cover is
        # minimal; no minimal cover is larger, as each trace in one covers
        # an edge no other does
        ell_max = core.m
        # the first cap that admits a cover of two or more traces is the
        # smallest size of one
        for ell_min in range(2, core.m + 1):
            sizes: list[int] = []
            _min_covers(masks, vmasks, core.m, ell_min,
                        lambda chosen, vsum, twice: sizes.append(len(chosen)))
            if max(sizes, default=0) > 1:
                break
    tasks = [
        (core, pattern, n, eps, (seed ^ t) & _SEED_MASK, copy_limit, p_override)
        for t in range(trials)
    ]
    counts = _run_trials(_copy_count_trial, jobs, tasks)
    sqrt_n = math.sqrt(n)
    within = sum(1 for x in counts if x <= sqrt_n)
    return CopyCountStats(
        trials=trials,
        counts=counts,
        mean=sum(counts) / trials if trials else 0.0,
        max=max(counts) if counts else 0,
        sqrt_n=sqrt_n,
        frac_within_sqrt=within / trials if trials else 0.0,
        cover_size_min=ell_min,
        exponent_bound=ell_min * eps if ell_min is not None else None,
        cover_size_max=ell_max,
        exponent_dominant=ell_max * eps if ell_max is not None else None,
    )
