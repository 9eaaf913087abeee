"""Outside-in tracing of ramseykit's layers.

The tracer replaces the public functions of each layer, in every
ramseykit module namespace that binds them, by wrappers that record a span
(name, parent span, start, end) and read work counts off the returned
values.  Binding the wrapper in the defining module too catches calls made
inside that module, such as find_embedding -> enumerate_embeddings.
Generators are timed per resume, so the consumer's time between items is
not billed to the producer.  Spans stay in memory and are written out once,
at the end; self time and counts are derived from them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# layer (= ramseykit module) -> public functions traced in that layer
LAYERS = {
    "graphs": ("induced_subgraph", "subgraph_from_sets", "parse_graph6", "write_graph6"),
    "blocks": ("block_decomposition", "articulation_points"),
    "embed": (
        "enumerate_embeddings",
        "find_embedding",
        "contains_copy",
        "enumerate_copies",
        "enumerate_copies_with_witness",
        "count_copies",
        "automorphism_count",
    ),
    "degeneracy": ("forest_decomposition", "is_degenerate", "extract_core"),
    "certify": (
        "embed_or_color",
        "star_family_at_least",
        "greedy_disjoint_family",
        "verify_coloring",
        "degeneracy_coloring",
    ),
    "ramsey": ("is_ramsey", "copy_hypergraph", "is_eps_dense"),
    "construction": (
        "construct_family_free",
        "sample_copy_hypergraph",
        "union_graph",
        "total_copy_count",
        "estimate_density",
        "estimate_copy_count",
        "enumerate_min_trace_covers",
        "verify_cover_inequality",
    ),
    "cli": ("run",),
    "report": ("envelope", "to_json", "to_text"),
}
GENERATORS = {"embed.enumerate_embeddings"}
# embeddings yielded straight into these are deduplicated into copies
DEDUP = {"embed.count_copies", "embed.enumerate_copies_with_witness"}
OP = "bench.op"


def _observe_find(counts, result):
    counts["embed.find_embedding.hits"] += result is not None


def _observe_count_copies(counts, result):
    counts["embed.copies_distinct"] += result[0]


def _observe_copies_with_witness(counts, result):
    counts["embed.copies_distinct"] += len(result[0])


def _observe_forest(counts, result):
    counts["degeneracy.nonminimal"] += result is not None and not result.minimal


def _observe_certificate(counts, result):
    counts[f"certify.branch_{result.branch}"] += 1
    counts["certify.levels"] += len(result.levels)


def _observe_ramsey(counts, result):
    counts["ramsey.search_nodes"] += result.nodes
    counts["ramsey.unknown"] += result.status == "unknown"


def _observe_hypergraph(counts, result):
    counts["ramsey.hyperedges"] += len(result.hyperedges)


def _observe_density(counts, result):
    counts["construction.density_trials"] += result.trials


def _observe_sample(counts, result):
    counts["construction.copies_sampled"] += len(result.copies)


def _observe_covers(counts, result):
    counts["construction.covers_found"] += len(result)


OBSERVERS = {
    "embed.find_embedding": _observe_find,
    "embed.count_copies": _observe_count_copies,
    "embed.enumerate_copies_with_witness": _observe_copies_with_witness,
    "degeneracy.forest_decomposition": _observe_forest,
    "certify.embed_or_color": _observe_certificate,
    "ramsey.is_ramsey": _observe_ramsey,
    "ramsey.copy_hypergraph": _observe_hypergraph,
    "construction.estimate_density": _observe_density,
    "construction.sample_copy_hypergraph": _observe_sample,
    "construction.enumerate_min_trace_covers": _observe_covers,
}

# per-layer metrics: (name, unit); times and counts are per operation
SELF_TIMES = (
    "graphs.induced_subgraph",
    "graphs.subgraph_from_sets",
    "graphs.parse_graph6",
    "graphs.write_graph6",
    "embed.find_embedding",
    "embed.count_copies",
    "embed.enumerate_copies",
    "embed.enumerate_copies_with_witness",
    "degeneracy.forest_decomposition",
    "certify.star_family_at_least",
    "certify.verify_coloring",
    "ramsey.copy_hypergraph",
    "construction.estimate_density",
    "construction.sample_copy_hypergraph",
    "construction.union_graph",
    "construction.enumerate_min_trace_covers",
    "construction.verify_cover_inequality",
    "cli.run",
    "report.to_json",
)
INCLUSIVE_TIMES = (
    "certify.embed_or_color",
    "degeneracy.forest_decomposition",
    "construction.estimate_density",
    "cli.run",
)
CALLS = (
    "graphs.induced_subgraph",
    "blocks.block_decomposition",
    "embed.find_embedding",
    "degeneracy.forest_decomposition",
    "certify.embed_or_color",
    "certify.star_family_at_least",
    "certify.greedy_disjoint_family",
    "construction.enumerate_min_trace_covers",
)
COUNTS = (
    "embed.embeddings_emitted",
    "embed.copies_distinct",
    "degeneracy.nonminimal",
    "certify.branch_embedding",
    "certify.branch_coloring",
    "certify.branch_unknown",
    "certify.levels",
    "ramsey.search_nodes",
    "ramsey.hyperedges",
    "ramsey.unknown",
    "construction.density_trials",
    "construction.copies_sampled",
    "construction.covers_found",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [(f"{layer}.self_s", "s/op") for layer in LAYERS]
    out += [(f"{fn}.self_s", "s/op") for fn in SELF_TIMES]
    out += [(f"{fn}.incl_s", "s/op") for fn in INCLUSIVE_TIMES]
    out += [(f"{fn}.calls", "calls/op") for fn in CALLS]
    out += [(name, "count/op") for name in COUNTS]
    out += [
        ("embed.find_embedding.hit_ratio", "ratio"),
        ("embed.copies_per_embedding", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names = [OP]
        self._ids = {OP: 0}
        self.span_name = array("i")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open_by_name: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list = []
        self._dedup = {self._id(name) for name in DEDUP}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.outermost.append(self._open_by_name[nid] == 0)
        self._open_by_name[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[nid] -= 1

    def rooted(self, call):
        """call, with one root span per benchmark operation."""

        def op(*args):
            idx = self._open(0)
            try:
                return call(*args)
            finally:
                self._close(idx, 0)

        return op

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        calls = self.calls
        if name in GENERATORS:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return self._resumes(nid, fn(*args, **kwargs))

            return wrapper
        observe = OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def _resumes(self, nid: int, inner):
        while True:
            idx = self._open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(idx, nid)
            parent = self.parent[idx]
            if parent >= 0 and self.span_name[parent] in self._dedup:
                self.counts["embed.embeddings_emitted"] += 1
            yield item

    def install(self):
        """Patch every binding of a traced function in loaded ramseykit modules."""
        targets = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[f"ramseykit.{layer}"]
            for fn in fns:
                targets[id(getattr(module, fn))] = (f"{layer}.{fn}", getattr(module, fn))
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "ramseykit" and not modname.startswith("ramseykit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                name = hit[0]
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                setattr(module, attr, wrappers[name])
                self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        return names, parent, dur, outer

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        names, parent, dur, _ = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def inclusive_times(self) -> dict[str, float]:
        """Total time per span name over spans not nested in one of the same name."""
        names, _, dur, outer = self._arrays()
        incl = np.bincount(names[outer], weights=dur[outer], minlength=len(self.names))
        return {name: float(incl[i]) for i, name in enumerate(self.names)}

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        own = self.self_times()
        incl = self.inclusive_times()
        calls, counts = self.calls, self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for n, t in own.items() if n.startswith(layer + ".")) / ops
        for fn in SELF_TIMES:
            out[f"{fn}.self_s"] = own.get(fn, 0.0) / ops
        for fn in INCLUSIVE_TIMES:
            out[f"{fn}.incl_s"] = incl.get(fn, 0.0) / ops
        for fn in CALLS:
            out[f"{fn}.calls"] = calls[fn] / ops
        for name in COUNTS:
            out[name] = counts[name] / ops
        finds = calls["embed.find_embedding"]
        out["embed.find_embedding.hit_ratio"] = counts["embed.find_embedding.hits"] / finds if finds else 0.0
        emitted = counts["embed.embeddings_emitted"]
        out["embed.copies_per_embedding"] = counts["embed.copies_distinct"] / emitted if emitted else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def dump(self, path):
        """Write every span, with its parent link, as one .npz file."""
        names, parent, dur, outer = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=names,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            outermost=outer,
        )
