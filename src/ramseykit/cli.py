"""Command-line front end: every pipeline behind one reproducible entry point.

Exit codes: 0 for decided results (a "false" or coloring answer is a
result), 2 for budget-limited UNKNOWN outcomes, 1 for usage or input
errors.  All randomness is seed-driven with seed 0 as the default, so two
identical invocations produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import sys

from . import certify, construction, ramsey
from .blocks import block_decomposition
from .degeneracy import forest_decomposition, is_degenerate
from .errors import EnumerationTruncated, RamseykitError
from .graphs import Graph, parse_edge_list, parse_graph6, write_graph6
from .report import envelope, to_json, to_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _load_graph(spec: str) -> Graph:
    """Inline graph6, or @path to a graph6 / edge-list file (sniffed)."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="ascii") as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith(">>graph6<<"):
            return parse_graph6(stripped.splitlines()[0])
        first = stripped.splitlines()[0].strip() if stripped else ""
        if first[:1].isdigit() or first.replace(" ", "").startswith("n="):
            return parse_edge_list(text)
        return parse_graph6(first)
    return parse_graph6(spec)


def _build_parser() -> _Parser:
    p = _Parser(prog="ramseykit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, *, graph=False, pattern=False, forest=False,
            family=False, r=False, eps=False, n=False, trials=None,
            seed=False, budget=False, jobs=False, extra=None):
        sp = sub.add_parser(name, help=help_)
        if graph:
            sp.add_argument("--graph", required=True, help="graph6 string or @file")
        if pattern:
            sp.add_argument("--pattern", required=True, help="graph6 string or @file")
        if forest:
            sp.add_argument("--forest", required=True, help="graph6 string or @file")
        if family:
            sp.add_argument("--family", action="append", required=True,
                            help="graph6 string or @file; repeatable")
        if r:
            sp.add_argument("-r", type=int, required=True, help="number of colors")
        if eps:
            sp.add_argument("--eps", type=float, required=True)
        if n:
            sp.add_argument("-n", type=int, required=True)
        if trials is not None:
            sp.add_argument("--trials", type=int, default=trials)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if budget:
            sp.add_argument("--budget", type=int, default=None)
        if jobs:
            sp.add_argument("--jobs", type=int, default=1)
        if extra:
            extra(sp)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="also write the document here")
        return sp

    add("blocks", "block decomposition and articulation points", graph=True)
    add("degenerate", "does every block of --graph embed into --pattern",
        graph=True, pattern=True)
    add("forest", "minimum forest decomposition of --graph over --pattern",
        graph=True, pattern=True, budget=True)
    add("color", "embedding-or-coloring certificate for --forest in --graph",
        graph=True, pattern=True, forest=True, budget=True)
    add("ramsey", "exact vertex Ramsey decision", graph=True, pattern=True,
        r=True, budget=True)
    add("dense", "subset density of --graph with respect to --pattern",
        graph=True, pattern=True, eps=True, trials=1000, seed=True,
        extra=lambda sp: sp.add_argument("--mode", choices=("exact", "sampled"),
                                         default="exact"))
    add("construct", "sample a dense graph avoiding every --family member",
        pattern=True, family=True, eps=True, n=True, trials=1000, seed=True,
        budget=True,
        extra=lambda sp: sp.add_argument("--deletion-multiplier", type=float,
                                         default=1.0))
    add("covers", "exhaustive trace-cover inequality report",
        graph=True, pattern=True)
    add("count", "copy-count distribution of --graph cores over sampled hosts",
        graph=True, pattern=True, eps=True, n=True, trials=100, seed=True,
        budget=True, jobs=True)
    add("estimate-density", "hit fraction of uniform -n subsets",
        graph=True, pattern=True, n=True, trials=1000, seed=True, jobs=True)
    return p


def _block_doc(args) -> tuple[dict, str]:
    g = _load_graph(args.graph)
    dec = block_decomposition(g)
    result = {
        "blocks": [
            {"vertices": list(b.vertices), "edges": [list(e) for e in b.edges]}
            for b in dec.blocks
        ],
        "cut_vertices": sorted(dec.cut_vertices),
        "tree": sorted([i, v] for i, v in dec.tree_edges),
        "isolated_vertices": sorted(dec.isolated_vertices),
    }
    return envelope("blocks", {"graph": write_graph6(g)}, result), "ok"


def _degenerate_doc(args) -> tuple[dict, str]:
    g, pat = _load_graph(args.graph), _load_graph(args.pattern)
    check = is_degenerate(g, pat)
    result = {"degenerate": check.degenerate}
    if check.offending_block is not None:
        result["offending_block"] = {
            "vertices": list(check.offending_block.vertices),
            "edges": [list(e) for e in check.offending_block.edges],
        }
    inputs = {"graph": write_graph6(g), "pattern": write_graph6(pat)}
    return envelope("degenerate", inputs, result), "ok"


def _forest_doc(args) -> tuple[dict, str]:
    g, pat = _load_graph(args.graph), _load_graph(args.pattern)
    kwargs = {}
    if args.budget is not None:
        kwargs["node_budget"] = args.budget
    dec = forest_decomposition(g, pat, **kwargs)
    if dec is None:
        result = {"decomposition": None}
    else:
        result = {
            "decomposition": {
                "size": dec.size,
                "minimal": dec.minimal,
                "pieces": [
                    {"vertices": list(p.vertices), "edges": [list(e) for e in p.edges]}
                    for p in dec.pieces
                ],
                "attachments": list(dec.attachments),
            }
        }
    inputs = {"graph": write_graph6(g), "pattern": write_graph6(pat)}
    return envelope("forest", inputs, result), "ok"


def _color_doc(args) -> tuple[dict, str]:
    g = _load_graph(args.graph)
    pat = _load_graph(args.pattern)
    forest = _load_graph(args.forest)
    kwargs = {}
    if args.budget is not None:
        kwargs["copy_limit"] = args.budget
    cert = certify.embed_or_color(g, pat, forest, **kwargs)
    inputs = {
        "graph": write_graph6(g),
        "pattern": write_graph6(pat),
        "forest": write_graph6(forest),
    }
    status = "unknown" if cert.branch == certify.UNKNOWN else "ok"
    return envelope("color", inputs, cert.to_json_dict(), status), status


def _ramsey_doc(args) -> tuple[dict, str]:
    g, pat = _load_graph(args.graph), _load_graph(args.pattern)
    kwargs = {}
    if args.budget is not None:
        kwargs["node_budget"] = args.budget
    inputs = {"graph": write_graph6(g), "pattern": write_graph6(pat), "r": args.r}
    try:
        dec = ramsey.is_ramsey(g, pat, args.r, **kwargs)
    except EnumerationTruncated as exc:
        return envelope("ramsey", inputs, {"truncated": str(exc)}, "unknown"), "unknown"
    result = {
        "ramsey": dec.ramsey,
        "r": args.r,
        "nodes": dec.nodes,
        "witness_coloring": list(dec.witness.colors) if dec.witness else None,
    }
    status = "unknown" if dec.status == ramsey.UNKNOWN else "ok"
    return envelope("ramsey", inputs, result, status), status


def _dense_doc(args) -> tuple[dict, str]:
    g, pat = _load_graph(args.graph), _load_graph(args.pattern)
    res = ramsey.is_eps_dense(
        g, pat, args.eps, mode=args.mode, trials=args.trials, seed=args.seed
    )
    result = {
        "mode": res.mode,
        "dense": res.dense,
        "fraction": res.fraction,
        "hits": res.hits,
        "trials": res.trials,
        "subset_size": res.subset_size,
        "witness_subset": list(res.witness_subset) if res.witness_subset else None,
    }
    inputs = {
        "graph": write_graph6(g),
        "pattern": write_graph6(pat),
        "eps": args.eps,
        "mode": args.mode,
        "seed": args.seed,
    }
    return envelope("dense", inputs, result), "ok"


def _construct_doc(args) -> tuple[dict, str]:
    pat = _load_graph(args.pattern)
    family = [_load_graph(s) for s in args.family]
    kwargs = {}
    if args.budget is not None:
        kwargs["copy_limit"] = args.budget
    inputs = {
        "pattern": write_graph6(pat),
        "family": [write_graph6(f) for f in family],
        "n": args.n,
        "eps": args.eps,
        "seed": args.seed,
    }
    try:
        final, rep = construction.construct_family_free(
            args.n,
            pat,
            family,
            args.eps,
            seed=args.seed,
            deletion_multiplier=args.deletion_multiplier,
            density_trials=args.trials,
            **kwargs,
        )
    except EnumerationTruncated as exc:
        doc = envelope("construct", inputs, {"truncated": str(exc)}, "unknown")
        return doc, "unknown"
    result = {"graph6": write_graph6(final), "report": rep.to_json_dict()}
    return envelope("construct", inputs, result), "ok"


def _covers_doc(args) -> tuple[dict, str]:
    core, pat = _load_graph(args.graph), _load_graph(args.pattern)
    rep = construction.verify_cover_inequality(core, pat)
    inputs = {"graph": write_graph6(core), "pattern": write_graph6(pat)}
    return envelope("covers", inputs, rep.to_json_dict()), "ok"


def _count_doc(args) -> tuple[dict, str]:
    core, pat = _load_graph(args.graph), _load_graph(args.pattern)
    kwargs = {}
    if args.budget is not None:
        kwargs["copy_limit"] = args.budget
    inputs = {
        "graph": write_graph6(core),
        "pattern": write_graph6(pat),
        "n": args.n,
        "eps": args.eps,
        "seed": args.seed,
        "trials": args.trials,
    }
    try:
        stats = construction.estimate_copy_count(
            core, pat, args.n, args.eps, trials=args.trials, seed=args.seed,
            jobs=args.jobs, **kwargs,
        )
    except EnumerationTruncated as exc:
        return envelope("count", inputs, {"truncated": str(exc)}, "unknown"), "unknown"
    return envelope("count", inputs, stats.to_json_dict()), "ok"


def _estimate_density_doc(args) -> tuple[dict, str]:
    g, pat = _load_graph(args.graph), _load_graph(args.pattern)
    est = construction.estimate_density(
        g, pat, args.n, trials=args.trials, seed=args.seed, jobs=args.jobs
    )
    result = {
        "fraction": est.fraction,
        "hits": est.hits,
        "trials": est.trials,
        "subset_size": est.subset_size,
    }
    inputs = {
        "graph": write_graph6(g),
        "pattern": write_graph6(pat),
        "n": args.n,
        "seed": args.seed,
        "trials": args.trials,
    }
    return envelope("estimate-density", inputs, result), "ok"


_HANDLERS = {
    "blocks": _block_doc,
    "degenerate": _degenerate_doc,
    "forest": _forest_doc,
    "color": _color_doc,
    "ramsey": _ramsey_doc,
    "dense": _dense_doc,
    "construct": _construct_doc,
    "covers": _covers_doc,
    "count": _count_doc,
    "estimate-density": _estimate_density_doc,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Parse argv, dispatch, and return (exit code, output document)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # our error() raises 1; --help exits 0
        return (exc.code if isinstance(exc.code, int) else 1), ""
    try:
        doc, status = _HANDLERS[args.command](args)
    except (RamseykitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""
    text = to_json(doc) if args.format == "json" else to_text(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return (2 if status == "unknown" else 0), text


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
