"""Command-line front end: every pipeline behind one reproducible entry point.

Exit codes: 0 for decided results (a "false" or coloring answer is a
result), 2 for budget-limited UNKNOWN outcomes, 1 for usage or input
errors.  All randomness is seed-driven with seed 0 as the default, so two
identical invocations produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import certify, construction, ramsey
from .blocks import block_decomposition
from .degeneracy import DEFAULT_NODE_BUDGET, forest_decomposition, is_degenerate
from .embed import DEFAULT_COPY_LIMIT
from .errors import EnumerationTruncated, MalformedInput, ParamOutOfRange, RamseykitError
from .graphs import Graph, is_count_header, parse_edge_list, parse_graph6, write_graph6
from .report import envelope, to_json, to_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _load_graph(spec: str) -> Graph:
    """Inline graph6, or @path to a graph6 / edge-list file (sniffed); a
    lone "@" is the graph6 of the one-vertex graph."""
    if spec.startswith("@") and len(spec) > 1:
        with open(spec[1:], "r", encoding="ascii") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise MalformedInput(f"{spec[1:]}: byte {exc.start} is not ASCII") from None
        stripped = text.lstrip()
        if stripped.startswith(">>graph6<<"):
            return parse_graph6(stripped.splitlines()[0])
        first = stripped.splitlines()[0].strip() if stripped else ""
        if first[:1].isdigit() or is_count_header(first):
            return parse_edge_list(text)
        return parse_graph6(first)
    return parse_graph6(spec)


@cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    p = _Parser(prog="ramseykit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, *, graph=False, pattern=False, forest=False,
            family=False, r=False, eps=False, n=False, trials=None,
            seed=False, budget=None, jobs=False, extra=None):
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
        if budget is not None:
            sp.add_argument("--budget", type=int, default=budget)
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
        graph=True, pattern=True, budget=DEFAULT_NODE_BUDGET)
    add("color", "embedding-or-coloring certificate for --forest in --graph",
        graph=True, pattern=True, forest=True, budget=DEFAULT_COPY_LIMIT)
    add("ramsey", "exact vertex Ramsey decision", graph=True, pattern=True,
        r=True, budget=ramsey.DEFAULT_SEARCH_BUDGET)
    add("dense", "subset density of --graph with respect to --pattern",
        graph=True, pattern=True, eps=True, trials=1000, seed=True,
        extra=lambda sp: sp.add_argument("--mode", choices=("exact", "sampled"),
                                         default="exact"))
    add("construct", "sample a dense graph avoiding every --family member",
        pattern=True, family=True, eps=True, n=True, trials=1000, seed=True,
        budget=DEFAULT_COPY_LIMIT,
        extra=lambda sp: sp.add_argument("--deletion-multiplier", type=float,
                                         default=1.0))
    add("covers", "exhaustive trace-cover inequality report",
        graph=True, pattern=True)
    add("count", "copy-count distribution of --graph cores over sampled hosts",
        graph=True, pattern=True, eps=True, n=True, trials=100, seed=True,
        budget=DEFAULT_COPY_LIMIT, jobs=True)
    add("estimate-density", "hit fraction of uniform -n subsets",
        graph=True, pattern=True, n=True, trials=1000, seed=True, jobs=True)
    return p


def _blocks(args, graph) -> tuple[dict, str]:
    dec = block_decomposition(graph)
    result = {
        "blocks": dec.blocks,
        "cut_vertices": sorted(dec.cut_vertices),
        "tree": sorted([i, v] for i, v in dec.tree_edges),
        "isolated_vertices": sorted(dec.isolated_vertices),
    }
    return result, "ok"


def _degenerate(args, graph, pattern) -> tuple[dict, str]:
    check = is_degenerate(graph, pattern)
    result = {"degenerate": check.degenerate}
    if check.offending_block is not None:
        result["offending_block"] = check.offending_block
    return result, "ok"


def _forest(args, graph, pattern) -> tuple[dict, str]:
    dec = forest_decomposition(graph, pattern, node_budget=args.budget)
    if dec is None:
        return {"decomposition": None}, "ok"
    result = {
        "decomposition": {
            "size": dec.size,
            "minimal": dec.minimal,
            "pieces": dec.pieces,
            "attachments": dec.attachments,
        }
    }
    return result, "ok"


def _color(args, graph, pattern, forest) -> tuple[dict, str]:
    cert = certify.embed_or_color(graph, pattern, forest, copy_limit=args.budget)
    return cert.to_json_dict(), "unknown" if cert.branch == certify.UNKNOWN else "ok"


def _ramsey(args, graph, pattern) -> tuple[dict, str]:
    dec = ramsey.is_ramsey(graph, pattern, args.r, node_budget=args.budget)
    result = {
        "ramsey": dec.ramsey,
        "r": args.r,
        "nodes": dec.nodes,
        "witness_coloring": list(dec.witness.colors) if dec.witness else None,
    }
    return result, "unknown" if dec.status == ramsey.UNKNOWN else "ok"


def _dense(args, graph, pattern) -> tuple[ramsey.DensityResult, str]:
    return ramsey.is_eps_dense(
        graph, pattern, args.eps, mode=args.mode, trials=args.trials, seed=args.seed
    ), "ok"


def _construct(args, pattern, family) -> tuple[dict, str]:
    final, rep = construction.construct_family_free(
        args.n,
        pattern,
        family,
        args.eps,
        seed=args.seed,
        deletion_multiplier=args.deletion_multiplier,
        density_trials=args.trials,
        copy_limit=args.budget,
    )
    return {"graph6": write_graph6(final), "report": rep.to_json_dict()}, "ok"


def _covers(args, graph, pattern) -> tuple[construction.CoverReport, str]:
    return construction.verify_cover_inequality(graph, pattern), "ok"


def _count(args, graph, pattern) -> tuple[construction.CopyCountStats, str]:
    return construction.estimate_copy_count(
        graph, pattern, args.n, args.eps, trials=args.trials, seed=args.seed,
        jobs=args.jobs, copy_limit=args.budget,
    ), "ok"


def _estimate_density(args, graph, pattern) -> tuple[construction.DensityEstimate, str]:
    return construction.estimate_density(
        graph, pattern, args.n, trials=args.trials, seed=args.seed, jobs=args.jobs
    ), "ok"


# command -> (handler, arguments its document echoes in "inputs" beside
# the graph6 of its graphs)
_COMMANDS = {
    "blocks": (_blocks, ()),
    "degenerate": (_degenerate, ()),
    "forest": (_forest, ()),
    "color": (_color, ()),
    "ramsey": (_ramsey, ("r",)),
    "dense": (_dense, ("eps", "mode", "seed")),
    "construct": (_construct, ("n", "eps", "seed")),
    "covers": (_covers, ()),
    "count": (_count, ("n", "eps", "seed", "trials")),
    "estimate-density": (_estimate_density, ("n", "seed", "trials")),
}


def run(argv: list[str]) -> tuple[int, str]:
    """Parse argv, dispatch, and return (exit code, output document)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # our error() raises 1; --help exits 0
        return (exc.code if isinstance(exc.code, int) else 1), ""
    handler, echoed = _COMMANDS[args.command]
    try:
        if getattr(args, "budget", 0) < 0:
            raise ParamOutOfRange("--budget must be nonnegative")
        if getattr(args, "jobs", 1) < 1:
            raise ParamOutOfRange("--jobs must be at least 1")
        graphs = {}
        for name in ("graph", "pattern", "forest", "family"):
            spec = getattr(args, name, None)
            if isinstance(spec, list):
                graphs[name] = [_load_graph(s) for s in spec]
            elif spec is not None:
                graphs[name] = _load_graph(spec)
        inputs = {
            name: [write_graph6(f) for f in g] if isinstance(g, list) else write_graph6(g)
            for name, g in graphs.items()
        }
        inputs.update((name, getattr(args, name)) for name in echoed)
        try:
            result, status = handler(args, **graphs)
        except EnumerationTruncated as exc:
            result, status = {"truncated": str(exc)}, "unknown"
        doc = envelope(args.command, inputs, result, status)
        text = to_json(doc) if args.format == "json" else to_text(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (RamseykitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""
    return (2 if status == "unknown" else 0), text


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
