"""Command-line interface: one subcommand per analysis, plus a generator
and oracle cross-checks.

Exit codes: 0 success, 2 usage (also a bad option value or a path that
cannot be opened), 3 parse error (also undecodable input), 4 precondition
violation, 5 oracle mismatch, 6 internal error (an assertion or the
recursion limit failed inside twinscc).  Apart from argparse's usage
message, each failure is one stderr line, not a traceback.
Output is byte-stable for a fixed input and seed: plain text prints one
block per line (space-separated vertex ids), --json prints the canonical
JSON forms.

Each analysis is one row of ``_ANALYSES``; the parser and the one dispatch
path are both built from it.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from .graph import (
    DiGraph,
    GraphError,
    MixedGraph,
    ParseError,
    Partition,
    PreconditionError,
    UGraph,
    graph_from_json,
    parse_graph,
    render_graph,
    underlying,
)
from .undirected import three_ecc_cactus
from .dominators import flow_bridges, strong_bridges
from .strong import scc, tscc, twinless_strong_bridges
from .auxiliary import build_final_family
from .spqr import marked_veb, spqr
from .pipeline import two_escc, two_escc_baseline, two_etscc, two_etscc_baseline
from .orientation import edge_resilient_blocks, strongly_orientable_blocks
from . import oracles

ORACLE_EDGE_LIMIT = 512


class _OracleMismatch(Exception):
    pass


class _UsageError(Exception):
    pass


def _load_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return graph_from_json(text) if text.lstrip().startswith("{") else parse_graph(text)


def _as_digraph(g) -> DiGraph:
    if isinstance(g, DiGraph):
        return g
    raise PreconditionError("this analysis needs a purely directed graph")


def _as_mixed(g) -> MixedGraph:
    if isinstance(g, MixedGraph):
        return g
    return MixedGraph(g.n, g.edges, [])


def _as_ugraph(g) -> UGraph:
    """Undirected multigraph view: U-lines of a mixed graph, or the simple
    underlying graph of a digraph."""
    if isinstance(g, MixedGraph):
        if g.directed:
            raise PreconditionError("this analysis needs an undirected graph")
        return UGraph(g.n, g.undirected)
    return underlying(g)


def _emit(args, text: str) -> None:
    text += "" if text.endswith("\n") else "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)


def _guard_oracle(g) -> None:
    m = g.m if isinstance(g, (DiGraph, UGraph)) else len(g.directed) + len(g.undirected)
    if m > ORACLE_EDGE_LIMIT:
        raise PreconditionError(
            f"--check-oracle is limited to graphs with at most {ORACLE_EDGE_LIMIT} edges"
        )


def _marked(args) -> list[int]:
    """The ``--marked`` ids; a bad one is a usage error."""
    try:
        return [int(x) for x in args.marked.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"invalid --marked value {args.marked!r}") from None


# renderers: (view, result, args) -> output text


def _partition_text(g, p: Partition, args) -> str:
    if args.json:
        return p.to_json()
    return "\n".join(" ".join(str(v) for v in block) for block in p)


def _edges_text(g: DiGraph, eids: Sequence[int], args) -> str:
    if args.json:
        return json.dumps(list(eids), separators=(",", ":"))
    return "\n".join(f"{e} {g.edges[e][0]} {g.edges[e][1]}" for e in eids)


def _idoms(g: DiGraph, bd, s: int) -> dict[int, int]:
    return {v: bd.dom.idom[v] for v in range(g.n) if v != s}


def _dominators_text(g: DiGraph, bd, args) -> str:
    lines = [f"idom {v} {d}" for v, d in _idoms(g, bd, args.source).items()]
    lines += [f"bridge {e} {g.edges[e][0]} {g.edges[e][1]}" for e in bd.flow_bridges]
    return "\n".join(lines)


def _cactus_text(u: UGraph, cac, args) -> str:
    if args.json:
        return json.dumps({"phi": list(cac.phi), "edges": [list(e) for e in cac.edges],
                           "cycles": [list(c) for c in cac.cycles]}, separators=(",", ":"))
    lines = [f"node {i}: " + " ".join(map(str, blk)) for i, blk in enumerate(cac.classes)]
    for c, cyc in enumerate(cac.cycles):
        arcs = (cac.edges[i] for i in cyc)
        lines.append(f"cycle {c}: " + " ".join(f"({a},{b})#{o}" for a, b, _, o in arcs))
    return "\n".join(lines)


def _spqr_text(u: UGraph, tree, args) -> str:
    sizes = [(nd.kind, len(nd.vertices()), len(nd.edges)) for nd in tree.nodes]
    if args.json:
        return json.dumps([{"kind": k, "vertices": nv, "edges": ne} for k, nv, ne in sizes],
                          separators=(",", ":"))
    return "\n".join(f"{k} vertices={nv} edges={ne}" for k, nv, ne in sizes)


def _aux_family(g: DiGraph, args):
    """Each SCC's final family, member by member, with the SCC's ids."""
    comps = scc(g).components
    return ((verts, h) for sub_g, verts, _ in g.induced_blocks(comps)
            for h in build_final_family(sub_g, 0))


def _aux_text(g: DiGraph, family, args) -> str:
    def role(h, v: int) -> str:
        if v in h.attached:
            return "att"
        return ("o" if v in h.ordinary1 else "a") + ("o" if v in h.ordinary2 else "a")

    return "\n".join(
        f"member {h.kind} r={verts[h.r]} r2={verts[h.r2]} vertices="
        + ",".join(f"{verts[v]}:{role(h, v)}" for v in h.vertices)
        + " edges=" + ";".join(f"{verts[u]}>{verts[v]}" for u, v in h.edges)
        for verts, h in family)


class _Analysis(NamedTuple):
    """One subcommand.  Each callable looks its analysis and oracle up by
    name when called, so a name replaced in this module or in ``oracles``
    is the one that runs."""

    view: Callable  # the loaded graph -> the graph the analysis reads
    run: Callable  # (g, args) -> result
    agrees: Optional[Callable]  # (g, result, args) -> matches the oracle; None: no oracle
    render: Callable = _partition_text  # (g, result, args) -> output text
    options: tuple = ()  # (flag, add_argument keywords) pairs


_BASELINE = (
    ("--baseline", {"action": "store_true", "help": "run the quadratic baseline instead"}),)

# subcommand -> analysis, in the parser's order
_ANALYSES = {
    "scc": _Analysis(
        _as_digraph, lambda g, a: scc(g).partition, lambda g, p, a: p == oracles.oracle_scc(g)),
    "tscc": _Analysis(
        _as_digraph, lambda g, a: tscc(g),
        lambda g, p, a: p == oracles.oracle_tscc_definitional(g)),
    "strong-bridges": _Analysis(
        _as_digraph, lambda g, a: strong_bridges(g),
        lambda g, es, a: tuple(es) == oracles.oracle_strong_bridges(g), _edges_text),
    "twinless-strong-bridges": _Analysis(
        _as_digraph, lambda g, a: twinless_strong_bridges(g),
        lambda g, es, a: tuple(es) == oracles.oracle_twinless_strong_bridges(g), _edges_text),
    "2escc": _Analysis(
        _as_digraph, lambda g, a: (two_escc_baseline if a.baseline else two_escc)(g),
        lambda g, p, a: p == oracles.oracle_2escc(g), options=_BASELINE),
    "2etscc": _Analysis(
        _as_digraph, lambda g, a: (two_etscc_baseline if a.baseline else two_etscc)(g),
        lambda g, p, a: p == oracles.oracle_2etscc(g), options=_BASELINE),
    "dominators": _Analysis(
        _as_digraph, lambda g, a: flow_bridges(g, a.source),
        lambda g, bd, a: (_idoms(g, bd, a.source), tuple(bd.flow_bridges)) == (
            oracles.oracle_dominators(g, a.source), oracles.oracle_flow_bridges(g, a.source)),
        _dominators_text, (("--source", {"type": int, "default": 0}),)),
    "cactus": _Analysis(
        _as_ugraph, lambda u, a: three_ecc_cactus(u),
        lambda u, cac, a: cac.classes == oracles.oracle_3ecc(u), _cactus_text),
    "spqr": _Analysis(_as_ugraph, lambda u, a: spqr(u), None, _spqr_text),
    "aux": _Analysis(_as_digraph, _aux_family, None, _aux_text),
    "mveb": _Analysis(
        _as_ugraph, lambda u, a: marked_veb(u, _marked(a)),
        lambda u, p, a: p == oracles.oracle_mveb(u, _marked(a)),
        options=(("--marked", {"default": "", "help": "comma-separated marked vertex ids"}),)),
    "orient-blocks": _Analysis(
        _as_mixed, lambda g, a: strongly_orientable_blocks(g),
        lambda g, p, a: p == oracles.oracle_orientable_blocks(g)),
    "resilient-blocks": _Analysis(
        _as_mixed, lambda g, a: edge_resilient_blocks(g, fail=a.fail),
        lambda g, p, a: p == oracles.oracle_edge_resilient(g, fail=a.fail),
        options=(("--fail", {"choices": ("directed", "undirected", "both"), "default": "both"}),)),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused:
    parsing leaves it unchanged.  Not built at import, which stays cheap."""
    parser = argparse.ArgumentParser(
        prog="twinscc",
        description="Twinless strong connectivity and orientation blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, analysis in _ANALYSES.items():
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", default="-", help="input file or - for stdin")
        p.add_argument("--out", dest="out", default="-", help="output file or - for stdout")
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        if analysis.agrees:
            p.add_argument("--check-oracle", action="store_true",
                           help="cross-check against the brute-force oracle (small graphs)")
        for flag, kwargs in analysis.options:
            p.add_argument(flag, **kwargs)
    p_gen = sub.add_parser("gen")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--model", choices=("er", "bridgey", "mixed"), default="er")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", dest="out", default="-")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2

    try:
        return _dispatch(args)
    except (_UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except _OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 5
    except (PreconditionError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RecursionError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 6


def _dispatch(args) -> int:
    if args.command == "gen":
        if args.n < 0 or args.m < 0:
            raise _UsageError("--n and --m must be nonnegative")
        if args.m > 0 and args.n < 2:
            raise _UsageError(f"--m {args.m} needs --n 2 or more: no self-loops are made")
        rng = random.Random(args.seed)
        if args.model == "mixed":
            g = oracles.gen_mixed(args.n, args.m - args.m // 2, args.m // 2, rng)
        else:
            g = oracles.gen_digraph(args.n, args.m, rng, args.model)
        _emit(args, render_graph(g).rstrip("\n"))
        return 0
    analysis = _ANALYSES[args.command]
    g = analysis.view(_load_graph(args.infile))
    result = analysis.run(g, args)
    if analysis.agrees and args.check_oracle:
        _guard_oracle(g)
        if not analysis.agrees(g, result, args):
            raise _OracleMismatch(f"{args.command}: fast path disagrees with the oracle")
    _emit(args, analysis.render(g, result, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
