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
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Callable, Optional, Sequence

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


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str):
    text = _read_input(path)
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return parse_graph(text)


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
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _partition_text(p: Partition, as_json: bool) -> str:
    if as_json:
        return p.to_json()
    return "\n".join(" ".join(str(v) for v in block) for block in p) or ""


def _edges_text(g: DiGraph, eids: Sequence[int], as_json: bool) -> str:
    if as_json:
        return json.dumps(list(eids), separators=(",", ":"))
    return "\n".join(f"{e} {g.edges[e][0]} {g.edges[e][1]}" for e in eids)


def _guard_oracle(g) -> None:
    m = g.m if isinstance(g, (DiGraph, UGraph)) else len(g.directed) + len(g.undirected)
    if m > ORACLE_EDGE_LIMIT:
        raise PreconditionError(
            f"--check-oracle is limited to graphs with at most {ORACLE_EDGE_LIMIT} edges"
        )


def _check(name: str, fast, slow) -> None:
    if fast != slow:
        raise _OracleMismatch(f"{name}: fast path disagrees with the oracle")


def _option(name: str, convert: Callable, text: str):
    """``convert(text)``, with a ``ValueError`` reported as a usage error."""
    try:
        return convert(text)
    except ValueError:
        raise _UsageError(f"invalid {name} value {text!r}") from None


def _cmd_partition(args, compute: Callable, oracle: Optional[Callable]) -> None:
    g = _as_digraph(_load_graph(args.infile))
    part = compute(g)
    if args.check_oracle:
        if oracle is None:
            raise PreconditionError("no oracle available for this analysis")
        _guard_oracle(g)
        _check(args.command, part, oracle(g))
    _emit(args, _partition_text(part, args.json))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused:
    parsing leaves it unchanged.  Not built at import, which stays cheap."""
    parser = argparse.ArgumentParser(
        prog="twinscc",
        description="Twinless strong connectivity and orientation blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, oracle: bool = True) -> None:
        p.add_argument("--in", dest="infile", default="-", help="input file or - for stdin")
        p.add_argument("--out", dest="out", default="-", help="output file or - for stdout")
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        if oracle:
            p.add_argument(
                "--check-oracle",
                action="store_true",
                help="cross-check against the brute-force oracle (small graphs)",
            )

    for name in ("scc", "tscc", "strong-bridges", "twinless-strong-bridges"):
        common(sub.add_parser(name))
    p_2e = sub.add_parser("2escc")
    common(p_2e)
    p_2e.add_argument("--baseline", action="store_true", help="run the quadratic baseline instead")
    p_2et = sub.add_parser("2etscc")
    common(p_2et)
    p_2et.add_argument("--baseline", action="store_true", help="run the quadratic baseline instead")
    p_dom = sub.add_parser("dominators")
    common(p_dom)
    p_dom.add_argument("--source", type=int, default=0)
    for name in ("cactus", "spqr"):
        common(sub.add_parser(name), oracle=(name == "cactus"))
    common(sub.add_parser("aux"), oracle=False)
    p_mveb = sub.add_parser("mveb")
    common(p_mveb)
    p_mveb.add_argument("--marked", default="", help="comma-separated marked vertex ids")
    p_orient = sub.add_parser("orient-blocks")
    common(p_orient)
    p_res = sub.add_parser("resilient-blocks")
    common(p_res)
    p_res.add_argument("--fail", choices=("directed", "undirected", "both"), default="both")
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
    cmd = args.command
    if cmd == "scc":
        _cmd_partition(args, lambda g: scc(g).partition, oracles.oracle_scc)
    elif cmd == "tscc":
        _cmd_partition(args, tscc, oracles.oracle_tscc_definitional)
    elif cmd == "2escc":
        compute = two_escc_baseline if args.baseline else two_escc
        _cmd_partition(args, compute, oracles.oracle_2escc)
    elif cmd == "2etscc":
        compute = two_etscc_baseline if args.baseline else two_etscc
        _cmd_partition(args, compute, oracles.oracle_2etscc)
    elif cmd == "strong-bridges":
        g = _as_digraph(_load_graph(args.infile))
        eids = strong_bridges(g)
        if args.check_oracle:
            _guard_oracle(g)
            _check(cmd, tuple(eids), oracles.oracle_strong_bridges(g))
        _emit(args, _edges_text(g, eids, args.json))
    elif cmd == "twinless-strong-bridges":
        g = _as_digraph(_load_graph(args.infile))
        eids = twinless_strong_bridges(g)
        if args.check_oracle:
            _guard_oracle(g)
            _check(cmd, tuple(eids), oracles.oracle_twinless_strong_bridges(g))
        _emit(args, _edges_text(g, eids, args.json))
    elif cmd == "dominators":
        g = _as_digraph(_load_graph(args.infile))
        bd = flow_bridges(g, args.source)
        dt = bd.dom
        lines = [f"idom {v} {dt.idom[v]}" for v in range(g.n) if v != args.source]
        lines += [f"bridge {e} {g.edges[e][0]} {g.edges[e][1]}" for e in bd.flow_bridges]
        if args.check_oracle:
            _guard_oracle(g)
            _check(cmd, {v: dt.idom[v] for v in range(g.n) if v != args.source},
                   oracles.oracle_dominators(g, args.source))
            _check(cmd, tuple(bd.flow_bridges), oracles.oracle_flow_bridges(g, args.source))
        _emit(args, "\n".join(lines))
    elif cmd == "cactus":
        u = _as_ugraph(_load_graph(args.infile))
        cac = three_ecc_cactus(u)
        if args.check_oracle:
            _guard_oracle(u)
            _check(cmd, cac.classes, oracles.oracle_3ecc(u))
        if args.json:
            _emit(args, json.dumps(
                {"phi": list(cac.phi),
                 "edges": [list(e) for e in cac.edges],
                 "cycles": [list(c) for c in cac.cycles]},
                separators=(",", ":")))
        else:
            lines = [f"node {i}: " + " ".join(map(str, blk)) for i, blk in enumerate(cac.classes)]
            lines += [
                "cycle %d: %s" % (c, " ".join(f"({a},{b})#{o}" for a, b, _, o in
                                              (cac.edges[i] for i in cyc)))
                for c, cyc in enumerate(cac.cycles)
            ]
            _emit(args, "\n".join(lines))
    elif cmd == "spqr":
        u = _as_ugraph(_load_graph(args.infile))
        tree = spqr(u)
        if args.json:
            _emit(args, json.dumps(
                [{"kind": nd.kind, "vertices": len(nd.vertices()), "edges": len(nd.edges)}
                 for nd in tree.nodes], separators=(",", ":")))
        else:
            _emit(args, "\n".join(
                f"{nd.kind} vertices={len(nd.vertices())} edges={len(nd.edges)}"
                for nd in tree.nodes))
    elif cmd == "aux":
        g = _as_digraph(_load_graph(args.infile))
        lines = []
        comps = scc(g).components
        for comp, (sub_g, verts, _) in zip(comps, g.induced_blocks(comps)):
            if len(comp) == 1:
                lines.append(f"member H_ss r={comp[0]} r2={comp[0]} vertices={comp[0]}:oo edges=")
                continue
            for h in build_final_family(sub_g, 0):
                def role(v: int) -> str:
                    if v in h.attached:
                        return "att"
                    first = "o" if v in h.ordinary1 else "a"
                    second = "o" if v in h.ordinary2 else "a"
                    return first + second

                lines.append(
                    "member {kind} r={r} r2={r2} vertices={vs} edges={es}".format(
                        kind=h.kind,
                        r=verts[h.r],
                        r2=verts[h.r2],
                        vs=",".join(f"{verts[v]}:{role(v)}" for v in h.vertices),
                        es=";".join(f"{verts[u]}>{verts[v]}" for u, v in h.edges),
                    )
                )
        _emit(args, "\n".join(lines))
    elif cmd == "mveb":
        u = _as_ugraph(_load_graph(args.infile))
        marked = _option(
            "--marked", lambda t: [int(x) for x in t.split(",") if x.strip()], args.marked
        )
        part = marked_veb(u, marked)
        if args.check_oracle:
            _guard_oracle(u)
            _check(cmd, part, oracles.oracle_mveb(u, marked))
        _emit(args, _partition_text(part, args.json))
    elif cmd == "orient-blocks":
        g = _as_mixed(_load_graph(args.infile))
        part = strongly_orientable_blocks(g)
        if args.check_oracle:
            _guard_oracle(g)
            _check(cmd, part, oracles.oracle_orientable_blocks(g))
        _emit(args, _partition_text(part, args.json))
    elif cmd == "resilient-blocks":
        g = _as_mixed(_load_graph(args.infile))
        part = edge_resilient_blocks(g, fail=args.fail)
        if args.check_oracle:
            _guard_oracle(g)
            _check(cmd, part, oracles.oracle_edge_resilient(g, fail=args.fail))
        _emit(args, _partition_text(part, args.json))
    elif cmd == "gen":
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
    else:  # pragma: no cover
        raise PreconditionError(f"unknown command {cmd}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
