"""Orientation blocks of mixed graphs via reduction to (2-edge) twinless
strong connectivity.

Splitting a directed edge (x, y) replaces it by (x, z), (z, y) through a
fresh auxiliary vertex.  An undirected edge {x, y} is replaced either by a
twin pair (strongly orientable blocks) or by the seven-edge gadget
(x,z),(z,x),(z,u),(u,v),(v,y),(y,u),(v,z) whose critical edge (u, v)
simulates deleting {x, y}; any traversal of the gadget that avoids the
critical edge must use the twin pair (x,z),(z,x), which ties orientations
of {x, y} to twinless connectivity.  The gadget construction uses the
stored endpoint order of the undirected edge; the resulting partition does
not depend on that order.  Edge-resilient blocks are one 2eTSCC
computation on the gadget reduction for every failure set; the restricted
sets double the edges that may not fail (see ``edge_resilient_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DiGraph, GraphError, MixedGraph, Partition
from .strong import tscc
from .pipeline import two_etscc

GADGET_EDGE_NAMES = ("xz", "zx", "zu", "uv", "vy", "yu", "vz")


@dataclass(frozen=True)
class ReducedGraph:
    """Digraph produced by a reduction, with provenance back to the input.

    ``ordinary`` is the number of original vertices (the reduced graph
    reuses their ids 0..ordinary-1; auxiliary vertices follow).  Each entry
    of ``edge_source`` describes a reduced edge: ("split", directed edge id,
    half), ("twin", undirected edge id, direction), or ("gadget",
    undirected edge id, name).  ``critical_edges[i]`` is the reduced edge id
    of the critical gadget edge of undirected edge i (gadget reductions
    only).
    """

    graph: DiGraph
    ordinary: int
    edge_source: tuple[tuple[str, int, object], ...]
    split_edges: tuple[int, ...]
    critical_edges: tuple[int, ...]

    def ordinary_restriction(self, part: Partition) -> Partition:
        return part.restricted(range(self.ordinary))


def split_and_twin(g: MixedGraph) -> ReducedGraph:
    """Split every directed edge; replace undirected edges by twin pairs."""
    edges: list[tuple[int, int]] = []
    source: list[tuple[str, int, object]] = []
    split: list[int] = []
    nxt = g.n
    for i, (x, y) in enumerate(g.directed):
        z = nxt
        nxt += 1
        split.append(len(edges))
        edges.append((x, z))
        source.append(("split", i, 1))
        split.append(len(edges))
        edges.append((z, y))
        source.append(("split", i, 2))
    for i, (x, y) in enumerate(g.undirected):
        edges.append((x, y))
        source.append(("twin", i, "fwd"))
        edges.append((y, x))
        source.append(("twin", i, "rev"))
    return ReducedGraph(
        DiGraph(nxt, edges), g.n, tuple(source), tuple(split), ()
    )


def split_and_gadget(g: MixedGraph) -> ReducedGraph:
    """Split every directed edge; replace undirected edges by gadgets."""
    edges: list[tuple[int, int]] = []
    source: list[tuple[str, int, object]] = []
    split: list[int] = []
    critical: list[int] = []
    nxt = g.n
    for i, (x, y) in enumerate(g.directed):
        z = nxt
        nxt += 1
        split.append(len(edges))
        edges.append((x, z))
        source.append(("split", i, 1))
        split.append(len(edges))
        edges.append((z, y))
        source.append(("split", i, 2))
    for i, (x, y) in enumerate(g.undirected):
        z, u, v = nxt, nxt + 1, nxt + 2
        nxt += 3
        ends = {
            "xz": (x, z),
            "zx": (z, x),
            "zu": (z, u),
            "uv": (u, v),
            "vy": (v, y),
            "yu": (y, u),
            "vz": (v, z),
        }
        for name in GADGET_EDGE_NAMES:
            if name == "uv":
                critical.append(len(edges))
            edges.append(ends[name])
            source.append(("gadget", i, name))
    return ReducedGraph(
        DiGraph(nxt, edges), g.n, tuple(source), tuple(split), tuple(critical)
    )


def strongly_orientable_blocks(g: MixedGraph) -> Partition:
    """Maximal vertex sets strongly connected under some orientation.

    Parallel undirected copies of the same pair can be oriented oppositely,
    which the endpoint-based twin machinery cannot see; a parallel class of
    two or more copies is therefore orientation-equivalent to the two
    directed edges (x, y), (y, x) and is normalized to them (the directed
    split keeps them independent) before the twin reduction runs.
    """
    counts: dict[tuple[int, int], int] = {}
    for a, b in g.undirected:
        key = (a, b) if a < b else (b, a)
        counts[key] = counts.get(key, 0) + 1
    directed = list(g.directed)
    undirected = []
    for a, b in g.undirected:
        key = (a, b) if a < b else (b, a)
        if counts[key] == 1:
            undirected.append((a, b))
    for (a, b), c in counts.items():
        if c >= 2:
            directed.append((a, b))
            directed.append((b, a))
    red = split_and_twin(MixedGraph(g.n, directed, undirected))
    return Partition(
        [b for blk in tscc(red.graph) if (b := [v for v in blk if v < g.n])]
    )


def edge_resilient_blocks(g: MixedGraph, fail: str = "both") -> Partition:
    """Maximal vertex sets C such that for every failing edge e some
    orientation of g minus e strongly connects C.

    ``fail`` restricts which edges may fail ("directed", "undirected", or
    "both").  Every mode is one 2eTSCC computation on the gadget reduction,
    restricted to the ordinary vertices.  In the restricted modes each
    reduced edge that may not fail (gadget edges for "directed"; split
    halves and non-critical gadget edges for "undirected") first gets a
    parallel copy.  A copy is never a twin and no twinless spanning
    subgraph needs both, so the TSCCs stay those of the reduced graph;
    deleting one copy of a doubled edge changes no TSCC, and deleting a
    failing edge f leaves the TSCCs of the reduced graph minus f.  The
    2eTSCCs are therefore the TSCCs refined by those of the reduced graph
    minus f over the failing edges f only.
    """
    if fail not in ("both", "directed", "undirected"):
        raise GraphError(f"unknown failure set {fail!r}")
    red = split_and_gadget(g)
    d = red.graph
    if fail != "both":
        failing = set(red.split_edges if fail == "directed" else red.critical_edges)
        copies = tuple(e for i, e in enumerate(d.edges) if i not in failing)
        d = DiGraph._trusted(d.n, d.edges + copies)
    return red.ordinary_restriction(two_etscc(d))
