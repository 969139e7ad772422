"""Orientation blocks of mixed graphs.

Strongly orientable blocks are computed without a reduction: one SCC pass
on the distinct arcs between the classes that undirected edges join, and
one 2ecc pass on the undirected edges between the classes that directed
edges inside an SCC join (see ``strongly_orientable_blocks``).  That is
what the TSCCs of the split-and-twin reduction below give on the original
vertices; ``split_and_twin`` stays as that reference.

Splitting a directed edge (x, y) replaces it by (x, z), (z, y) through a
fresh auxiliary vertex.  An undirected edge {x, y} is replaced either by a
twin pair (strongly orientable blocks) or by the seven-edge gadget
(x,z),(z,x),(z,u),(u,v),(v,y),(y,u),(v,z) whose critical edge (u, v)
simulates deleting {x, y}; any traversal of the gadget that avoids the
critical edge must use the twin pair (x,z),(z,x), which ties orientations
of {x, y} to twinless connectivity.  The gadget construction uses the
stored endpoint order of the undirected edge; the resulting partition does
not depend on that order.  Edge-resilient blocks are the 2eTSCCs of this
paper's reduction on the original vertices; ``edge_resilient_blocks``
computes them on a smaller digraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DiGraph, GraphError, MixedGraph, Partition, UGraph, _roots
from .strong import scc
from .undirected import bridges_2ecc
from .pipeline import two_etscc

@dataclass(frozen=True)
class ReducedGraph:
    """Digraph produced by a reduction of a mixed graph.

    ``ordinary`` is the number of original vertices (the reduced graph
    reuses their ids 0..ordinary-1; auxiliary vertices follow).  The
    halves of the split directed edges come first, two per edge in input
    order, with ids ``split_edges``.  ``critical_edges[i]`` is the reduced
    edge id of the critical gadget edge of undirected edge i (gadget
    reductions only).
    """

    graph: DiGraph
    ordinary: int
    split_edges: tuple[int, ...]
    critical_edges: tuple[int, ...]

    def ordinary_restriction(self, part: Partition) -> Partition:
        return part.restricted(range(self.ordinary))


def _split(g: MixedGraph) -> list[tuple[int, int]]:
    """(x, z), (z, y) per directed edge (x, y) of ``g``, through a fresh
    vertex z = g.n + its edge id."""
    edges = []
    for z, (x, y) in enumerate(g.directed, g.n):
        edges += ((x, z), (z, y))
    return edges


def split_and_twin(g: MixedGraph) -> ReducedGraph:
    """Split every directed edge; replace undirected edges by twin pairs."""
    edges = _split(g)
    split = tuple(range(len(edges)))
    for x, y in g.undirected:
        edges += ((x, y), (y, x))
    # endpoints from the checked ``g`` and fresh ids
    return ReducedGraph(
        DiGraph._trusted(g.n + len(g.directed), tuple(edges)), g.n, split, ()
    )


def split_and_gadget(g: MixedGraph) -> ReducedGraph:
    """Split every directed edge; replace undirected edges by gadgets."""
    edges = _split(g)
    split = tuple(range(len(edges)))
    critical = []
    nxt = g.n + len(g.directed)
    for x, y in g.undirected:
        z, u, v = nxt, nxt + 1, nxt + 2
        nxt += 3
        critical.append(len(edges) + 3)  # (u, v)
        edges += ((x, z), (z, x), (z, u), (u, v), (v, y), (y, u), (v, z))
    # endpoints from the checked ``g`` and fresh ids
    return ReducedGraph(DiGraph._trusted(nxt, tuple(edges)), g.n, split, tuple(critical))


def _classes(n: int, pairs) -> tuple[list[int], int]:
    """The class of each vertex when ``pairs`` join their ends, numbered
    0, 1, ... by smallest member, and the number of classes."""
    dense: dict[int, int] = {}
    return [dense.setdefault(r, len(dense)) for r in _roots(n, pairs)], len(dense)


def strongly_orientable_blocks(g: MixedGraph) -> Partition:
    """Maximal vertex sets strongly connected under some orientation.

    Computed on ``g`` itself, without a reduction.  Let D be the directed
    edges plus both orientations of every undirected edge, and H the
    undirected multigraph of all edges of ``g`` whose ends share an SCC
    of D (its self-loops are ignored).  The blocks are the 2ecc blocks of
    H: a mixed multigraph is strongly orientable iff it is strongly
    connected and no undirected edge is a bridge (Boesch & Tindell, 1980),
    and a directed edge inside an SCC is never a bridge of H.  This is
    what the TSCCs of ``split_and_twin`` give on the original vertices.
    The SCCs of that reduction there are those of D.  Each SCC's
    underlying simple graph is a subdivision of H's part in it: a split
    directed edge is a path through a vertex of degree 2, and a twin pair
    collapses into one edge (a split self-loop only adds a pendant
    vertex).  A subdivision keeps the 2-edge-connected classes of the
    original vertices.  Parallel undirected copies, which can be oriented
    oppositely, are parallel edges of H and so never bridges.

    Neither D nor H is built; each pass runs on a contracted graph.
    (1) Each undirected edge is a 2-cycle of D, so each class of vertices
    joined by undirected edges is strongly connected in D.  Contracting a
    strongly connected set keeps the SCCs, so the one ``scc`` pass runs on
    the classes and the distinct arcs that directed edges give between
    two of them: loops and parallel arcs never change the SCCs.  Every
    undirected edge then lies inside an SCC.  (2) A directed edge (x, y)
    whose ends share an SCC has a simple path from y to x in D, which is
    a path of H avoiding (x, y): the edge lies on a cycle of H.
    Contracting an edge e on a cycle keeps the bridges: a cycle of H/e
    through an edge f other than e lifts to a cycle of H through f, or to
    a path between e's ends that closes one with e.  The 2ecc classes are
    the components without the bridges, so they lift too.  After
    contracting every such edge, H is the undirected edges between the
    new classes, loops dropped.
    """
    ucls, k = _classes(g.n, g.undirected)
    arcs = {(ucls[x], ucls[y]) for x, y in g.directed}
    comp = scc(DiGraph._trusted(k, tuple(a for a in arcs if a[0] != a[1]))).comp_of
    inner = (e for e in g.directed if comp[ucls[e[0]]] == comp[ucls[e[1]]])
    cls, k = _classes(g.n, inner)
    h = tuple((cls[x], cls[y]) for x, y in g.undirected if cls[x] != cls[y])
    block = bridges_2ecc(UGraph._trusted(k, h))[1].block_index()
    return Partition._grouped(enumerate(block[c] for c in cls))


def _resilient_reduction(g: MixedGraph, fail: str) -> DiGraph:
    """The digraph that ``edge_resilient_blocks`` analyses for ``fail``."""
    copies = 2 if fail == "undirected" else 1  # directed edges that may not fail
    directed, edges, nxt = set(g.directed), [], g.n
    for x, y in g.directed:
        if (y, x) not in directed:
            edges += ((x, y),) * copies
        elif x != y or fail != "undirected":  # a twin, or a loop that may fail
            edges += ((x, nxt), (nxt, y)) * copies
            nxt += 1
    for x, y in g.undirected:
        z, u, v = nxt, nxt + 1, nxt + 2
        if fail == "directed":  # the path x, z, y in place of the gadget
            edges += ((x, z), (z, x), (z, y), (y, z)) * 2
            nxt += 1
        else:
            edges += ((x, z), (z, x), (z, u), (u, v), (v, y), (y, u), (v, z))
            nxt += 3
    # endpoints from the checked ``g`` and fresh ids
    return DiGraph._trusted(nxt, tuple(edges))


def edge_resilient_blocks(g: MixedGraph, fail: str = "both") -> Partition:
    """Maximal vertex sets C such that for every failing edge e some
    orientation of g minus e strongly connects C.

    ``fail`` restricts which edges may fail ("directed", "undirected", or
    "both").  Each mode is one 2eTSCC computation on a digraph with the
    2eTSCCs, on the original vertices, of the gadget reduction with its
    edges that may not fail doubled.  The 2eTSCCs refine the TSCCs by those
    of the graph minus f over all edges f; the TSCCs are the 2ecc classes
    of the simple underlying graph of each SCC (``strong``).  Hence:
    (a) A doubled edge never matters: its copy is no twin and collapses in
    that graph, and deleting one copy leaves the other.
    (b) A directed (x, y) with no directed (y, x) (a loop is its own
    reverse) is no twin, as every gadget edge has a fresh end, so it stays
    unsplit.  Inside an SCC it closes a cycle with a path from y to x, as
    the split path x-z-y does: neither is a bridge, so the 2ecc classes
    stay, also after deleting it, a half, or any other edge.
    (c) An undirected edge whose reduced edges never fail may be the path
    x, w, y with both orientations of each edge, doubled.  Like the gadget
    (the edge x-z on a 2-edge-connected piece z, u, v, y), it joins x and
    y both ways and acts as the edge x-y in the simple underlying graph.  A
    fresh w per edge keeps parallel undirected edges from becoming twins.
    (d) A non-critical gadget edge that may not fail need not be doubled
    when the critical edge (u, v) of its gadget may fail.  Deleting one
    only fixes the orientation of {x, y}: without (x, z), (z, u) or (v, y)
    the gadget joins y to x only, and without (z, x), (y, u) or (v, z) it
    joins x to y only.  Deleting (u, v) leaves u without an out-edge and v
    without an in-edge, and z hangs on x by a twin pair, which splits no
    2ecc class: on the original vertices it acts as deleting the whole
    gadget.  The graph minus any other gadget edge contains that graph,
    and adding edges never splits a TSCC, so fixing an orientation refines
    no more than deleting (u, v) does.
    "both" uses (b); "directed" uses (b) and (c); "undirected" uses (a) and
    (b) on doubled directed edges, (d) on the plain gadget, and drops
    directed loops, whose doubled split only hangs a fresh vertex on x.
    """
    if fail not in ("both", "directed", "undirected"):
        raise GraphError(f"unknown failure set {fail!r}")
    return two_etscc(_resilient_reduction(g, fail)).restricted(range(g.n))
