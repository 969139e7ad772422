"""2-edge strongly connected and 2-edge twinless strongly connected
components.

The twinless SCCs are processed independently (vertices in different TSCCs
are never 2-edge twinless strongly connected).  Per twinless SCC, the
result is the mutual refinement of two partitions:

* the partition due to twinless strong bridges that are not strong
  bridges, read off the cactus of the 3ecc of the underlying graph by
  deleting, per qualifying edge, the whole cactus cycle through it; and
* the partition due to strong bridges, assembled from the final auxiliary
  family: per member, contract every X_e in the underlying graph into a
  marked vertex and compute marked vertex-edge blocks.  Only members with
  at least two oo vertices can split, so only they are built; every other
  piece of the family is kept as its bare oo-set.  A TSCC without strong
  bridges skips this partition altogether.  An analysed member's strong
  bridges come from its in- and out-degrees, with no flow-graph pass.

Each fact is computed once per TSCC: ``tscc`` hands over the induced
subgraph, the CSR of its simple underlying graph and, for a TSCC that is
its whole SCC, its 2ecc sweep's DFS tree, which the 3ecc sweep reuses.
One forward flow-graph pass from source 0 feeds both the TSCC's strong
bridges and the auxiliary family.  The CSR serves only the cactus, so
``two_etscc`` builds that first and drops the CSR before the passes.
``two_escc`` runs the same passes per SCC and builds no family for an SCC
without strong bridges: it is one 2eSCC.

A quadratic baseline (refine by the TSCCs of g minus e over every twinless
strong bridge e) is kept for benchmarking and as a mid-level oracle.
"""

from __future__ import annotations

import time
from typing import Optional

from .graph import (
    DiGraph,
    Partition,
    PreconditionError,
    UGraph,
    _roots,
    _underlying_csr,
)
from .undirected import Cactus, _between, _bridges_2ecc, _cactus, _three_ecc_classes
from .dominators import _find_bridges, _strongly_connected, flow_bridges, strong_bridges
from .strong import (
    _scc_subgraphs,
    _tscc_graphs,
    scc,
    tscc,
    twinless_strong_bridges,
)
from .auxiliary import (
    AuxGraph,
    build_first_level,
    classify_xe,
    second_level,
)
from .spqr import marked_veb


def partition_et_minus_es(g: DiGraph) -> Partition:
    """Partition of the 2eTSCCs due to twinless strong bridges that are not
    strong bridges.  Requires a twinless strongly connected input."""
    csr = _underlying_csr(g)
    bridges, _, dfs = _bridges_2ecc(g.n, csr)
    if bridges or not _strongly_connected(g):
        raise PreconditionError("input must be twinless strongly connected")
    es = set(strong_bridges(g))
    return _cut_cycle_partition(_cactus_lone_origins(g.n, csr, dfs), es)


def _cactus_lone_origins(n: int, csr, dfs) -> Cactus:
    """The 3ecc cactus of a TSCC from its underlying CSR (``dfs`` as in
    ``strong._tscc_graphs``).  An edge's origin is its CSR id: its directed
    edge if at least 0, negative if twins or parallels collapsed into it."""
    return _cactus(_three_ecc_classes(n, *csr, dfs), lambda phi: _between(*csr, phi))


def _cut_cycle_partition(cactus: Cactus, es) -> Partition:
    """Delete each cactus cycle through an edge whose lone origin is a
    twinless strong bridge but not in the strong bridges ``es``; the
    pieces left, mapped back through ``phi``, partition the vertices."""
    drop = {c for _, _, c, o in cactus.edges if o >= 0 and o not in es}
    joins = ((a, b) for a, b, cycle_id, _ in cactus.edges if cycle_id not in drop)
    root = _roots(cactus.node_count, joins)
    return Partition._grouped(enumerate(root[c] for c in cactus.phi))


def partition_strong_bridges(h: AuxGraph) -> Partition:
    """Partition of the oo vertices of the final member h due to its
    strong bridges.

    Deleting an edge (x, y) of h leaves one SCC plus singletons, so it is
    a strong bridge iff it is x's only out-edge or y's only in-edge,
    parallel copies counted.  The pipeline calls this only on members
    with at least two oo vertices; the others cannot split.

    Each X_e is contracted into its union-find root, in the ids of
    ``h.digraph()``.  A vertex absorbed into a root is left isolated; no
    X_e holds an oo vertex, so the filter on ``h.oo`` drops it.
    """
    d, local, back = h.digraph()
    sbs = _lone_edges(d)
    if not sbs:
        return Partition._trusted([tuple(sorted(h.oo))])
    joins, xe_verts = [], set()
    for e in sbs:
        members = sorted(local[v] for v in classify_xe(h, e).members)
        xe_verts.update(members)
        joins += ((members[0], v) for v in members[1:])
    root = _roots(d.n, joins)
    marked = sorted({root[v] for v in xe_verts})

    # each pair of the simple underlying graph once, through the
    # contraction; parallel contracted edges stay, marked_veb needs them
    pairs = {(a, b) if a < b else (b, a) for a, b in d.edges if a != b}
    cedges = tuple((root[a], root[b]) for a, b in sorted(pairs) if root[a] != root[b])
    blocks = []
    for block in marked_veb(UGraph._trusted(d.n, cedges), marked):
        members = [back[v] for v in block if back[v] in h.oo]
        if members:
            blocks.append(tuple(sorted(members)))
    # disjoint: marked_veb's blocks are
    return Partition._trusted(sorted(blocks))


def _lone_edges(d: DiGraph) -> list[int]:
    """Ids of the edges that are their tail's only out-edge or their
    head's only in-edge, parallel copies counted."""
    outdeg, indeg = [0] * d.n, [0] * d.n
    for x, y in d.edges:
        outdeg[x] += 1
        indeg[y] += 1
    return [e for e, (x, y) in enumerate(d.edges) if outdeg[x] == 1 or indeg[y] == 1]


def _splittable_family(g: DiGraph, bd):
    """The final auxiliary family of the strongly connected ``g`` from
    source 0, whose forward flow-graph pass ``bd`` is: the members with at
    least two oo vertices, and the bare oo-set of every piece that cannot
    split (see ``build_first_level`` and ``second_level``).  Together
    their oo-sets partition V(g).
    """
    for h1 in build_first_level(g, 0, _bd=bd, _lone=True):
        if isinstance(h1, AuxGraph):
            yield from second_level(h1, _splittable=True)
        else:
            yield h1


def _strong_bridge_partition(g: DiGraph, bd) -> Partition:
    """Partition of V(g) due to strong bridges, assembled across the final
    auxiliary family (whose oo-sets partition V).

    Only members with at least two oo vertices are built and analysed
    (``partition_strong_bridges``); each bare oo-set of
    ``_splittable_family`` is one block, or none when empty.
    ``two_etscc`` does not call this for a TSCC without strong bridges:
    there the partition is the whole TSCC.
    """
    blocks = []
    for h in _splittable_family(g, bd):
        if isinstance(h, AuxGraph):
            blocks.extend(partition_strong_bridges(h).blocks)
        elif h:
            blocks.append(tuple(sorted(h)))
    return Partition._trusted(sorted(blocks))  # the oo-sets partition V


def two_escc(g: DiGraph) -> Partition:
    """2-edge strongly connected components.

    Per SCC, the blocks are exactly the oo-sets of the final auxiliary
    family members of the induced subgraph.  An SCC without strong bridges
    is one block, and no family is built for it: its oo-sets are the whole
    SCC.  The reverse pass runs only when the forward one finds no bridge,
    and the family reuses the forward pass.  A piece that cannot split
    contributes its bare oo-set and builds no member (see
    ``_splittable_family``).
    """
    components = scc(g).components
    blocks = [comp for comp in components if len(comp) == 1]
    for sub, verts, _ in _scc_subgraphs(g, components):
        bd = flow_bridges(sub, 0)
        if not bd.flow_bridges and not _find_bridges(sub.reverse(), 0)[1]:
            blocks.append(tuple(verts))
            continue
        for h in _splittable_family(sub, bd):
            oo = h.oo if isinstance(h, AuxGraph) else h
            if oo:
                blocks.append(tuple(sorted(verts[i] for i in oo)))
    return Partition._trusted(sorted(blocks))


def two_etscc(g: DiGraph) -> Partition:
    """2-edge twinless strongly connected components."""
    parts: list = []
    blocks = [b for b in tscc(g, _parts=parts) if len(b) == 1]
    todo: list = []
    while parts:  # popped, so each CSR is freed once analysed
        todo.extend(_tscc_graphs(parts.pop(), 2))
        while todo:
            sub, verts, _, under = todo.pop()
            csr, dfs = under or (_underlying_csr(sub), None)
            cactus = _cactus_lone_origins(sub.n, csr, dfs)
            del under, csr, dfs  # not held through the flow-graph passes
            bd = flow_bridges(sub, 0)
            es = set(bd.flow_bridges).union(_find_bridges(sub.reverse(), 0)[1])
            part = _cut_cycle_partition(cactus, es)
            if es:  # without strong bridges their partition is the whole TSCC
                part = part.refine(_strong_bridge_partition(sub, bd))
            for piece in part:
                blocks.append(tuple(verts[i] for i in piece))
    return Partition._trusted(sorted(blocks))


def two_etscc_baseline(g: DiGraph, deadline: Optional[float] = None) -> Partition:
    """Quadratic baseline: refine the TSCC partition by the TSCCs of g
    minus e for every twinless strong bridge e.

    With a ``deadline`` (a ``time.perf_counter()`` value), raises
    ``TimeoutError`` when it has passed before the next refinement step.
    """
    part = tscc(g)
    for e in twinless_strong_bridges(g):
        if deadline is not None and time.perf_counter() > deadline:
            raise TimeoutError("baseline passed its deadline")
        part = part.refine(tscc(g.without_edges([e])))
    return part


def two_escc_baseline(g: DiGraph) -> Partition:
    """Quadratic baseline for 2escc: refine the SCC partition by the SCCs
    of g minus e per strong bridge (deleting any other edge cannot split
    an SCC)."""
    part = scc(g).partition
    for comp in scc(g).components:
        if len(comp) == 1:
            continue
        sub, verts, orig_eid = g.induced(comp)
        for e in strong_bridges(sub):
            part = part.refine(scc(g.without_edges([orig_eid[e]])).partition)
    return part
