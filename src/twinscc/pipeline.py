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
  at least two oo vertices can split, and a TSCC without strong bridges
  skips this partition altogether.

A quadratic baseline (refine by the TSCCs of g minus e over every twinless
strong bridge e) is kept for benchmarking and as a mid-level oracle.
"""

from __future__ import annotations

from .graph import DiGraph, Partition, PreconditionError, UGraph, underlying
from .undirected import bridges_2ecc, three_ecc_cactus
from .dominators import _strongly_connected, flow_bridges, strong_bridges
from .strong import scc, tscc, twinless_strong_bridges
from .auxiliary import (
    AuxGraph,
    build_first_level,
    classify_xe,
    second_level,
    verify_xe,
)
from .spqr import marked_veb


def partition_et_minus_es(g: DiGraph, _es=None) -> Partition:
    """Partition of the 2eTSCCs due to twinless strong bridges that are not
    strong bridges.  Requires a twinless strongly connected input."""
    view = underlying(g)
    if _es is None:
        if not _strongly_connected(g):
            raise PreconditionError("input must be twinless strongly connected")
        if g.n > 1:
            bridges, _ = bridges_2ecc(view)
            if bridges or view.m == 0:
                raise PreconditionError("input must be twinless strongly connected")
        es = set(strong_bridges(g, _checked=True))
    else:
        es = set(_es)
    cactus = three_ecc_cactus(view)
    drop: set[int] = set()
    for a, b, cycle_id, view_eid in cactus.edges:
        origins = view.origins[view_eid]
        if len(origins) == 1 and origins[0] not in es:
            drop.add(cycle_id)
    parent = list(range(cactus.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, cycle_id, _ in cactus.edges:
        if cycle_id not in drop:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    return Partition.from_labels({v: find(cactus.phi[v]) for v in range(g.n)})


def partition_strong_bridges(h: AuxGraph, verify: bool = False) -> Partition:
    """Partition of h's oo vertices due to the strong bridges of h.

    A member with at most one oo vertex cannot split, so it is returned
    as one block (or none) before any graph is built or any strong bridge
    is computed.
    """
    if len(h.oo) <= 1:
        return Partition.trivial(h.oo)
    d, local, back = h.digraph()
    sbs = strong_bridges(d, _checked=True)  # members are strongly connected
    if not sbs:
        return Partition([sorted(h.oo)])
    xes = [classify_xe(h, e) for e in sbs]
    if verify:
        for xe in xes:
            verify_xe(h, xe)

    parent = list(range(d.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for xe in xes:
        members = sorted(local[v] for v in xe.members)
        for v in members[1:]:
            parent[find(v)] = find(members[0])

    classes: dict[int, list[int]] = {}
    for v in range(d.n):
        classes.setdefault(find(v), []).append(v)
    order = sorted(classes, key=lambda r: classes[r][0])
    qid = {r: i for i, r in enumerate(order)}
    contracted = {local[v] for xe in xes for v in xe.members}
    marked = sorted({qid[find(v)] for v in contracted})

    view = underlying(d)
    qedges = []
    for a, b in view.edges:
        qa, qb = qid[find(a)], qid[find(b)]
        if qa != qb:
            qedges.append((qa, qb))
    blocks_q = marked_veb(UGraph(len(order), qedges), marked)

    blocks = []
    for qblock in blocks_q:
        members = []
        for q in qblock:
            for v in classes[order[q]]:
                orig = back[v]
                if orig in h.oo:
                    members.append(orig)
        if members:
            blocks.append(members)
    return Partition(blocks)


def _splittable_family(g: DiGraph, bd=None):
    """The final auxiliary family of the strongly connected ``g`` (source
    0), except that a first-level member with one ordinary vertex r
    stands in for the members derived from it.

    The oo-sets of those members partition the ordinary vertices of their
    first-level member, so they are exactly {r}: one block, whatever the
    strong bridges, and the second level is not built for it.
    """
    for h1 in build_first_level(g, 0, _bd=bd):
        if len(h1.oo) == 1:
            yield h1
        else:
            yield from second_level(h1)


def _strong_bridge_partition(g: DiGraph, verify: bool = False, _bd=None) -> Partition:
    """Partition of V(g) due to strong bridges, assembled across the final
    auxiliary family (whose oo-sets partition V).

    Only members with at least two oo vertices are analysed: a first-level
    member with one ordinary vertex skips its second level, and a final
    member with at most one oo vertex skips its strong-bridge pass
    (``partition_strong_bridges``).  Neither can split a block.
    ``two_etscc`` does not call this for a TSCC without strong bridges:
    there the partition is the whole TSCC.
    """
    blocks = []
    for h in _splittable_family(g, _bd):
        blocks.extend(partition_strong_bridges(h, verify=verify).blocks)
    return Partition(blocks)


def two_escc(g: DiGraph) -> Partition:
    """2-edge strongly connected components.

    Per SCC, the blocks are exactly the oo-sets of the final auxiliary
    family members of the induced subgraph.  A first-level member with one
    ordinary vertex r contributes {r} without building its second level,
    whose oo-sets are exactly {r}.
    """
    blocks: list[list[int]] = []
    for comp in scc(g).components:
        if len(comp) == 1:
            blocks.append(list(comp))
            continue
        if len(comp) == g.n:
            sub, verts = g, None
        else:
            sub, verts, _ = g.induced(comp)
        for h in _splittable_family(sub):
            if h.oo:
                blocks.append(
                    sorted(h.oo) if verts is None else sorted(verts[i] for i in h.oo)
                )
    return Partition(blocks)


def two_etscc(g: DiGraph, verify: bool = False) -> Partition:
    """2-edge twinless strongly connected components."""
    blocks: list[list[int]] = []
    for block in tscc(g):
        if len(block) == 1:
            blocks.append(list(block))
            continue
        if len(block) == g.n:
            sub, verts = g, None
        else:
            sub, verts, _ = g.induced(block)
        # one forward flow-graph pass feeds both the strong-bridge set and
        # the auxiliary family
        bd = flow_bridges(sub, 0)
        es = set(bd.flow_bridges)
        es.update(flow_bridges(sub.reverse(), 0).flow_bridges)
        part = partition_et_minus_es(sub, _es=es)
        if es:  # without strong bridges their partition is the whole TSCC
            part = part.refine(_strong_bridge_partition(sub, verify=verify, _bd=bd))
        for piece in part:
            blocks.append(piece if verts is None else [verts[i] for i in piece])
    return Partition(blocks)


def two_etscc_baseline(g: DiGraph) -> Partition:
    """Quadratic baseline: refine the TSCC partition by the TSCCs of g
    minus e for every twinless strong bridge e."""
    part = tscc(g)
    for e in twinless_strong_bridges(g):
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
