"""Connectivity-preserving auxiliary graphs.

For a strongly connected flow graph G_s, the dominator-tree decomposition
into subtrees T(r) (one per marked vertex r plus T(s)) induces, per root r,
an auxiliary graph H(G_s, r): contract every D(z) with z marked and
d(z) in T(r) into z, contract the rest of the tree into d(r) when r != s,
drop self-loops, and cap edge multiplicities at two so no new strong
bridges appear.  T(r) members are *ordinary*; the contraction vertices are
*auxiliary*; (d(r), r) is the *critical* edge.

Applying the same construction a second time to each reversed H_r (source
r) gives the graphs H_rr'.  The final family replaces H_rr (r != s) by a
simplified version with the critical vertex of H_r removed, and splits
every H_rr' with r' != r through the S-operation on its critical edge.
Ordinary-at-both-levels (oo) vertices of the final family partition the
vertex set, the family preserves 2-edge (twinless) strong connectivity
among oo vertices, and deleting any strong bridge of a member splits off
only a known set X_e of non-oo vertices as singleton SCCs.  Hence an edge
(x, y) of a member is a strong bridge iff it is x's only out-edge or y's
only in-edge: the lone source SCC left holds y, the lone sink SCC x, and
one of them is a singleton.  First-level graphs can lack this shape.

A member with at most one oo vertex cannot split a block: the pipeline's
calls (``_lone``, ``_splittable``) keep its bare oo-set instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .graph import DiGraph, GraphError, PreconditionError
from .dominators import _strongly_connected, flow_bridges, strong_bridges
from .strong import scc

KIND_H1 = "first-level"
KIND_HSS = "H_ss"
KIND_HRR = "H_rr"
KIND_TILDE = "tilde_H_rr"
KIND_S_SR = "S(H_sr)"
KIND_S_RR = "S(H_rr')"


@dataclass(frozen=True)
class AuxGraph:
    """An auxiliary graph with role metadata.

    ``vertices`` and ``edges`` use the ids of the graph the family was built
    from.  ``ordinary1``/``ordinary2`` hold the vertices that are ordinary
    at the first/second derivation level (``ordinary2`` is empty for
    first-level graphs); ``attached`` holds S-operation attachment vertices.
    ``oo`` is the set the member contributes to the output partitions.
    """

    kind: str
    r: int
    r2: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    ordinary1: frozenset[int]
    ordinary2: frozenset[int]
    attached: frozenset[int]
    oo: frozenset[int]
    critical_edge: Optional[tuple[int, int]]

    def digraph(self) -> tuple[DiGraph, dict[int, int], tuple[int, ...]]:
        """Dense relabelling: (graph, orig->local, local->orig)."""
        local = {v: i for i, v in enumerate(self.vertices)}
        d = DiGraph(len(self.vertices), [(local[u], local[v]) for u, v in self.edges])
        return d, local, self.vertices


@dataclass(frozen=True)
class XeClass:
    """Separation class of a strong bridge e of an auxiliary graph.

    Removing e leaves the members of ``members`` as singleton SCCs and the
    rest of the graph strongly connected (for ``degenerate`` the rest is a
    single vertex).  ``members`` never contains an oo vertex.
    """

    edge: int
    kind: str  # "X_x" | "X_y" | "X_xy" | "degenerate"
    members: frozenset[int]


def build_first_level(g: DiGraph, s: int, _bd=None, _lone: bool = False) -> list:
    """All first-level auxiliary graphs H(G_s, r), r in {s} + marked.

    One depth-first pass over the tree of roots keeps the root path on a
    stack and reads each edge (x, y) once, at x's root a.  An edge inside
    T(a) goes into a's member, and the bridge (d(y), y) into a's and y's.
    Any other edge leaves D(b) for b, the root of y's subtree, which is on
    the stack at some depth k: it goes into a's member as (x, d(a)) and
    into b's as (c, y), c the root after b on the stack.  Each member r in
    between gets (z, d(r)) from its child root z, capped at two copies, so
    D(z) keeps only the two least such depths k; once D(z) is done, its
    copies are how many of them lie above r.  This is O(m) in all.

    With ``_lone`` (the pipeline's call) a root r whose subtree is r alone
    gets no edge counts and no member: the tuple (r,), which is the oo-set
    of every final member derived from it, stands in for it.
    """
    bd = _bd
    if bd is None:
        if not _strongly_connected(g):
            raise PreconditionError("auxiliary graphs require a strongly connected graph")
        bd = flow_bridges(g, s)
    dt = bd.dom
    # a bridge's tail is the immediate dominator of its head, a root
    idom = {r: dt.verts[dt.dom[dt.dfn[r]]] for r in bd.marked}
    tree_of, subtrees = bd.tree_of, bd.subtrees
    kids: dict[int, list[int]] = {r: [] for r in subtrees}
    for r, d in idom.items():
        kids[tree_of[d]].append(r)
    # edge multiplicities per member, capped at two when the member is built
    counts = {r: {} for r, t in subtrees.items() if not _lone or len(t) > 1}

    start, dst, _ = g.out_csr()
    depth = [-1] * g.n
    low: dict[int, tuple[int, int]] = {}  # the two least depths k from D(r)
    path: list[int] = []
    todo = [s]
    while todo:
        a = todo.pop()
        if a < 0:  # D(~a) is done: its copies go into its parent's member
            z = path.pop()
            if path:
                p, dp = path[-1], len(path) - 1
                k1, k2 = low[z]
                if k1 < dp and p in counts:
                    counts[p][z, idom[p]] = 1 + (k2 < dp)
                l1, l2 = low[p]
                low[p] = (k1, min(l1, k2)) if k1 < l1 else (l1, min(l2, k1))
            continue
        da = depth[a] = len(path)
        path.append(a)
        todo.append(~a)
        todo.extend(kids[a])
        own = counts.get(a)
        k1 = k2 = da  # the two least depths k from T(a); da stands for none
        for x in subtrees[a]:
            for y in dst[start[x] : start[x + 1]]:
                b = tree_of[y]
                if b == a or idom.get(y) == x:  # in T(a), or the bridge (d(y), y)
                    if x == y:
                        continue
                    e = x, y
                    if b != a and y in counts:
                        counts[y][e] = 1
                else:
                    k = depth[b]
                    # an edge entering D(r) from outside must be the bridge (d(r), r)
                    if not 0 <= k < da or path[k] != b:
                        raise AssertionError("unexpected edge into a dominated subtree")
                    e = x, idom[a]
                    if b in counts:
                        into, f = counts[b], (path[k + 1], y)
                        into[f] = into.get(f, 0) + 1
                    if k < k2:
                        k1, k2 = min(k, k1), max(k, k1)
                if own is not None:
                    own[e] = own.get(e, 0) + 1
        low[a] = k1, k2
    out: list = []
    for r in sorted(subtrees):
        if r not in counts:
            out.append(subtrees[r])
            continue
        ordinary = frozenset(subtrees[r])
        verts = ordinary.union(kids[r])
        crit = None
        if r != s:
            crit = (idom[r], r)
            verts |= {idom[r]}
        edges = sorted([*counts[r], *(e for e, c in counts[r].items() if c > 1)])
        out.append(
            AuxGraph(
                kind=KIND_H1,
                r=r,
                r2=-1,
                vertices=tuple(sorted(verts)),
                edges=tuple(edges),
                ordinary1=ordinary,
                ordinary2=frozenset(),
                attached=frozenset(),
                oo=ordinary,
                critical_edge=crit,
            )
        )
    return out


def _capped(edges) -> list[tuple[int, int]]:
    """The non-loop ``edges``, sorted, each at most twice."""
    counts = Counter(e for e in edges if e[0] != e[1])
    return sorted([*counts, *(e for e, k in counts.items() if k > 1)])


def s_operation(g: DiGraph, eid: int) -> list:
    """S-operation of ``g`` on the strong bridge with edge id ``eid``.

    Returns one (vertices, edges, attached) triple per SCC C of g minus the
    bridge: internal edges are kept, edges leaving C are redirected into x,
    edges entering C are re-sourced from y, the bridge (x, y) is re-added,
    and the edges are ``_capped``: self-loops dropped, at most two copies.
    """
    x, y = g.edges[eid]
    sr = scc(g.without_edges([eid]))
    if len(sr.components) <= 1:
        raise PreconditionError("S-operation requires a strong bridge")
    comp_of, edges_of = sr.comp_of, [[(x, y)] for _ in sr.components]
    # one pass: each edge lands in its tail's and its head's member
    for j, (u, v) in enumerate(g.edges):
        if j == eid:
            continue
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            edges_of[cu].append((u, v))
        else:
            edges_of[cu].append((u, x))
            edges_of[cv].append((y, v))
    return [
        (tuple(sorted({*comp, x, y})), _capped(edges), frozenset({x, y}.difference(comp)))
        for comp, edges in zip(sr.components, edges_of)
    ]


def second_level(h1: AuxGraph, _splittable: bool = False) -> list:
    """Final-family members derived from one first-level graph.

    Their oo-sets partition ``h1.ordinary1``.  With ``_splittable`` (the
    pipeline's call), the oo-set of a member with at most one oo vertex
    stands in for it, and the reverse first level is built with
    ``_lone``.  An S-operation on an H_rr' with at most one vertex in
    ``h1.ordinary1 & ordinary2`` is not run: its members' oo-sets
    partition that set (an attached vertex is never in the SCC it
    attaches to), which stands in for all of them.
    """
    sub, local, back = h1.digraph()
    rev = sub.reverse()
    r_loc = local[h1.r]
    # members are strongly connected by construction; flow_bridges still
    # fails loudly if reachability is broken
    lvl2 = build_first_level(rev, r_loc, _bd=flow_bridges(rev, r_loc), _lone=_splittable)
    out: list = []
    for h2 in lvl2:
        mine = h2.ordinary1 if isinstance(h2, AuxGraph) else h2  # or a lone (r,)
        ordinary2 = frozenset(back[i] for i in mine)
        both = h1.ordinary1 & ordinary2
        if _splittable and len(both) <= 1:
            out.append(both)
            continue
        r2 = back[h2.r]
        verts = tuple(back[i] for i in h2.vertices)
        edges = [(back[u], back[v]) for u, v in h2.edges]
        if r2 == h1.r:
            hss = h1.critical_edge is None
            if not hss:
                # H_rr: simplify away the critical vertex d(r) of H_r exactly
                # when all its out-edges lead to one ordinary2/auxiliary1
                # vertex (otherwise the split-off shapes would gain an extra
                # {d(r)})
                dcrit = h1.critical_edge[0]
                targets = {v for u, v in edges if u == dcrit}
                if len(targets) == 1:
                    (tgt,) = targets
                    if tgt in ordinary2 and tgt not in h1.ordinary1:
                        out.append(_tilde(h1, verts, edges, ordinary2, dcrit))
                        continue
            out.append(
                AuxGraph(
                    kind=KIND_HSS if hss else KIND_HRR,
                    r=h1.r,
                    r2=r2,
                    vertices=verts,
                    edges=tuple(sorted(edges)),
                    ordinary1=h1.ordinary1 if hss else h1.ordinary1 & set(verts),
                    ordinary2=ordinary2,
                    attached=frozenset(),
                    oo=both,
                    critical_edge=None,
                )
            )
        else:
            if h2.critical_edge is None:
                raise AssertionError("a member other than H_rr without a critical edge")
            crit = tuple(back[v] for v in h2.critical_edge)
            vmap = {v: i for i, v in enumerate(verts)}
            h2_graph = DiGraph._trusted(
                len(verts), tuple((vmap[u], vmap[v]) for u, v in edges)
            )
            if edges.count(crit) != 1:
                raise AssertionError("critical edge must have multiplicity one")
            for mverts, medges, mattached in s_operation(h2_graph, edges.index(crit)):
                overts = tuple(verts[i] for i in mverts)
                attached = frozenset(verts[i] for i in mattached)
                vset = set(overts)
                oo = both & (vset - attached)
                if _splittable and len(oo) <= 1:
                    out.append(oo)
                    continue
                out.append(
                    AuxGraph(
                        kind=KIND_S_SR if h1.critical_edge is None else KIND_S_RR,
                        r=h1.r,
                        r2=r2,
                        vertices=overts,
                        edges=tuple(sorted((verts[u], verts[v]) for u, v in medges)),
                        ordinary1=h1.ordinary1 & vset,
                        ordinary2=ordinary2 & vset,
                        attached=attached,
                        oo=oo,
                        critical_edge=crit,
                    )
                )
    return out


def _tilde(
    h1: AuxGraph,
    verts: tuple[int, ...],
    edges: list[tuple[int, int]],
    ordinary2: frozenset[int],
    dcrit: int,
) -> AuxGraph:
    """H_rr with the critical vertex of H_r removed.

    Applied only when every out-edge of d(r) (``dcrit``) targets one
    ordinary2 vertex x that is auxiliary in H_r: each path through d(r) runs
    (r, d(r)), (d(r), x) and is replaced by the shortcut (r, x), which
    eliminates the split-off shapes that would otherwise carry an extra
    {d(r)} component.  d(r) is auxiliary at both levels and never
    contributes to the output.
    """
    r = h1.r
    kept: list[tuple[int, int]] = []
    for u, v in edges:
        if v == dcrit:
            if u != r:
                raise AssertionError("critical vertex with a stray in-edge")
        else:
            kept.append((r, v) if u == dcrit else (u, v))  # (r, r) is dropped
    return AuxGraph(
        kind=KIND_TILDE,
        r=r,
        r2=r,
        vertices=tuple(v for v in verts if v != dcrit),
        edges=tuple(_capped(kept)),
        ordinary1=h1.ordinary1,
        ordinary2=ordinary2 - {dcrit},
        attached=frozenset(),
        oo=h1.ordinary1 & ordinary2 - {dcrit},
        critical_edge=None,
    )


def build_final_family(g: DiGraph, s: int) -> list[AuxGraph]:
    """The family {H_ss} + {tilde H_rr} + S(H_sr, .) + S(H_rr', .) members.

    The oo-sets of the returned members partition the vertex set of ``g``.
    This is the concatenation of ``second_level`` over the first level.
    The pipeline's pass builds only the members that can split: a
    first-level root r whose subtree is r alone yields members whose
    oo-sets are exactly {r}, so it keeps (r,) instead, and ``second_level``
    keeps the oo-set of any member with at most one oo vertex.
    """
    members: list[AuxGraph] = []
    for h1 in build_first_level(g, s):
        members.extend(second_level(h1))
    return members


def aux_strong_bridges(h: AuxGraph) -> tuple[int, ...]:
    """Strong bridges of a family member, as indices into ``h.edges``."""
    d, _, _ = h.digraph()
    return strong_bridges(d)


def classify_xe(h: AuxGraph, eid: int) -> XeClass:
    """Separation class of strong bridge ``eid`` of ``h``.

    Metadata-driven in constant time: edges touching an S-operation
    attachment split off the whole attachment set; otherwise exactly the
    non-oo endpoints split off.  A member without oo vertices (where the
    degenerate shapes live, and which the pipeline never classifies) is
    classified by direct SCC recomputation instead.
    """
    if not 0 <= eid < len(h.edges):
        raise GraphError(f"edge id {eid} out of range")
    x, y = h.edges[eid]
    if not h.oo:
        return _classify_by_recompute(h, eid)
    if h.attached and (x in h.attached or y in h.attached):
        members = frozenset(h.attached)
    else:
        members = frozenset(v for v in (x, y) if v not in h.oo)
    if not members:
        raise GraphError("strong bridge with two oo endpoints: metadata invariant broken")
    return XeClass(eid, _kind_of(members, x, y), members)


def _kind_of(members: frozenset[int], x: int, y: int) -> str:
    if members == {x, y}:
        return "X_xy"
    if members == {x}:
        return "X_x"
    if members == {y}:
        return "X_y"
    return "degenerate"


def _classify_by_recompute(h: AuxGraph, eid: int) -> XeClass:
    d, _, back = h.digraph()
    comps = scc(d.without_edges([eid])).components
    singles = {back[c[0]] for c in comps if len(c) == 1}
    x, y = h.edges[eid]
    if len(comps) < 2:
        raise PreconditionError("classify_xe requires a strong bridge")
    big = [c for c in comps if len(c) > 1]
    if len(big) > 1:
        raise AssertionError("auxiliary graph broke the one-big-SCC shape")
    if big:
        members = frozenset(singles)
        if members & h.oo:
            raise AssertionError("an oo vertex was split off by a strong bridge")
        return XeClass(eid, _kind_of(members, x, y), members)
    # every SCC is a singleton (degenerate shapes): the surviving "rest" is
    # the lone oo vertex when there is one, else the smallest non-attached
    # vertex; everything else is split off
    oo_singles = sorted(singles & h.oo)
    if len(oo_singles) > 1:
        raise AssertionError("an oo vertex was split off by a strong bridge")
    if oo_singles:
        rest = oo_singles[0]
    else:
        non_attached = sorted(singles - h.attached)
        rest = non_attached[0] if non_attached else min(singles)
    members = frozenset(singles - {rest})
    return XeClass(eid, _kind_of(members, x, y), members)


def verify_xe(h: AuxGraph, xe: XeClass) -> None:
    """Check an XeClass against a direct SCC recomputation; raise on mismatch."""
    d, local, back = h.digraph()
    comps = scc(d.without_edges([xe.edge])).components
    expect_singles = {local[v] for v in xe.members}
    rest = [v for v in range(d.n) if v not in expect_singles]
    ok = True
    for comp in comps:
        if len(comp) == 1 and comp[0] in expect_singles:
            continue
        if set(comp) == set(rest):
            continue
        if len(comp) == 1 and len(rest) == 1 and comp[0] == rest[0]:
            continue
        ok = False
    if not ok or xe.members & h.oo:
        raise AssertionError(
            f"X_e verification failed for edge {h.edges[xe.edge]} of {h.kind}"
        )
