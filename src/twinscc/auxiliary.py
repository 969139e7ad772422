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
only a known set X_e of non-oo vertices as singleton SCCs.
"""

from __future__ import annotations

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


_SMALL_RECOMPUTE = 5  # members this small are classified by direct SCC recomputation


def build_first_level(g: DiGraph, s: int, _bd=None) -> list[AuxGraph]:
    """All first-level auxiliary graphs H(G_s, r), r in {s} + marked."""
    if _bd is None:
        if not _strongly_connected(g):
            raise PreconditionError("auxiliary graphs require a strongly connected graph")
        bd = flow_bridges(g, s)
    else:
        bd = _bd
    idom = bd.dom.idom
    tree_of = bd.tree_of
    roots = sorted(bd.subtrees)
    root_set = set(roots)

    parent_root = {r: tree_of[idom[r]] for r in roots if r != s}
    depth: dict[int, int] = {s: 0}
    for v in bd.dom.order:  # parents appear before children
        if v in root_set and v != s:
            depth[v] = depth[parent_root[v]] + 1

    counts: dict[int, dict[tuple[int, int], int]] = {r: {} for r in roots}

    def emit(r: int, u: int, v: int) -> None:
        if u == v:
            return
        bucket = counts[r]
        c = bucket.get((u, v), 0)
        if c < 2:
            bucket[(u, v)] = c + 1

    for x, y in g.edges:
        if x == y:
            continue
        ax, ay = tree_of[x], tree_of[y]
        cx: list[int] = []
        cy: list[int] = []
        while ax != ay:
            if depth[ax] >= depth[ay]:
                cx.append(ax)
                ax = parent_root[ax]
            else:
                cy.append(ay)
                ay = parent_root[ay]
        top = ax
        for i, r in enumerate(cx):
            emit(r, x if i == 0 else cx[i - 1], idom[r])
        if cy:
            # an edge entering D(r) from outside must be the bridge (d(r), r)
            if not (cy[0] == y and x == idom[y]):
                raise AssertionError("unexpected edge into a dominated subtree")
            emit(cy[0], x, y)
        emit(top, x if not cx else cx[-1], y if not cy else cy[-1])

    children: dict[int, list[int]] = {r: [] for r in roots}
    for z, r in parent_root.items():
        children[r].append(z)
    out = []
    for r in roots:
        ordinary = frozenset(bd.subtrees[r])
        verts = set(bd.subtrees[r])
        verts.update(children[r])
        crit = None
        if r != s:
            verts.add(idom[r])
            crit = (idom[r], r)
        edges = []
        for (u, v), c in counts[r].items():
            edges.extend([(u, v)] * c)
        edges.sort()
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


def s_operation(g: DiGraph, eid: int, cap: Optional[int] = None) -> list[tuple[tuple[int, ...], list[tuple[int, int]], frozenset[int]]]:
    """S-operation of ``g`` on the strong bridge with edge id ``eid``.

    Returns one (vertices, edges, attached) triple per SCC C of g minus the
    bridge: internal edges are kept, edges leaving C are redirected into x,
    edges entering C are re-sourced from y, the bridge (x, y) is re-added,
    and self-loops are dropped.  ``cap`` optionally bounds multiplicities.
    """
    x, y = g.edges[eid]
    comps = scc(g.without_edges([eid])).components
    if len(comps) <= 1:
        raise PreconditionError("S-operation requires a strong bridge")
    members = []
    for comp in comps:
        cset = set(comp)
        counts: dict[tuple[int, int], int] = {}

        def put(u: int, v: int) -> None:
            if u == v:
                return
            c = counts.get((u, v), 0)
            if cap is None or c < cap:
                counts[(u, v)] = c + 1

        for j, (u, v) in enumerate(g.edges):
            if j == eid:
                continue
            if u in cset:
                put(u, v) if v in cset else put(u, x)
            elif v in cset:
                put(y, v)
        put(x, y)
        verts = tuple(sorted(cset | {x, y}))
        edges: list[tuple[int, int]] = []
        for (u, v), c in sorted(counts.items()):
            edges.extend([(u, v)] * c)
        members.append((verts, edges, frozenset({x, y} - cset)))
    return members


def second_level(h1: AuxGraph) -> list[AuxGraph]:
    """Final-family members derived from one first-level graph.

    Their oo-sets partition ``h1.ordinary1``.
    """
    sub, local, back = h1.digraph()
    rev = sub.reverse()
    r_loc = local[h1.r]
    # members are strongly connected by construction; flow_bridges still
    # fails loudly if reachability is broken
    lvl2 = build_first_level(rev, r_loc, _bd=flow_bridges(rev, r_loc))
    out: list[AuxGraph] = []
    for h2 in lvl2:
        verts = tuple(back[i] for i in h2.vertices)
        edges = [(back[u], back[v]) for u, v in h2.edges]
        ordinary2 = frozenset(back[i] for i in h2.ordinary1)
        r2 = back[h2.r]
        if r2 == h1.r:
            if h1.critical_edge is None:
                out.append(
                    AuxGraph(
                        kind=KIND_HSS,
                        r=h1.r,
                        r2=r2,
                        vertices=verts,
                        edges=tuple(sorted(edges)),
                        ordinary1=h1.ordinary1,
                        ordinary2=ordinary2,
                        attached=frozenset(),
                        oo=h1.ordinary1 & ordinary2,
                        critical_edge=None,
                    )
                )
                continue
            # H_rr: simplify away the critical vertex d(r) of H_r exactly
            # when all its out-edges lead to one ordinary2/auxiliary1 vertex
            # (otherwise the split-off shapes would gain an extra {d(r)})
            dcrit = h1.critical_edge[0]
            targets = {v for u, v in edges if u == dcrit}
            if len(targets) == 1:
                (tgt,) = targets
                if tgt in ordinary2 and tgt not in h1.ordinary1:
                    out.append(_tilde(h1, verts, edges, ordinary2))
                    continue
            out.append(
                AuxGraph(
                    kind=KIND_HRR,
                    r=h1.r,
                    r2=r2,
                    vertices=verts,
                    edges=tuple(sorted(edges)),
                    ordinary1=h1.ordinary1 & set(verts),
                    ordinary2=ordinary2,
                    attached=frozenset(),
                    oo=h1.ordinary1 & ordinary2,
                    critical_edge=None,
                )
            )
        else:
            crit_loc = h2.critical_edge
            assert crit_loc is not None
            crit = (back[crit_loc[0]], back[crit_loc[1]])
            vmap = {v: i for i, v in enumerate(verts)}
            h2_graph = DiGraph._trusted(
                len(verts), tuple((vmap[u], vmap[v]) for u, v in edges)
            )
            crit_ids = [
                i for i, e in enumerate(h2_graph.edges)
                if e == (vmap[crit[0]], vmap[crit[1]])
            ]
            assert len(crit_ids) == 1, "critical edge must have multiplicity one"
            for mverts, medges, mattached in s_operation(h2_graph, crit_ids[0], cap=2):
                overts = tuple(verts[i] for i in mverts)
                oedges = tuple(sorted((verts[u], verts[v]) for u, v in medges))
                attached = frozenset(verts[i] for i in mattached)
                vset = set(overts)
                oo = frozenset(
                    v
                    for v in vset - attached
                    if v in h1.ordinary1 and v in ordinary2
                )
                out.append(
                    AuxGraph(
                        kind=KIND_S_SR if h1.critical_edge is None else KIND_S_RR,
                        r=h1.r,
                        r2=r2,
                        vertices=overts,
                        edges=oedges,
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
) -> AuxGraph:
    """H_rr with the critical vertex of H_r removed.

    Applied only when every out-edge of d(r) targets one ordinary2 vertex x
    that is auxiliary in H_r: each path through d(r) then runs
    (r, d(r)), (d(r), x) and is replaced by the shortcut (r, x), which
    eliminates the split-off shapes that would otherwise carry an extra
    {d(r)} component.  d(r) is auxiliary at both levels and never
    contributes to the output.
    """
    assert h1.critical_edge is not None
    dcrit = h1.critical_edge[0]
    r = h1.r
    counts: dict[tuple[int, int], int] = {}
    shortcuts: list[int] = []
    for u, v in edges:
        if v == dcrit:
            if u != r:
                raise AssertionError("critical vertex with a stray in-edge")
            continue
        if u == dcrit:
            shortcuts.append(v)
            continue
        counts[(u, v)] = min(2, counts.get((u, v), 0) + 1)
    for w in shortcuts:
        if w != r:
            counts[(r, w)] = min(2, counts.get((r, w), 0) + 1)
    out_edges: list[tuple[int, int]] = []
    for (u, v), c in sorted(counts.items()):
        out_edges.extend([(u, v)] * c)
    new_verts = tuple(v for v in verts if v != dcrit)
    return AuxGraph(
        kind=KIND_TILDE,
        r=r,
        r2=r,
        vertices=new_verts,
        edges=tuple(out_edges),
        ordinary1=h1.ordinary1,
        ordinary2=ordinary2 - {dcrit},
        attached=frozenset(),
        oo=h1.ordinary1 & ordinary2 - {dcrit},
        critical_edge=None,
    )


def build_final_family(g: DiGraph, s: int, _bd=None) -> list[AuxGraph]:
    """The family {H_ss} + {tilde H_rr} + S(H_sr, .) + S(H_rr', .) members.

    The oo-sets of the returned members partition the vertex set of ``g``.
    This is the concatenation of ``second_level`` over the first level.
    The pipeline builds the second level only for first-level members with
    at least two ordinary vertices: those with one ordinary vertex r yield
    members whose oo-sets are exactly {r}, which cannot split.
    """
    if g.n == 1:
        return [
            AuxGraph(
                kind=KIND_HSS,
                r=s,
                r2=s,
                vertices=(0,),
                edges=(),
                ordinary1=frozenset({0}),
                ordinary2=frozenset({0}),
                attached=frozenset(),
                oo=frozenset({0}),
                critical_edge=None,
            )
        ]
    members: list[AuxGraph] = []
    for h1 in build_first_level(g, s, _bd=_bd):
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
    non-oo endpoints split off.  Tiny members (including the four-vertex
    degenerate shape) are classified by direct SCC recomputation.
    """
    if not 0 <= eid < len(h.edges):
        raise GraphError(f"edge id {eid} out of range")
    x, y = h.edges[eid]
    if len(h.vertices) <= _SMALL_RECOMPUTE:
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
