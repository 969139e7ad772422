"""Root-path walk reference for first-level auxiliary graphs.

Each edge (x, y) walks from its tail's root up to its head's root and is
emitted into every member on the way: as (x, d(a)) into x's root a's
member, as (z, d(r)) into each member r in between (z the child root
toward x), and as (z, y) into the top member.  On a deep chain of strong
bridges the walks add up to about k^2/2 steps, so it serves as a check of
``auxiliary.build_first_level`` on small and mid-size inputs only.
"""

from __future__ import annotations

from twinscc.auxiliary import KIND_H1, AuxGraph
from twinscc.dominators import flow_bridges
from twinscc.graph import DiGraph


def build_first_level_walk(g: DiGraph, s: int) -> list[AuxGraph]:
    bd = flow_bridges(g, s)
    idom = {g.edges[e][1]: g.edges[e][0] for e in bd.flow_bridges}
    tree_of = bd.tree_of
    roots = sorted(bd.subtrees)

    parent_root = {r: tree_of[idom[r]] for r in roots if r != s}
    depth = {s: 0}
    for v in bd.dom.verts:  # DFS preorder: dominators come first
        if v in parent_root:
            depth[v] = depth[parent_root[v]] + 1

    counts: dict[int, dict[tuple[int, int], int]] = {r: {} for r in roots}

    def emit(r: int, u: int, v: int) -> None:
        if u != v:
            counts[r][(u, v)] = min(2, counts[r].get((u, v), 0) + 1)

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
        for i, r in enumerate(cx):
            emit(r, x if i == 0 else cx[i - 1], idom[r])
        if cy:
            if not (cy[0] == y and x == idom[y]):
                raise AssertionError("unexpected edge into a dominated subtree")
            emit(cy[0], x, y)
        emit(ax, x if not cx else cx[-1], y if not cy else cy[-1])

    children: dict[int, list[int]] = {r: [] for r in roots}
    for z, r in parent_root.items():
        children[r].append(z)
    out = []
    for r in roots:
        ordinary = frozenset(bd.subtrees[r])
        verts = set(bd.subtrees[r]) | set(children[r])
        crit = None
        if r != s:
            verts.add(idom[r])
            crit = (idom[r], r)
        edges = sorted((u, v) for (u, v), c in counts[r].items() for _ in range(c))
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
