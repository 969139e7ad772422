"""Flow-graph machinery: dominator trees, flow-graph bridges, strong bridges.

A flow graph is a digraph with a start vertex s from which every vertex is
reachable.  A bridge of the flow graph is an edge lying on every path from
s to its head; bridge heads are the *marked* vertices, and removing all
bridges from the dominator tree decomposes it into rooted subtrees T(r),
one per marked vertex plus T(s).

An edge of a strongly connected digraph is a strong bridge iff it is a
bridge of the flow graph from an arbitrary fixed source or its reversal is
one of the reverse flow graph (or both).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DiGraph, PreconditionError, _dfs


class DomTree:
    """Immediate-dominator tree of a flow graph with O(1) ancestor queries."""

    __slots__ = ("s", "idom", "children", "pre", "size", "order")

    def __init__(self, s: int, idom: list[int], n: int):
        self.s = s
        self.idom: tuple[int, ...] = tuple(idom)
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v != s and idom[v] >= 0:
                children[idom[v]].append(v)
        self.children: tuple[tuple[int, ...], ...] = tuple(tuple(c) for c in children)
        pre = [-1] * n
        size = [1] * n
        order: list[int] = []
        stack = [s]
        while stack:
            v = stack.pop()
            pre[v] = len(order)
            order.append(v)
            for c in reversed(self.children[v]):
                stack.append(c)
        for v in reversed(order):
            p = self.idom[v]
            if v != s and p >= 0:
                size[p] += size[v]
        self.pre: tuple[int, ...] = tuple(pre)
        self.size: tuple[int, ...] = tuple(size)
        self.order: tuple[int, ...] = tuple(order)

    def dominates(self, u: int, v: int) -> bool:
        """True iff u is an ancestor of v in the tree (u dominates v)."""
        return self.pre[u] <= self.pre[v] < self.pre[u] + self.size[u]


def dominator_tree(g: DiGraph, s: int) -> DomTree:
    """Lengauer-Tarjan (simple link-eval with path compression).

    Requires every vertex to be reachable from ``s``.
    """
    n = g.n
    if not 0 <= s < n:
        raise PreconditionError(f"source {s} out of range")
    ostart, odst, oeid = g.out_csr()
    istart, isrc, _ = g.in_csr()

    dfn, verts, par, _ = _dfs(n, ostart, odst, oeid, (s,))
    if len(verts) != n:
        missing = next(v for v in range(n) if dfn[v] == -1)
        raise PreconditionError(f"vertex {missing} unreachable from source {s}")

    sdom = dfn[:]  # semidominator as a dfs number
    ancestor = [-1] * n
    label = list(range(n))
    idom = [-1] * n
    bucket: list[list[int]] = [[] for _ in range(n)]

    def evaluate(v: int) -> int:
        if ancestor[v] == -1:
            return v
        # path-compress onto the forest root, keeping min-sdom labels
        path = []
        u = v
        while ancestor[ancestor[u]] != -1:
            path.append(u)
            u = ancestor[u]
        for x in reversed(path):
            a = ancestor[x]
            if sdom[label[a]] < sdom[label[x]]:
                label[x] = label[a]
            ancestor[x] = ancestor[a]
        return label[v]

    for i in range(n - 1, 0, -1):
        w = verts[i]
        sw = sdom[w]
        for j in range(istart[w], istart[w + 1]):
            u = isrc[j]
            if u == w or dfn[u] == -1:
                continue
            cand = sdom[evaluate(u)]
            if cand < sw:
                sw = cand
        sdom[w] = sw
        bucket[verts[sw]].append(w)
        p = par[w]
        ancestor[w] = p
        for v in bucket[p]:
            u = evaluate(v)
            idom[v] = u if sdom[u] < sdom[v] else p
        bucket[p].clear()
    for i in range(1, n):
        w = verts[i]
        if idom[w] != verts[sdom[w]]:
            idom[w] = idom[idom[w]]
    idom[s] = -1
    return DomTree(s, idom, n)


@dataclass(frozen=True)
class BridgeDecomposition:
    """Flow-graph bridges and the induced dominator-tree decomposition.

    ``tree_of[v]`` is the root r of the subtree T(r) containing v; the roots
    are the source plus the marked vertices (bridge heads).
    """

    s: int
    dom: DomTree
    flow_bridges: tuple[int, ...]
    marked: tuple[int, ...]
    tree_of: tuple[int, ...]
    subtrees: dict[int, tuple[int, ...]]


def flow_bridges(g: DiGraph, s: int) -> BridgeDecomposition:
    """All flow-graph bridges of ``g`` seen from source ``s``.

    An edge (u, v) is a bridge iff u = d(v), it has no parallel sibling, and
    every other edge into v comes from a vertex dominated by v.
    """
    dt = dominator_tree(g, s)
    istart, isrc, ieid = g.in_csr()
    bridges: list[int] = []
    marked: list[int] = []
    for v in range(g.n):
        if v == s:
            continue
        p = dt.idom[v]
        candidate = -1
        count = 0
        ok = True
        for j in range(istart[v], istart[v + 1]):
            u = isrc[j]
            if u == v:
                continue  # self-loop
            if u == p:
                count += 1
                candidate = ieid[j]
            elif not dt.dominates(v, u):
                ok = False
                break
        if ok and count == 1:
            bridges.append(candidate)
            marked.append(v)
    marked_set = set(marked)
    tree_of = [-1] * g.n
    for v in dt.order:
        if v == s or v in marked_set:
            tree_of[v] = v
        else:
            tree_of[v] = tree_of[dt.idom[v]]
    subtrees: dict[int, list[int]] = {}
    for v in range(g.n):
        subtrees.setdefault(tree_of[v], []).append(v)
    return BridgeDecomposition(
        s,
        dt,
        tuple(sorted(bridges)),
        tuple(sorted(marked)),
        tuple(tree_of),
        {r: tuple(vs) for r, vs in subtrees.items()},
    )


def _strongly_connected(g: DiGraph) -> bool:
    return g.n <= 1 or all(
        len(_dfs(g.n, *csr, (0,))[1]) == g.n for csr in (g.out_csr(), g.in_csr())
    )


def strong_bridges(g: DiGraph, _checked: bool = False) -> tuple[int, ...]:
    """Strong bridges of a strongly connected digraph.

    Union of the flow-graph bridges from the lowest vertex id and the
    (id-preserved) bridges of the reverse flow graph; independent of the
    source choice.
    """
    if g.n == 0:
        return ()
    if not _checked and not _strongly_connected(g):
        raise PreconditionError("strong_bridges requires a strongly connected graph")
    if g.m == 0:
        return ()
    s = 0
    es = set(flow_bridges(g, s).flow_bridges)
    es.update(flow_bridges(g.reverse(), s).flow_bridges)
    return tuple(sorted(es))
