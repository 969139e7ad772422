"""Flow-graph machinery: dominator trees, flow-graph bridges, strong bridges.

A flow graph is a digraph with a start vertex s from which every vertex is
reachable.  A bridge of the flow graph is an edge lying on every path from
s to its head; bridge heads are the *marked* vertices, and removing all
bridges from the dominator tree decomposes it into rooted subtrees T(r),
one per marked vertex plus T(s).

An edge of a strongly connected digraph is a strong bridge iff it is a
bridge of the flow graph from an arbitrary fixed source or its reversal is
one of the reverse flow graph (or both).

``dominator_tree`` is the simple link-eval Lengauer-Tarjan algorithm.  Its
working lists are indexed by DFS preorder number, its eval is one loop
with path halving, and its buckets are one linked list over two flat
lists.  ``DomTree`` keeps only what that loop leaves in preorder space;
its vertex-space views (``idom``, ``pre``, ``size``, ``order``) are built
on first read, which no pipeline path does.

A flow bridge into v lies on every path from s to v, so on v's DFS tree
path: it is the tree edge (par(v), v), and par(v) = idom(v).  So only a
vertex whose immediate dominator is its DFS parent can have one, and only
those vertices' in-edges are read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .graph import DiGraph, PreconditionError, _dfs


class DomTree:
    """Immediate-dominator tree of a flow graph with O(1) ancestor queries.

    ``idom[v]`` is v's immediate dominator (-1 for the source).  ``order``
    lists the tree in preorder, children by ascending vertex id; ``pre[v]``
    is v's place in it and ``size[v]`` the size of v's subtree.  These four
    views are built together on first read.  The tree keeps its DFS by
    preorder number i: vertex ``verts[i]``, whose preorder number is
    ``dfn[verts[i]]``, idom ``verts[dom[i]]`` and DFS parent
    ``verts[par[i]]``.
    """

    __slots__ = ("s", "dfn", "verts", "dom", "par", "_views")

    def __init__(self, s: int, dfn, verts, dom, par):
        self.s = s
        self.dfn, self.verts, self.dom, self.par = dfn, verts, dom, par
        self._views = None

    def _build_views(self):
        verts, dom, s = self.verts, self.dom, self.s
        n = len(verts)
        idom = [-1] * n
        for i in range(1, n):
            idom[verts[i]] = verts[dom[i]]
        idom = tuple(idom)
        kids: list[list[int]] = [[] for _ in range(n)]  # by ascending id
        for v in range(n):
            if v != s:
                kids[idom[v]].append(v)
        pre = array("l", bytes(8 * n))
        size = array("l", [1]) * n
        order = array("l")
        stack = [s]
        while stack:
            v = stack.pop()
            pre[v] = len(order)
            order.append(v)
            stack.extend(reversed(kids[v]))
        for v in reversed(order[1:]):
            size[idom[v]] += size[v]
        self._views = idom, pre, size, order
        return self._views

    idom = property(lambda self: (self._views or self._build_views())[0])
    pre = property(lambda self: (self._views or self._build_views())[1])
    size = property(lambda self: (self._views or self._build_views())[2])
    order = property(lambda self: (self._views or self._build_views())[3])

    def dominates(self, u: int, v: int) -> bool:
        """True iff u is an ancestor of v in the tree (u dominates v)."""
        return self.pre[u] <= self.pre[v] < self.pre[u] + self.size[u]


def dominator_tree(g: DiGraph, s: int) -> DomTree:
    """Lengauer-Tarjan, simple link-eval version (TOPLAS 1979).

    Everything is indexed by DFS preorder number, so vertex ids are read
    only to walk the in-edges, and the tree keeps those arrays.  Vertices are
    processed in decreasing preorder; each one is linked under its DFS
    parent once its semidominator is known.  An in-edge from a lower
    preorder number comes from a vertex not linked yet, whose eval is
    itself.  Eval walks up the link forest with path halving, keeping the
    vertex of least semidominator seen; a vertex is always linked under
    the root of its own tree, so eval is a union-find find and path
    halving gives the same O(m log n) bound as full compression (Tarjan
    & van Leeuwen, JACM 1984).  Buckets of vertices by semidominator are
    one linked list in ``bhead``/``bnext``.

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

    semi = list(range(n))
    label = semi[:]
    anc = [-1] * n  # link-forest parent; -1 for a root (not linked yet)
    dom = [0] * n
    ppar = [-1] * n  # DFS parent, by preorder
    bhead = [-1] * n
    bnext = [-1] * n
    for i in range(n - 1, 0, -1):
        w = verts[i]
        sw = i
        for x in isrc[istart[w] : istart[w + 1]]:
            x = dfn[x]
            if x > i:  # linked: eval(x), least semi on its path to the root
                sx = semi[label[x]]
                a = anc[x]
                while a >= 0:
                    b = anc[a]
                    lx = label[x]
                    if b >= 0:  # halve: x skips its parent
                        la = label[a]
                        if semi[la] < semi[lx]:
                            label[x] = lx = la
                        anc[x] = a = b
                    if semi[lx] < sx:
                        sx = semi[lx]
                    x = a
                    a = anc[x]
                x = sx
            if x < sw:
                sw = x
        semi[i] = sw
        bnext[i] = bhead[sw]
        bhead[sw] = i
        anc[i] = ppar[i] = p = dfn[par[w]]
        v = bhead[p]
        bhead[p] = -1
        while v >= 0:  # the same eval, keeping the vertex
            x = u = v
            a = anc[x]
            while a >= 0:
                b = anc[a]
                lx = label[x]
                if b >= 0:
                    la = label[a]
                    if semi[la] < semi[lx]:
                        label[x] = lx = la
                    anc[x] = a = b
                if semi[lx] < semi[u]:
                    u = lx
                x = a
                a = anc[x]
            dom[v] = u if semi[u] < p else p
            v = bnext[v]
    for i in range(1, n):
        if dom[i] != semi[i]:
            dom[i] = dom[dom[i]]
    return DomTree(s, dfn, verts, dom, ppar)


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


def _find_bridges(g: DiGraph, s: int):
    """(dominator tree, flow bridges, their heads) of ``g`` from ``s``,
    both tuples ascending: ``flow_bridges`` without the decomposition."""
    dt = dominator_tree(g, s)
    dfn, verts, dom, par = dt.dfn, dt.verts, dt.dom, dt.par
    n = g.n
    cands = [i for i in range(1, n) if dom[i] == par[i]]
    bridges, marked = [], []
    if cands:
        # dominator-subtree sizes, then a dominator-tree preorder, in DFS
        # preorder space, where a dominator precedes what it dominates
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[dom[i]] += size[i]
        dpre = [0] * n
        free = [1] * n  # the next number inside each subtree
        for i in range(1, n):
            p = dom[i]
            dpre[i] = lo = free[p]
            free[p] = lo + size[i]
            free[i] = lo + 1
        istart, isrc, ieid = g.in_csr()
        for i in cands:
            v, p = verts[i], verts[par[i]]
            lo = dpre[i]
            hi = lo + size[i]
            candidate, count = -1, 0
            for j in range(istart[v], istart[v + 1]):
                u = isrc[j]
                if u == p:
                    count += 1
                    candidate = ieid[j]
                elif not lo <= dpre[dfn[u]] < hi:  # u is not dominated by v
                    break
            else:
                if count == 1:
                    bridges.append(candidate)
                    marked.append(v)
    return dt, tuple(sorted(bridges)), tuple(sorted(marked))


def flow_bridges(g: DiGraph, s: int) -> BridgeDecomposition:
    """All flow-graph bridges of ``g`` seen from source ``s``.

    An edge (u, v) is a bridge iff u = d(v), it has no parallel sibling, and
    every other edge into v comes from a vertex dominated by v.
    """
    dt, bridges, marked = _find_bridges(g, s)
    n = g.n
    if not bridges:
        return BridgeDecomposition(s, dt, (), (), (s,) * n, {s: tuple(range(n))})
    verts, dom = dt.verts, dt.dom
    tree_of = [-1] * n
    for v in (s, *marked):
        tree_of[v] = v
    for i, v in enumerate(verts):  # dominators first
        if tree_of[v] < 0:
            tree_of[v] = tree_of[verts[dom[i]]]
    subtrees: dict[int, list[int]] = {}
    for v in range(n):
        subtrees.setdefault(tree_of[v], []).append(v)
    return BridgeDecomposition(
        s, dt, bridges, marked, tuple(tree_of), {r: tuple(vs) for r, vs in subtrees.items()}
    )


def _strongly_connected(g: DiGraph) -> bool:
    return g.n <= 1 or all(
        len(_dfs(g.n, *csr, (0,))[1]) == g.n for csr in (g.out_csr(), g.in_csr())
    )


def strong_bridges(g: DiGraph) -> tuple[int, ...]:
    """Strong bridges of a strongly connected digraph.

    Union of the flow-graph bridges from the lowest vertex id and the
    (id-preserved) bridges of the reverse flow graph; independent of the
    source choice.
    """
    if g.n == 0:
        return ()
    if not _strongly_connected(g):
        raise PreconditionError("strong_bridges requires a strongly connected graph")
    if g.m == 0:
        return ()
    es = set(_find_bridges(g, 0)[1])
    es.update(_find_bridges(g.reverse(), 0)[1])
    return tuple(sorted(es))
