"""SPQR trees of biconnected multigraphs and marked vertex-edge blocks.

One builder serves both.  ``_triconnected_components`` splits a biconnected
multigraph into its triconnected components in linear time: parallel
bundles first, then Hopcroft & Tarjan's path search ("Dividing a graph
into triconnected components", SIAM J. Comput. 1973) with the corrections
of Gutwenger & Mutzel ("A linear time implementation of SPQR-trees",
GD 2000), then adjacent bonds and adjacent polygons are merged.  Its
palm tree is the depth-first forest ``biconnected`` already ran, read per
block by ``_block_components``, the one way ``spqr`` and ``marked_veb``
reach the builder; only the path finder and the path search keep their
own stacks, so nothing recurses.  ``spqr`` wraps the result as an
``SpqrTree``.

A vertex-edge cut pair (v, e) always shows up as an S-node whose skeleton
contains v and the real edge e, with v not an end of e.  ``marked_veb``
reads its blocks off the S-nodes of each biconnected block that holds
marked vertices, in O(m) overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Partition, PreconditionError, UGraph, _roots
from .undirected import _biconnected

Tag = tuple[str, int]  # ("real", edge id) | ("virtual", pair id)


@dataclass(frozen=True)
class SpqrNode:
    kind: str  # "S" | "P" | "R" | "Q"
    edges: tuple[tuple[int, int, Tag], ...]

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for u, w, _ in self.edges for v in (u, w)}))


@dataclass(frozen=True)
class SpqrTree:
    """Nodes plus tree adjacency; tree edge (a, b, p) joins the two nodes
    that share virtual pair p."""

    nodes: tuple[SpqrNode, ...]
    tree_edges: tuple[tuple[int, int, int], ...]  # (node_a, node_b, pair id)


_TREE, _FROND, _REMOVED = 1, 2, 3
_EOS = (0, -1, 0)


def _triconnected_components(
    n: int, src: list[int], dst: list[int]
) -> tuple[list[str], list[list[int]], list[int], list[int]]:
    """SPQR nodes of a biconnected multigraph on vertices 0..n-1, given as a
    palm tree: vertex i is the i-th in the preorder of a depth-first tree,
    and edge e runs from ``src[e]`` to ``dst[e]``, down to a child if
    ``src[e] < dst[e]`` (a tree arc) and else up to an ancestor (a frond;
    parallel copies of a tree arc are fronds).  No self-loops; every vertex
    is on an edge.  The two lists are taken over: they come back extended
    by the virtual edges.  Returns ``(kinds, members, src, dst)``: node i
    has kind ``kinds[i]`` ("S", "P", "R", or "Q" for a lone edge) and
    skeleton edges ``members[i]``.  Edge ids below the input edge count are
    input edges; larger ids are virtual edges, each in exactly two
    skeletons.  Linear time, no recursion.
    """
    m0 = len(src)
    if n == 2:
        return ["P" if m0 >= 2 else "Q"], [list(range(m0))], src, dst
    kinds: list[str] = []
    members: list[list[int]] = []

    # Parallel bundles become bonds; one virtual edge stands in for each,
    # a tree arc if one of its copies is.
    etype = [_TREE if src[e] < dst[e] else _FROND for e in range(m0)]
    bundles: dict[int, list[int]] = {}
    for e in range(m0):
        a, b = src[e], dst[e]
        bundles.setdefault(a * n + b if a < b else b * n + a, []).append(e)
    for key, group in bundles.items():
        if len(group) > 1:
            a, b = divmod(key, n)
            t = _TREE if any(etype[e] == _TREE for e in group) else _FROND
            for e in group:
                etype[e] = _REMOVED
            group.append(len(src))
            src.append(a if t == _TREE else b)
            dst.append(b if t == _TREE else a)
            etype.append(t)
            kinds.append("P")
            members.append(group)
    del bundles
    m_all = len(src)

    # Degrees, tree parents, and low points and subtree sizes in one
    # reverse-preorder sweep.  A vertex is its own preorder number.
    low1 = list(range(n))
    low2 = list(range(n))
    nd = [1] * n
    parent = [-1] * n
    tree_arc = [-1] * n
    deg = [0] * n
    kids = [0] * n
    for e in range(m_all):
        t = etype[e]
        if t == _REMOVED:
            continue
        v, w = src[e], dst[e]
        deg[v] += 1
        deg[w] += 1
        if t == _TREE:
            parent[w] = v
            tree_arc[w] = e
            kids[v] += 1
        elif w < low1[v]:
            low2[v] = low1[v]
            low1[v] = w
        elif low1[v] < w < low2[v]:
            low2[v] = w
    for v in range(n - 1, 0, -1):
        p = parent[v]
        if low1[v] < low1[p]:
            low2[p] = min(low1[p], low2[v])
            low1[p] = low1[v]
        elif low1[v] == low1[p]:
            low2[p] = min(low2[p], low2[v])
        else:
            low2[p] = min(low2[p], low1[v])
        nd[p] += nd[v]

    # Acceptable adjacency structure: arcs bucket-sorted by phi (each
    # bucket a linked list through bnext).
    bhead = [-1] * (3 * n)
    bnext = [-1] * m_all
    for e in range(m_all):
        t = etype[e]
        if t == _FROND:
            phi = 3 * dst[e] + 1
        elif t == _TREE:
            w = dst[e]
            phi = 3 * low1[w] if low2[w] < src[e] else 3 * low1[w] + 2
        else:
            continue
        bnext[e] = bhead[phi]
        bhead[phi] = e
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in bhead:
        while e >= 0:
            adj[src[e]].append(e)
            e = bnext[e]
    del bhead, bnext

    # Path finder: path starts, the renumbering under which the
    # first path visited from a vertex holds the highest numbers, and the
    # fronds entering each vertex in visiting order, as a doubly linked
    # list (hhead / hnext / hprev, owner hown) whose head gives high(v).
    newnum = [0] * n
    starts = bytearray(m_all)
    hhead = [-1] * (n + 1)
    htail = [-1] * (n + 1)
    hnext = [-1] * m_all
    hprev = [-1] * m_all
    hown = [-1] * m_all

    def link(e: int, x: int, p: int, q: int) -> None:
        """List e among the fronds entering x, between p and q (-1: none)."""
        hown[e], hprev[e], hnext[e] = x, p, q
        if p < 0:
            hhead[x] = e
        else:
            hnext[p] = e
        if q >= 0:
            hprev[q] = e

    num_count = n
    new_path = True
    newnum[0] = 1
    ptr = [0] * n
    stack = [0]
    while stack:
        v = stack[-1]
        lst = adj[v]
        i = ptr[v]
        if i < len(lst):
            e = lst[i]
            ptr[v] = i + 1
            if new_path:
                new_path = False
                starts[e] = 1
            w = dst[e]
            if etype[e] == _TREE:
                newnum[w] = num_count - nd[w] + 1
                stack.append(w)
            else:
                x = newnum[w]
                link(e, x, htail[x], -1)
                htail[x] = e
                new_path = True
        else:
            stack.pop()
            if stack:
                num_count -= 1
    del htail, ptr

    # From here on a vertex is its new number (1..n; 0 means none).
    orig = [0] * (n + 1)
    for v in range(n):
        orig[newnum[v]] = v
    newnum.append(0)  # the root's parent -1 becomes 0
    at = orig[1:]
    L1 = [0] + [newnum[low1[v]] for v in at]
    L2 = [0] + [newnum[low2[v]] for v in at]
    ND = [0] + [nd[v] for v in at]
    PAR = [0] + [newnum[parent[v]] for v in at]
    DEG = [0] + [deg[v] for v in at]
    TARC = [-1] + [tree_arc[v] for v in at]
    outv = [0] + [kids[v] for v in at]
    ADJ = [[]] + [adj[v] for v in at]
    src[:] = [newnum[v] for v in src]
    dst[:] = [newnum[v] for v in dst]
    del low1, low2, nd, parent, deg, tree_arc, kids, adj, newnum, at

    # Adjacency lists keep their slots: a deleted arc leaves -1 behind and
    # in_adj[e] is the slot of e in ADJ[src[e]].
    in_adj = [-1] * m_all
    for x in range(1, n + 1):
        for j, e in enumerate(ADJ[x]):
            in_adj[e] = j

    def new_edge(a: int, b: int) -> int:
        src.append(a)
        dst.append(b)
        etype.append(0)
        in_adj.append(-1)
        hnext.append(-1)
        hprev.append(-1)
        hown.append(-1)
        return len(src) - 1

    def del_high(e: int) -> None:
        x = hown[e]
        if x >= 0:
            p, q = hprev[e], hnext[e]
            if p < 0:
                hhead[x] = q
            else:
                hnext[p] = q
            if q >= 0:
                hprev[q] = p
            hown[e] = -1

    def high(x: int) -> int:
        e = hhead[x]
        return src[e] if e >= 0 else 0

    afirst = [0] * (n + 1)

    def first_child(x: int) -> int:
        lst = ADJ[x]
        j = afirst[x]
        while j < len(lst) and lst[j] < 0:
            j += 1
        afirst[x] = j
        return dst[lst[j]] if j < len(lst) else 0

    # Path search.  TSTACK (ts) holds triples (h, a, b); a == -1 marks an
    # end-of-stack (EOS) entry.
    es: list[int] = []
    ts = [_EOS]

    def open_path(lw: int, h: int, b: int) -> None:
        """A path starts: the triples with a > lw give way to one triple
        with their largest h and the last b, else (h, lw, b) is pushed."""
        if ts[-1][1] > lw:
            h = 0
            while ts[-1][1] > lw:
                th, _, b = ts.pop()
                if th > h:
                    h = th
        ts.append((h, lw, b))

    ipos = [0] * (n + 1)
    cur = [-1] * (n + 1)
    stack = [1]
    returning = False
    while stack:
        v = stack[-1]
        adjv = ADJ[v]
        i = ipos[v]
        if returning:
            returning = False
            e = cur[v]
            w = dst[e]
            es.append(TARC[w])

            # type-2 separation pairs
            while v != 1:
                h, a, b = ts[-1]
                dcase = DEG[w] == 2 and first_child(w) > w
                if a != v and not dcase:
                    break
                if a == v and PAR[b] == a:
                    ts.pop()
                    continue
                e_ab = -1
                if dcase:
                    e1 = es.pop()
                    e2 = es.pop()
                    ADJ[w][in_adj[e2]] = -1
                    x = dst[e2]
                    ev = new_edge(v, x)
                    DEG[x] -= 1
                    DEG[v] -= 1
                    kinds.append("S")
                    members.append([e1, e2, ev])
                    if es:
                        e1 = es[-1]
                        if src[e1] == x and dst[e1] == v:
                            e_ab = es.pop()
                            ADJ[x][in_adj[e_ab]] = -1
                            del_high(e_ab)
                else:
                    ts.pop()
                    comp: list[int] = []
                    while True:
                        xy = es[-1]
                        x, xt = src[xy], dst[xy]
                        if not (a <= x <= h and a <= xt <= h):
                            break
                        es.pop()
                        if (x == a and xt == b) or (xt == a and x == b):
                            e_ab = xy
                            ADJ[x][in_adj[xy]] = -1
                            del_high(xy)
                        else:
                            if xy != adjv[i]:
                                ADJ[x][in_adj[xy]] = -1
                                del_high(xy)
                            comp.append(xy)
                            DEG[x] -= 1
                            DEG[xt] -= 1
                    ev = new_edge(a, b)
                    comp.append(ev)
                    kinds.append("")
                    members.append(comp)
                    x = b
                if e_ab >= 0:
                    ev2 = new_edge(v, x)
                    kinds.append("P")
                    members.append([e_ab, ev, ev2])
                    ev = ev2
                    DEG[x] -= 1
                    DEG[v] -= 1
                es.append(ev)
                adjv[i] = ev
                in_adj[ev] = i
                DEG[x] += 1
                DEG[v] += 1
                PAR[x] = v
                TARC[x] = ev
                etype[ev] = _TREE
                w = x

            # type-1 separation pair
            lw = L1[w]
            if L2[w] >= v and lw < v and (PAR[v] != 1 or outv[v] >= 2):
                comp = []
                lo, hi = w, w + ND[w]
                x = xt = 0
                while es:
                    xy = es[-1]
                    x, xt = src[xy], dst[xy]
                    if not (lo <= x < hi or lo <= xt < hi):
                        break
                    comp.append(es.pop())
                    del_high(xy)
                    DEG[x] -= 1
                    DEG[xt] -= 1
                ev = new_edge(v, lw)
                comp.append(ev)
                kinds.append("")
                members.append(comp)
                if (x == v and xt == lw) or (xt == v and x == lw):
                    eh = es.pop()
                    if eh != adjv[i]:
                        ADJ[src[eh]][in_adj[eh]] = -1
                    ev2 = new_edge(v, lw)
                    kinds.append("P")
                    members.append([eh, ev, ev2])
                    ev = ev2
                    # the new edge takes over eh's place among the fronds
                    # entering lw
                    if hown[eh] >= 0:
                        link(ev, hown[eh], hprev[eh], hnext[eh])
                        hown[eh] = -1
                    DEG[v] -= 1
                    DEG[lw] -= 1
                if lw != PAR[v]:
                    es.append(ev)
                    adjv[i] = ev
                    in_adj[ev] = i
                    etype[ev] = _FROND
                    if hown[ev] < 0 and high(lw) < v:
                        link(ev, lw, -1, hhead[lw])
                    DEG[v] += 1
                    DEG[lw] += 1
                else:
                    adjv[i] = -1
                    ev2 = new_edge(lw, v)
                    eh = TARC[v]
                    kinds.append("P")
                    members.append([ev, ev2, eh])
                    TARC[v] = ev2
                    etype[ev2] = _TREE
                    in_adj[ev2] = in_adj[eh]
                    ADJ[lw][in_adj[eh]] = ev2

            if starts[e]:
                while ts.pop()[1] != -1:
                    pass
            hv = high(v)
            while True:
                h, a, b = ts[-1]
                if a == -1 or a == v or b == v or h >= hv:
                    break
                ts.pop()
            outv[v] -= 1
            i += 1

        while i < len(adjv):
            e = adjv[i]
            if e < 0:
                i += 1
                continue
            w = dst[e]
            if etype[e] == _TREE:
                if starts[e]:
                    open_path(L1[w], w + ND[w] - 1, v)
                    ts.append(_EOS)
                ipos[v] = i
                cur[v] = e
                stack.append(w)
                break
            if starts[e]:
                open_path(w, v, v)
            es.append(e)
            i += 1
        else:
            stack.pop()
            returning = True

    kinds.append("")
    members.append(es)

    # Name the split components: a non-bond split component is a polygon
    # iff it has as many edges as vertices.
    for k, kind in enumerate(kinds):
        if not kind:
            comp = members[k]
            verts = {src[e] for e in comp}
            verts.update(dst[e] for e in comp)
            kinds[k] = "S" if len(verts) == len(comp) else "R"

    # Merge adjacent bonds and adjacent polygons.  Virtual edge e lies in
    # split components home[e - m0] and twin[e - m0].
    m_all = len(src)
    home = [-1] * (m_all - m0)
    twin = [-1] * (m_all - m0)
    for k, comp in enumerate(members):
        for e in comp:
            if e >= m0:
                if home[e - m0] < 0:
                    home[e - m0] = k
                else:
                    twin[e - m0] = k
    joins = []
    dropped = bytearray(m_all)
    for e in range(m0, m_all):
        a, b = home[e - m0], twin[e - m0]
        if b < 0:
            raise AssertionError("virtual edge not in two split components")
        if kinds[a] == kinds[b] and kinds[a] in "SP":
            dropped[e] = 1
            joins.append((a, b))
    merged: dict[int, list[int]] = {}
    for r, comp in zip(_roots(len(members), joins), members):
        merged.setdefault(r, []).extend(e for e in comp if not dropped[e])
    out_kinds = [kinds[k] for k in merged]
    out_members = list(merged.values())
    return out_kinds, out_members, [orig[x] for x in src], [orig[x] for x in dst]


def _block_components(
    g: UGraph, blk: tuple[int, ...], dfs
) -> tuple[list[str], list[list[int]], list[int], list[int]]:
    """``_triconnected_components`` of the block of ``g`` with edge ids
    ``blk``, on the palm tree that the depth-first forest ``dfs`` of
    ``_biconnected`` gives it: restricted to one block, that forest is a
    depth-first tree of the block.  Edge i < len(blk) is g's edge blk[i],
    and ``src``/``dst`` come back in g's vertex ids."""
    pre, _, _, parent_eid = dfs
    gedges = g.edges
    verts = sorted({v for e in blk for v in gedges[e]}, key=pre.__getitem__)
    local = dict(zip(verts, range(len(verts))))
    src, dst = [], []
    for e in blk:
        a, b = gedges[e]
        if pre[a] > pre[b]:
            a, b = b, a
        if parent_eid[b] != e:  # a frond runs up, from the descendant
            a, b = b, a
        src.append(local[a])
        dst.append(local[b])
    kinds, members, src, dst = _triconnected_components(len(verts), src, dst)
    return kinds, members, [verts[v] for v in src], [verts[v] for v in dst]


def spqr(g: UGraph) -> SpqrTree:
    """SPQR tree of a connected biconnected multigraph.

    Accepts two-vertex bonds (P node) and, degenerately, a single edge
    (lone Q node).  Rejects graphs that are not biconnected.  Nodes are
    sorted by kind, then by their edges with virtual-pair ids left out.
    Within a node, virtual edges with equal ends go by the key of the node
    across each, so the tree does not depend on how the builder numbers
    them; pair ids are then numbered in order of first appearance.
    """
    if g.n < 2 or g.m == 0:
        raise PreconditionError("spqr requires at least one edge on two vertices")
    bf, dfs = _biconnected(g)
    if len(bf.blocks) != 1 or len(bf.blocks[0]) != sum(u != v for u, v in g.edges):
        raise PreconditionError("spqr requires a biconnected graph")
    blk = bf.blocks[0]
    kinds, members, src, dst = _block_components(g, blk, dfs)
    m0 = len(blk)

    def key_edge(e: int) -> tuple[int, int, str, int]:
        a, b = src[e], dst[e]
        if a > b:
            a, b = b, a
        return (a, b, "real", blk[e]) if e < m0 else (a, b, "virtual", -1)

    keys = [(kind, tuple(sorted(map(key_edge, comp)))) for kind, comp in zip(kinds, members)]
    keys, members = zip(*sorted(zip(keys, members), key=lambda item: item[0]))
    at: dict[int, list[int]] = {}  # the two nodes that hold each virtual edge
    for i, comp in enumerate(members):
        for e in comp:
            if e >= m0:
                at.setdefault(e, []).append(i)
    if any(len(ks) != 2 for ks in at.values()):
        raise AssertionError("virtual pair does not appear exactly twice")

    def edge_order(i: int, e: int):
        # virtual edges with equal ends go by the key of the node across
        return key_edge(e), keys[sum(at[e]) - i] if e >= m0 else (), e

    pid: dict[int, int] = {}
    nodes = []
    for i, ((kind, _), comp) in enumerate(zip(keys, members)):
        edges = []
        for e in sorted(comp, key=lambda e: edge_order(i, e)):
            a, b, tk, tid = key_edge(e)
            if tk == "virtual":
                tid = pid.setdefault(e, len(pid))
            edges.append((a, b, (tk, tid)))
        nodes.append(SpqrNode(kind, tuple(sorted(edges))))
    return SpqrTree(tuple(nodes), tuple(sorted((*at[e], p) for e, p in pid.items())))


def marked_veb(g: UGraph, marked: Iterable[int]) -> Partition:
    """Marked vertex-edge blocks: the partition of the unmarked vertices in
    which u, w share a block iff they stay connected in g minus {v, e} for
    every marked vertex v and every edge e.

    Marked vertices must not be articulation points of their component.
    Blocks without marked vertices keep their unmarked vertices together,
    except a bridge (a one-edge block) when any vertex is marked: deleting
    it with that vertex separates its ends.
    In every other biconnected block B, (v, e) separates B iff v and the
    real edge e lie on one S-node cycle of B's SPQR tree, with v not an
    end of e.  Call an S-node active when its cycle holds a marked vertex
    and a real edge.  One union-find joins: every other node whole, each
    run of an active cycle between two cuts (marked vertices and real
    edges), the two copies of each virtual edge, and each unmarked vertex
    across its nodes and blocks (marked vertices join nothing).  Unmarked
    u and w share a block iff they end up joined.  O(m) overall.
    """
    marked_set = frozenset(int(v) for v in marked)
    for v in marked_set:
        if not 0 <= v < g.n:
            raise PreconditionError(f"marked vertex {v} out of range")
    bf, dfs = _biconnected(g)
    bad = marked_set & set(bf.articulation)
    if bad:
        raise PreconditionError(f"marked vertices {sorted(bad)} are articulation points")
    is_marked = bytearray(g.n)
    for v in marked_set:
        is_marked[v] = 1

    # elements: the vertices, then one per virtual edge of each block
    size, joins = g.n, []
    gedges = g.edges
    for blk in bf.blocks:
        if len(blk) == 1 and marked_set:
            continue
        if not any(is_marked[v] for eid in blk for v in gedges[eid]):
            joins += (gedges[eid] for eid in blk)
            continue
        kinds, members, src, dst = _block_components(g, blk, dfs)
        m0 = len(blk)
        base = size - m0
        size = base + len(src)
        for kind, comp in zip(kinds, members):
            active = kind == "S" and any(e < m0 for e in comp) and any(
                is_marked[src[e]] or is_marked[dst[e]] for e in comp
            )
            if active:
                for e in comp:
                    if e >= m0:
                        for x in (src[e], dst[e]):
                            if not is_marked[x]:
                                joins.append((base + e, x))
                continue
            rep = -1
            for e in comp:
                for x in (src[e], dst[e]):
                    if not is_marked[x]:
                        if rep < 0:
                            rep = x
                        else:
                            joins.append((rep, x))
                if e >= m0:
                    if rep < 0:
                        rep = base + e
                    else:
                        joins.append((rep, base + e))

    root = _roots(size, joins)
    return Partition._grouped((v, root[v]) for v in range(g.n) if not is_marked[v])
