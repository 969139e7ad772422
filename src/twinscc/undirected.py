"""Undirected decompositions: bridges, 2ecc, biconnected blocks, 3ecc cactus.

Every decomposition reads one depth-first forest of the graph's CSR
arrays (``graph._dfs``, iterative, so deep graphs do not hit the recursion
limit).  Bridges, 2ecc and biconnected blocks come from low points computed
in one reverse-preorder sweep; none of them keeps an edge stack or a
union-find.  The 2ecc and 3ecc kernels take CSR arrays and compare edge ids
only for equality; the public functions wrap them, and the 2eTSCC path runs
them on ``graph._underlying_csr``, sharing one tree.

Inputs are undirected multigraphs; parallel edges are significant (a
parallel pair is never a bridge) and self-loops are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Partition, PreconditionError, UGraph, _dfs


def connected_components(g: UGraph) -> Partition:
    _, order, parent, _ = _dfs(g.n, *g.csr(), range(g.n))
    comp = [-1] * g.n
    for v in order:
        comp[v] = v if parent[v] == -1 else comp[parent[v]]
    return Partition._grouped(enumerate(comp))


def _low_points(n: int, start, dst, eids):
    """DFS forest of a CSR graph plus low points: ``low[v]`` is the smallest
    preorder number reachable from v's subtree by one non-tree edge (a
    parallel copy of a tree edge counts).  One reverse-preorder sweep.
    Returns (dfs, low), ``dfs`` being what ``graph._dfs`` returns."""
    dfs = pre, order, parent, parent_eid = _dfs(n, start, dst, eids, range(n))
    low = pre[:]
    for v in reversed(order):
        lv = low[v]
        pe = parent_eid[v]
        for j in range(start[v], start[v + 1]):
            pw = pre[dst[j]]
            if pw < lv and eids[j] != pe:
                lv = pw
        low[v] = lv
        p = parent[v]
        if p != -1 and lv < low[p]:
            low[p] = lv
    return dfs, low


def _bridges_2ecc(n: int, csr):
    """``bridges_2ecc`` on CSR arrays whose ids are equal at both ends of an
    edge and unique per edge: (unsorted bridge ids, partition, DFS forest)."""
    dfs, low = _low_points(n, *csr)
    pre, order, parent, parent_eid = dfs
    bridges: list[int] = []
    label = [-1] * n
    for v in order:
        p = parent[v]
        if p == -1:
            label[v] = v
        elif low[v] == pre[v]:
            bridges.append(parent_eid[v])
            label[v] = v
        else:
            label[v] = label[p]
    return bridges, Partition._grouped(enumerate(label)), dfs


def bridges_2ecc(g: UGraph) -> tuple[tuple[int, ...], Partition]:
    """Bridges and the 2-edge-connected components of a multigraph.

    Deleting all bridges leaves connected components equal to the blocks of
    the returned partition; the partition covers every vertex.  The tree
    edge into v is a bridge iff low[v] = pre[v], and v's component is its
    parent's unless that edge is a bridge.
    """
    bridges, part, _ = _bridges_2ecc(g.n, g.csr())
    return tuple(sorted(bridges)), part


@dataclass(frozen=True)
class BlockForest:
    """Biconnected components (as edge-id sets) plus articulation data."""

    blocks: tuple[tuple[int, ...], ...]
    articulation: tuple[int, ...]


def biconnected(g: UGraph) -> BlockForest:
    """Standard block decomposition; a self-loop belongs to no block.

    The tree edge into v opens a block when low[v] >= pre[parent]
    (making the parent an articulation point unless it is a root), and
    otherwise joins its parent's tree-edge block.  Every edge belongs to
    the block of the tree edge into its deeper end.
    """
    return _biconnected(g)[0]


def _biconnected(g: UGraph):
    """``biconnected`` and the DFS forest it read (as ``graph._dfs`` returns
    it); restricted to one block, that forest is a DFS tree of the block."""
    n = g.n
    dfs, low = _low_points(n, *g.csr())
    pre, order, parent, _ = dfs
    block_of = [-1] * n
    nblocks = 0
    artic: set[int] = set()
    root_children = [0] * n
    for v in order:
        p = parent[v]
        if p == -1:
            continue
        if low[v] >= pre[p]:
            block_of[v] = nblocks
            nblocks += 1
            if parent[p] == -1:
                root_children[p] += 1
            else:
                artic.add(p)
        else:
            block_of[v] = block_of[p]
    artic.update(v for v in range(n) if root_children[v] >= 2)
    members: list[list[int]] = [[] for _ in range(nblocks)]
    for eid, (a, b) in enumerate(g.edges):
        if a != b:
            members[block_of[a] if pre[a] > pre[b] else block_of[b]].append(eid)
    return BlockForest(tuple(sorted(map(tuple, members))), tuple(sorted(artic))), dfs


# ---------------------------------------------------------------------------
# 3-edge-connected components and their cactus.
#
# Tsin's absorb-eject algorithm (Tsin, "Yet another optimal algorithm for
# 3-edge-connectivity", JDA 2009; Norouzi & Tsin, "A simple 3-edge connected
# component algorithm revisited", IPL 2014), deterministic and linear.  It
# transforms the graph while it backtracks over one depth-first tree:
#
# * a vertex w *absorbs* a vertex x it is found 3-edge-connected to, i.e.
#   contracts x into itself; sigma(w), the vertices contracted into w so
#   far, is recorded by pointing each absorbed x at w (``owner``);
# * a child u left with degree 2 (its tree edge and one other edge form a
#   2-edge cut) is *ejected*: sigma(u) is a final class, and u's two edges
#   are lifted into one edge that bypasses it.
#
# Each vertex w keeps a w-path (``nxt``): the tree path below w, of not yet
# absorbed vertices, down to where the back edge giving low[w] leaves.  An
# outgoing back edge that lowers low[w], or a child u whose low point is
# lower, makes w absorb its whole w-path (u's path then continues it);
# otherwise w absorbs u's whole path.  An incoming back edge from a
# descendant d makes w absorb its w-path down to the ancestor of d on it.
# ``deg`` counts a vertex's edges in the transformed graph.  Since every
# vertex's state is final once its subtree is, one sweep in reverse
# preorder does the work of the recursive formulation.
# ---------------------------------------------------------------------------


def three_ecc_classes(g: UGraph) -> Partition:
    """3-edge-connected classes of a connected 2-edge-connected multigraph."""
    return _three_ecc_classes(g.n, *g.csr())


def _three_ecc_classes(n: int, start, dst, eids, dfs=None) -> Partition:
    """``three_ecc_classes`` on CSR arrays with ids as in ``_bridges_2ecc``,
    sweeping ``dfs``, a DFS tree from vertex 0, or else a new one."""
    pre, order, parent, parent_eid = dfs or _dfs(n, start, dst, eids, range(n)[:1])
    if parent.count(-1) > 1:  # a second root, or unreached vertices
        raise PreconditionError("graph is not connected")

    low = pre[:]
    nd = [1] * n  # subtree sizes
    deg = [0] * n
    nxt = [-1] * n  # next vertex down the w-path, -1 at its end
    owner = [-1] * n  # the vertex that absorbed v, -1 if none did
    for w in reversed(order):
        pw = pre[w]
        pe = parent_eid[w]
        lw = pw
        dw = 0
        for j in range(start[w], start[w + 1]):
            u = dst[j]
            e = eids[j]
            dw += 1
            if e == pe:
                continue
            pu = pre[u]
            if pu > pw and parent_eid[u] == e:  # tree edge to the child u
                if low[u] >= pu:
                    raise PreconditionError("graph is not 2-edge-connected")
                nd[w] += nd[u]
                head = nxt[u] if deg[u] == 2 else u  # eject sigma(u)
                if lw <= low[u]:  # absorb the u-path
                    x = head
                    head = nxt[w]
                else:  # absorb the w-path; the u-path continues it
                    lw = low[u]
                    x = nxt[w]
                while x != -1:
                    dw += deg[x] - 2
                    owner[x] = w
                    x = nxt[x]
                nxt[w] = head
            elif pu < pw:  # outgoing back edge
                if pu < lw:  # absorb the w-path
                    lw = pu
                    x = nxt[w]
                    while x != -1:
                        dw += deg[x] - 2
                        owner[x] = w
                        x = nxt[x]
                    nxt[w] = -1
            else:  # incoming back edge from the descendant u: now a loop
                dw -= 2
                x = nxt[w]
                while x != -1 and pre[x] <= pu < pre[x] + nd[x]:
                    dw += deg[x] - 2
                    owner[x] = w
                    x = nxt[x]
                nxt[w] = x
        low[w] = lw
        deg[w] = dw

    label = [0] * n
    for v in order:  # an owner precedes the vertices it absorbed
        o = owner[v]
        label[v] = v if o == -1 else label[o]
    return Partition._grouped(enumerate(label))


@dataclass(frozen=True)
class Cactus:
    """Cactus of the 3-edge-connected components of a 2ec multigraph.

    Nodes are 3ecc classes (numbered by ascending minimum original vertex);
    ``phi`` maps each original vertex to its node.  ``edges[i]`` is
    (node_a, node_b, cycle_id, origin edge id); every cactus edge lies on
    exactly one cycle and ``cycles[c]`` lists the edge indices of cycle c in
    cyclic order.
    """

    node_count: int
    phi: tuple[int, ...]
    edges: tuple[tuple[int, int, int, int], ...]
    cycles: tuple[tuple[int, ...], ...]
    classes: Partition


def three_ecc_cactus(g: UGraph) -> Cactus:
    """Contract 3ecc classes; group the surviving edges into cut cycles."""
    return _cactus(three_ecc_classes(g), lambda phi: (
        (phi[a], phi[b], eid) for eid, (a, b) in enumerate(g.edges) if phi[a] != phi[b]
    ))


def _between(start, dst, ids, label):
    """(label[v], label[w], id) per CSR entry v < w whose labels differ."""
    for v in range(len(start) - 1):
        for j in range(start[v], start[v + 1]):
            w = dst[j]
            if v < w and label[w] != label[v]:
                yield label[v], label[w], ids[j]


def _cactus(classes: Partition, between) -> Cactus:
    """Cactus of a 2ec multigraph with 3ecc ``classes``; ``between(phi)``
    yields its edges between classes, in order, as (phi[a], phi[b], origin)."""
    phi_map = classes.block_index()
    phi = tuple(phi_map[v] for v in range(len(phi_map)))
    q = list(between(phi))
    quotient = UGraph._trusted(len(classes), tuple((a, b) for a, b, _ in q))
    bf = biconnected(quotient)
    cycle_of_qedge = [-1] * len(q)
    cycles: list[tuple[int, ...]] = []
    for blk in bf.blocks:
        # the block's own edges at each of its nodes (two per node on a cycle)
        inc: dict[int, list[int]] = {}
        for qe in blk:
            a, b = quotient.edges[qe]
            inc.setdefault(a, []).append(qe)
            inc.setdefault(b, []).append(qe)
        if any(len(es) != 2 for es in inc.values()):
            raise AssertionError("cactus block is not a cycle")
        # walk the cycle from its smallest node along the smaller of its
        # edges, then on along each node's other edge
        v = min(inc)
        walk = [min(inc[v])]
        while len(walk) < len(blk):
            a, b = quotient.edges[walk[-1]]
            v = b if v == a else a
            e, f = inc[v]
            walk.append(f if e == walk[-1] else e)
        for qe in walk:
            cycle_of_qedge[qe] = len(cycles)
        cycles.append(tuple(walk))

    edges = tuple((a, b, cycle_of_qedge[i], o) for i, (a, b, o) in enumerate(q))
    return Cactus(len(classes), phi, edges, tuple(cycles), classes)
