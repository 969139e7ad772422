"""Undirected decompositions: bridges, 2ecc, biconnected blocks, 3ecc cactus.

All traversals are iterative so deep graphs do not hit the recursion limit.
Inputs are undirected multigraphs; parallel edges are significant (a
parallel pair is never a bridge) and self-loops are ignored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Partition, PreconditionError, UGraph

_COVER_SEED = 0x3ECC_CAC7
_COVER_BITS = 127


def connected_components(g: UGraph) -> Partition:
    start, dst, _ = g.csr()
    comp = [-1] * g.n
    c = 0
    for root in range(g.n):
        if comp[root] != -1:
            continue
        comp[root] = c
        stack = [root]
        while stack:
            v = stack.pop()
            for j in range(start[v], start[v + 1]):
                w = dst[j]
                if comp[w] == -1:
                    comp[w] = c
                    stack.append(w)
        c += 1
    return Partition.from_labels({v: comp[v] for v in range(g.n)})


def _dfs_forest(g: UGraph):
    """Iterative DFS. Returns (pre, order, parent, parent_eid, size)."""
    start, dst, eids = g.csr()
    n = g.n
    pre = [-1] * n
    parent = [-1] * n
    parent_eid = [-1] * n
    size = [1] * n
    order: list[int] = []
    ptr = list(start[:n])
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = len(order)
        order.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            advanced = False
            end = start[v + 1]
            i = ptr[v]
            while i < end:
                w = dst[i]
                e = eids[i]
                i += 1
                if pre[w] == -1:
                    ptr[v] = i
                    pre[w] = len(order)
                    order.append(w)
                    parent[w] = v
                    parent_eid[w] = e
                    stack.append(w)
                    advanced = True
                    break
            if not advanced:
                ptr[v] = i
                stack.pop()
                if parent[v] != -1:
                    size[parent[v]] += size[v]
    return pre, order, parent, parent_eid, size


def bridges_2ecc(g: UGraph) -> tuple[tuple[int, ...], Partition]:
    """Bridges and the 2-edge-connected components of a multigraph.

    Deleting all bridges leaves connected components equal to the blocks of
    the returned partition; the partition covers every vertex.
    """
    start, dst, eids = g.csr()
    n = g.n
    pre = [-1] * n
    low = [0] * n
    parent_eid = [-1] * n
    ptr = list(start[:n])
    timer = 0
    bridges: list[int] = []
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = low[root] = timer
        timer += 1
        stack = [root]
        while stack:
            v = stack[-1]
            advanced = False
            end = start[v + 1]
            i = ptr[v]
            lv = low[v]
            while i < end:
                w = dst[i]
                e = eids[i]
                i += 1
                if pre[w] == -1:
                    ptr[v] = i
                    low[v] = lv
                    pre[w] = low[w] = timer
                    timer += 1
                    parent_eid[w] = e
                    stack.append(w)
                    advanced = True
                    break
                if e != parent_eid[v] and pre[w] < lv:
                    lv = pre[w]
            if not advanced:
                ptr[v] = i
                low[v] = lv
                stack.pop()
                if stack:
                    p = stack[-1]
                    if lv < low[p]:
                        low[p] = lv
                    if lv > pre[p]:
                        bridges.append(parent_eid[v])
    bridge_set = set(bridges)
    # 2ecc blocks = components after bridge deletion
    uf = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for eid, (a, b) in enumerate(g.edges):
        if eid in bridge_set or a == b:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            uf[rb] = ra
    return tuple(sorted(bridge_set)), Partition.from_labels(
        {v: find(v) for v in range(n)}
    )


@dataclass(frozen=True)
class BlockForest:
    """Biconnected components (as edge-id sets) plus articulation data."""

    blocks: tuple[tuple[int, ...], ...]
    articulation: tuple[int, ...]
    vertex_blocks: tuple[tuple[int, ...], ...]  # block ids containing each vertex


def biconnected(g: UGraph) -> BlockForest:
    """Standard block decomposition; a self-loop belongs to no block."""
    adj = g.adj()
    n = g.n
    pre = [-1] * n
    low = [0] * n
    parent_eid = [-1] * n
    ptr = [0] * n
    timer = 0
    estack: list[int] = []
    blocks: list[tuple[int, ...]] = []
    artic: set[int] = set()
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [root]
        while stack:
            v = stack[-1]
            advanced = False
            a = adj[v]
            while ptr[v] < len(a):
                w, eid = a[ptr[v]]
                ptr[v] += 1
                if pre[w] == -1:
                    pre[w] = low[w] = timer
                    timer += 1
                    parent_eid[w] = eid
                    estack.append(eid)
                    if v == root:
                        root_children += 1
                    stack.append(w)
                    advanced = True
                    break
                if eid != parent_eid[v] and pre[w] < pre[v]:
                    estack.append(eid)
                    if pre[w] < low[v]:
                        low[v] = pre[w]
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= pre[p]:
                        # pop the block hanging below (p, v)
                        blk: list[int] = []
                        while True:
                            eid = estack.pop()
                            blk.append(eid)
                            if eid == parent_eid[v]:
                                break
                        blocks.append(tuple(sorted(blk)))
                        if p != root:
                            artic.add(p)
        if root_children >= 2:
            artic.add(root)
    blocks.sort()
    vblocks: list[list[int]] = [[] for _ in range(n)]
    for bid, blk in enumerate(blocks):
        seen: set[int] = set()
        for eid in blk:
            for v in g.edges[eid]:
                if v not in seen:
                    seen.add(v)
                    vblocks[v].append(bid)
    return BlockForest(
        tuple(blocks),
        tuple(sorted(artic)),
        tuple(tuple(b) for b in vblocks),
    )


# ---------------------------------------------------------------------------
# 3-edge-connected components and their cactus.
#
# For a connected 2-edge-connected multigraph every 2-edge cut is, with
# respect to a DFS tree, either (tree edge t, back edge b) with b the unique
# back edge covering t, or (t1, t2) with identical covering back-edge sets.
# Cover sets are compared by xor-hashing random 127-bit labels over subtree
# aggregates (deterministic under the fixed seed; validated against the
# brute-force oracle in the test suite).  The effective cut sides form a
# laminar family of preorder-interval unions, so two vertices are
# 3-edge-connected iff the innermost side containing them is the same.
# ---------------------------------------------------------------------------


def three_ecc_classes(g: UGraph) -> Partition:
    """3-edge-connected classes of a connected 2-edge-connected multigraph."""
    n = g.n
    if n == 0:
        return Partition([])
    if n == 1:
        return Partition([[0]])
    adj = g.adj()
    pre, order, parent, parent_eid, size = _dfs_forest(g)
    if sum(1 for v in range(n) if parent[v] == -1) != 1:
        raise PreconditionError("graph is not connected")

    rng = random.Random(_COVER_SEED)
    xormark = [0] * n
    cnt_low = [0] * n
    cnt_up = [0] * n
    label_owner: dict[int, int] = {}
    seen_eid: set[int] = set()
    for v in order:
        for w, eid in adj[v]:
            if eid == parent_eid[v] or eid in seen_eid or eid == parent_eid[w]:
                continue
            seen_eid.add(eid)
            lo, hi = (v, w) if pre[v] > pre[w] else (w, v)
            h = rng.getrandbits(_COVER_BITS) | 1
            label_owner[h] = eid
            xormark[lo] ^= h
            xormark[hi] ^= h
            cnt_low[lo] += 1
            cnt_up[hi] += 1

    cover_hash = list(xormark)
    cover_cnt = [cnt_low[v] - cnt_up[v] for v in range(n)]
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            cover_hash[p] ^= cover_hash[v]
            cover_cnt[p] += cover_cnt[v]
    for v in order:
        if parent[v] != -1 and cover_cnt[v] == 0:
            raise PreconditionError("graph is not 2-edge-connected")

    # cut sides as unions of preorder segments
    sides: dict[tuple[tuple[int, int], ...], int] = {}

    def add_side(segs: list[tuple[int, int]]) -> None:
        key = tuple((l, r) for l, r in segs if r > l)
        if key and key not in sides:
            sides[key] = len(sides)

    groups: dict[int, list[int]] = {}
    for v in order:
        if parent[v] == -1:
            continue
        if cover_cnt[v] == 1:
            if cover_hash[v] not in label_owner:
                raise AssertionError("cover-hash bookkeeping failed")
            add_side([(pre[v], pre[v] + size[v])])
        else:
            groups.setdefault(cover_hash[v], []).append(v)
    for vs in groups.values():
        if len(vs) < 2:
            continue
        vs.sort(key=lambda v: pre[v])
        for a, b in zip(vs, vs[1:]):
            if not pre[a] < pre[b] < pre[a] + size[a]:
                raise AssertionError("equal-cover tree edges are not nested")
            add_side(
                [(pre[a], pre[b]), (pre[b] + size[b], pre[a] + size[a])]
            )

    # innermost-side sweep over preorder positions; segments opening at the
    # same position are pushed outermost first: by segment end, then by the
    # side's total span (of two nested sides sharing a segment, the outer
    # one is the larger)
    opens: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    closes: list[list[int]] = [[] for _ in range(n + 1)]
    for segs, sid in sides.items():
        span = sum(r - l for l, r in segs)
        for l, r in segs:
            opens[l].append((r, span, sid))
            closes[r].append(sid)
    stack: list[int] = []
    label = [-1] * n
    for p in range(n):
        if closes[p]:
            pending = set(closes[p])
            while pending and stack and stack[-1] in pending:
                pending.discard(stack.pop())
            if pending:
                raise AssertionError("cut sides are not laminar")
        for _, _, sid in sorted(opens[p], reverse=True):
            stack.append(sid)
        label[p] = stack[-1] if stack else -1
    return Partition.from_labels({order[p]: label[p] for p in range(n)})


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
    classes = three_ecc_classes(g)
    phi_map = classes.block_index()
    phi = tuple(phi_map[v] for v in range(g.n))
    k = len(classes)
    q_pairs: list[tuple[int, int]] = []
    q_origin: list[int] = []
    for eid, (a, b) in enumerate(g.edges):
        if a == b or phi[a] == phi[b]:
            continue
        q_pairs.append((phi[a], phi[b]))
        q_origin.append(eid)
    quotient = UGraph(k, q_pairs)
    bf = biconnected(quotient)

    cycle_of_qedge = [-1] * len(q_pairs)
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
        # walk the cycle from its smallest node, preferring small edge ids
        v = min(inc)
        walk: list[int] = []
        used: set[int] = set()
        while len(walk) < len(blk):
            nxt = min((qe for qe in inc[v] if qe not in used), default=None)
            if nxt is None:
                raise AssertionError("cactus block is not a cycle")
            used.add(nxt)
            walk.append(nxt)
            a, b = quotient.edges[nxt]
            v = b if v == a else a
        cid = len(cycles)
        cycles.append(tuple(walk))
        for qe in walk:
            cycle_of_qedge[qe] = cid

    edges = tuple(
        (q_pairs[i][0], q_pairs[i][1], cycle_of_qedge[i], q_origin[i])
        for i in range(len(q_pairs))
    )
    cyc_as_edge_indices = []
    for cyc in cycles:
        cyc_as_edge_indices.append(tuple(cyc))
    return Cactus(k, phi, edges, tuple(cyc_as_edge_indices), classes)
