"""Undirected decompositions: bridges, 2ecc, biconnected blocks, 3ecc cactus.

Every decomposition reads one depth-first forest of the graph's CSR
arrays (``graph._dfs``, iterative, so deep graphs do not hit the recursion
limit).  Bridges, 2ecc and biconnected blocks come from low points computed
in one reverse-preorder sweep; none of them keeps an edge stack or a
union-find.

Inputs are undirected multigraphs; parallel edges are significant (a
parallel pair is never a bridge) and self-loops are ignored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Partition, PreconditionError, UGraph, _dfs

_COVER_SEED = 0x3ECC_CAC7
_COVER_BITS = 127


def connected_components(g: UGraph) -> Partition:
    _, order, parent, _ = _dfs(g.n, *g.csr(), range(g.n))
    comp = [-1] * g.n
    for v in order:
        comp[v] = v if parent[v] == -1 else comp[parent[v]]
    return Partition.from_labels({v: comp[v] for v in range(g.n)})


def _low_points(g: UGraph):
    """DFS forest of ``g`` plus low points: ``low[v]`` is the smallest
    preorder number reachable from v's subtree by one non-tree edge (a
    parallel copy of a tree edge counts).  One reverse-preorder sweep.
    Returns (pre, order, parent, parent_eid, low)."""
    start, dst, eids = g.csr()
    pre, order, parent, parent_eid = _dfs(g.n, start, dst, eids, range(g.n))
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
    return pre, order, parent, parent_eid, low


def bridges_2ecc(g: UGraph) -> tuple[tuple[int, ...], Partition]:
    """Bridges and the 2-edge-connected components of a multigraph.

    Deleting all bridges leaves connected components equal to the blocks of
    the returned partition; the partition covers every vertex.  The tree
    edge into v is a bridge iff low[v] = pre[v], and v's component is its
    parent's unless that edge is a bridge.
    """
    pre, order, parent, parent_eid, low = _low_points(g)
    bridges: list[int] = []
    label = [-1] * g.n
    for v in order:
        p = parent[v]
        if p == -1:
            label[v] = v
        elif low[v] == pre[v]:
            bridges.append(parent_eid[v])
            label[v] = v
        else:
            label[v] = label[p]
    return tuple(sorted(bridges)), Partition.from_labels(
        {v: label[v] for v in range(g.n)}
    )


@dataclass(frozen=True)
class BlockForest:
    """Biconnected components (as edge-id sets) plus articulation data."""

    blocks: tuple[tuple[int, ...], ...]
    articulation: tuple[int, ...]
    vertex_blocks: tuple[tuple[int, ...], ...]  # block ids containing each vertex


def biconnected(g: UGraph) -> BlockForest:
    """Standard block decomposition; a self-loop belongs to no block.

    The tree edge into v opens a block when low[v] >= pre[parent]
    (making the parent an articulation point unless it is a root), and
    otherwise joins its parent's tree-edge block.  Every edge belongs to
    the block of the tree edge into its deeper end.
    """
    n = g.n
    pre, order, parent, _, low = _low_points(g)
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
    blocks = [tuple(blk) for blk in members]
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
    start, dst, eids = g.csr()
    pre, order, parent, parent_eid = _dfs(n, start, dst, eids, range(n))
    if sum(1 for v in range(n) if parent[v] == -1) != 1:
        raise PreconditionError("graph is not connected")

    rng = random.Random(_COVER_SEED)
    xormark = [0] * n
    cnt_low = [0] * n
    cnt_up = [0] * n
    label_owner: dict[int, int] = {}
    seen_eid: set[int] = set()
    for v in order:
        for j in range(start[v], start[v + 1]):
            w, eid = dst[j], eids[j]
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
    size = [1] * n
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            cover_hash[p] ^= cover_hash[v]
            cover_cnt[p] += cover_cnt[v]
            size[p] += size[v]
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
    quotient = UGraph._trusted(k, tuple(q_pairs))
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
