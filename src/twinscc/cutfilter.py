"""Sound filter for vertex-edge cut-pair membership in biconnected graphs.

``cut_pair_vertex_candidates(g)`` returns a superset of the vertices v for
which g minus v has a bridge (equivalently: v belongs to some vertex-edge
cut-pair).  It is on no computation path: ``marked_veb`` reads vertex-edge
cut pairs off SPQR S-nodes.  The module is kept for its soundness tests
and because the benchmark tracer still counts its calls.

Soundness sketch (g biconnected, DFS tree fixed; back edge (d, a) has the
descendant first; cov(t) are the back edges whose tree path passes tree
edge t = (p, x)):

* a cut pair (v, t) requires v to lie on every cycle through t, hence on
  every covering fundamental cycle: v sits on the tree path from the
  deepest covering anchor down to p (F1, upper segment) or from x down to
  the LCA of the covering starting points (F2, lower segment);
* a cut pair (v, f) whose separated side is the complement of subtree(v)
  requires all but at most one covering back edge of (p, v) to start at v
  itself (F3), and one whose side is a child subtree of v requires all but
  at most one covering back edge of (v, c) to be anchored at v (F1'');
* any remaining shape rides a 2-edge cut: F4 flags the endpoints of every
  2-edge-cut edge (singleton-cover tree edges plus their partner back
  edge, and equal-cover tree-edge groups); low-degree neighbourhoods are
  flagged outright.

The filter is validated empirically against per-vertex bridge inspection
by the test suite.
"""

from __future__ import annotations

import bisect
import random

from .graph import UGraph

_FILTER_SEED = 0xF11E


class _SumTree:
    """Segment tree over positions holding (count, min value, max value,
    min position, max position) of activated entries."""

    __slots__ = ("n", "cnt", "vmin", "vmax", "pmin", "pmax")

    INF = float("inf")

    def __init__(self, n: int):
        self.n = n
        size = 2 * n
        self.cnt = [0] * size
        self.vmin = [self.INF] * size
        self.vmax = [-self.INF] * size
        self.pmin = [self.INF] * size
        self.pmax = [-self.INF] * size

    def add(self, pos: int, value: float) -> None:
        i = pos + self.n
        while i:
            self.cnt[i] += 1
            if value < self.vmin[i]:
                self.vmin[i] = value
            if value > self.vmax[i]:
                self.vmax[i] = value
            if pos < self.pmin[i]:
                self.pmin[i] = pos
            if pos > self.pmax[i]:
                self.pmax[i] = pos
            i >>= 1

    def query(self, lo: int, hi: int):
        """Aggregate over positions [lo, hi)."""
        cnt = 0
        vmin = self.INF
        vmax = -self.INF
        pmin = self.INF
        pmax = -self.INF
        lo += self.n
        hi += self.n
        while lo < hi:
            if lo & 1:
                cnt += self.cnt[lo]
                if self.vmin[lo] < vmin:
                    vmin = self.vmin[lo]
                if self.vmax[lo] > vmax:
                    vmax = self.vmax[lo]
                if self.pmin[lo] < pmin:
                    pmin = self.pmin[lo]
                if self.pmax[lo] > pmax:
                    pmax = self.pmax[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                cnt += self.cnt[hi]
                if self.vmin[hi] < vmin:
                    vmin = self.vmin[hi]
                if self.vmax[hi] > vmax:
                    vmax = self.vmax[hi]
                if self.pmin[hi] < pmin:
                    pmin = self.pmin[hi]
                if self.pmax[hi] > pmax:
                    pmax = self.pmax[hi]
            lo >>= 1
            hi >>= 1
        return cnt, vmin, vmax, pmin, pmax


def cut_pair_vertex_candidates(g: UGraph) -> set[int]:
    """Superset of {v : g minus v has a bridge} for a biconnected g."""
    n = g.n
    if n <= 3:
        return set(range(n))
    adj = g.adj()

    pre = [-1] * n
    order: list[int] = []
    parent = [-1] * n
    parent_eid = [-1] * n
    size = [1] * n
    ptr = [0] * n
    pre[0] = 0
    order.append(0)
    stack = [0]
    while stack:
        v = stack[-1]
        advanced = False
        a = adj[v]
        while ptr[v] < len(a):
            w, eid = a[ptr[v]]
            ptr[v] += 1
            if pre[w] == -1:
                pre[w] = len(order)
                order.append(w)
                parent[w] = v
                parent_eid[w] = eid
                stack.append(w)
                advanced = True
                break
        if not advanced:
            stack.pop()
            if parent[v] != -1:
                size[parent[v]] += size[v]
    if len(order) != n:
        return set(range(n))  # not connected: be conservative

    # back edges (d, a): d the deeper endpoint
    backs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for v in order:
        for w, eid in adj[v]:
            if eid == parent_eid[v] or eid == parent_eid[w] or eid in seen:
                continue
            seen.add(eid)
            d, anc = (v, w) if pre[v] > pre[w] else (w, v)
            backs.append((d, anc))

    # binary-lifting LCA on the DFS tree
    LOG = max(1, n.bit_length())
    up = [parent[:]] + [[0] * n for _ in range(LOG - 1)]
    up[0] = [parent[v] if parent[v] != -1 else v for v in range(n)]
    for k in range(1, LOG):
        prev = up[k - 1]
        up[k] = [prev[prev[v]] for v in range(n)]
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    def lca(u: int, w: int) -> int:
        if depth[u] < depth[w]:
            u, w = w, u
        diff = depth[u] - depth[w]
        k = 0
        while diff:
            if diff & 1:
                u = up[k][u]
            diff >>= 1
            k += 1
        if u == w:
            return u
        for k in range(LOG - 1, -1, -1):
            if up[k][u] != up[k][w]:
                u = up[k][u]
                w = up[k][w]
        return parent[u]

    # offline sweep: activate backs by anchor preorder; for each vertex x
    # (ascending preorder) query backs with d in subtree(x), anchor above x
    tree = _SumTree(n)
    by_anchor = sorted(range(len(backs)), key=lambda i: pre[backs[i][1]])
    own_up = [0] * n  # v's own back edges going strictly above v
    for d, anc in backs:
        if pre[anc] < pre[d]:
            own_up[d] += 1

    flags: set[int] = set()
    singles: list[tuple[int, int, int]] = []  # (x, d position, anchor position)
    upper_candidates: list[tuple[int, int]] = []  # (v, x): F1 shapes
    lower_candidates: list[tuple[int, int]] = []  # (v, x): F2 shapes
    budget = 8 * n + 64
    over_budget = False

    rng = random.Random(_FILTER_SEED)
    hbit = [rng.getrandbits(63) | 1 for _ in backs]
    xmark = [0] * n
    for i, (d, anc) in enumerate(backs):
        xmark[d] ^= hbit[i]
        xmark[anc] ^= hbit[i]

    # per back edge, the child of its anchor on the path to d: the back is
    # anchored exactly at the parent of that tree edge
    exact_to_parent = [0] * n
    for d, anc in backs:
        if pre[anc] < pre[d]:
            x = d
            diff = depth[d] - depth[anc] - 1
            k = 0
            while diff:
                if diff & 1:
                    x = up[k][x]
                diff >>= 1
                k += 1
            exact_to_parent[x] += 1

    bi = 0
    for x in order:  # ascending preorder
        px = pre[x]
        while bi < len(by_anchor) and pre[backs[by_anchor[bi]][1]] < px:
            idx = by_anchor[bi]
            d, anc = backs[idx]
            tree.add(pre[d], pre[anc])
            bi += 1
        lo, hi = px, px + size[x]
        cnt, vmin, vmax, pmin, pmax = tree.query(lo, hi)
        # F3: at most one covering back of (p, x) not starting at x
        if cnt - own_up[x] <= 1:
            flags.add(x)
        if x == order[0] or cnt == 0:
            continue
        # F1'': at most one covering back of (p, x) not anchored at p
        if cnt - exact_to_parent[x] <= 1:
            flags.add(parent[x])
        # F1: candidates between the deepest covering anchor and the parent
        p = parent[x]
        astar = order[int(vmax)]
        v = p
        while v != astar:
            v = parent[v]
            if len(upper_candidates) >= budget:
                over_budget = True
                flags.add(v)
            else:
                upper_candidates.append((v, x))
        # F2: candidates from below x down to the covering-start LCA
        ld = lca(order[int(pmin)], order[int(pmax)])
        v = ld
        while v != x:
            if len(lower_candidates) >= budget:
                over_budget = True
                flags.add(v)
            else:
                lower_candidates.append((v, x))
            v = parent[v]
        if cnt == 1:
            singles.append((x, int(pmin), int(vmin)))

    # Second pass: a candidate (v, x) survives only if no surviving back
    # edge reconnects the two sides around v.
    #   upper (v outside subtree(x), v between the deepest anchor and p):
    #     no back from subtree(c*) - subtree(x) anchored strictly above v,
    #     where c* is v's child towards x;
    #   lower (v inside subtree(x)):
    #     no back from subtree(v) (other than v's own) anchored strictly
    #     above v at or below x.
    own_anchors: list[list[int]] = [[] for _ in range(n)]
    for d, anc in backs:
        if pre[anc] < pre[d]:
            own_anchors[d].append(pre[anc])
    for lst in own_anchors:
        lst.sort()

    def child_towards(v: int, x: int) -> int:
        diff = depth[x] - depth[v] - 1
        k = 0
        while diff:
            if diff & 1:
                x = up[k][x]
            diff >>= 1
            k += 1
        return x

    events: list[tuple[int, int, int, int, int]] = []
    # (threshold pre, event id, sign, lo, hi); result accumulated per id
    results: list[int] = []
    meta: list[tuple[str, int]] = []
    for v, x in upper_candidates:
        cstar = child_towards(v, x)
        eid = len(results)
        results.append(0)
        meta.append(("upper", v))
        events.append((pre[v], eid, 1, pre[cstar], pre[cstar] + size[cstar]))
        events.append((pre[v], eid, -1, pre[x], pre[x] + size[x]))
    for v, x in lower_candidates:
        eid = len(results)
        results.append(0)
        meta.append(("lower", v))
        events.append((pre[v], eid, 1, pre[v], pre[v] + size[v]))
        events.append((pre[x], eid, -1, pre[v], pre[v] + size[v]))
        # subtract v's own backs anchored in [pre[x], pre[v])
        lo_i = bisect.bisect_left(own_anchors[v], pre[x])
        hi_i = bisect.bisect_left(own_anchors[v], pre[v])
        results[eid] -= hi_i - lo_i
    if events:
        tree2 = _SumTree(n)
        events.sort()
        bi = 0
        by_anchor2 = by_anchor
        for threshold, eid, sign, lo, hi in events:
            while bi < len(by_anchor2) and pre[backs[by_anchor2[bi]][1]] < threshold:
                idx = by_anchor2[bi]
                d, anc = backs[idx]
                tree2.add(pre[d], pre[anc])
                bi += 1
            cnt, _, _, _, _ = tree2.query(lo, hi)
            results[eid] += sign * cnt
        for eid, (kind, v) in enumerate(meta):
            if results[eid] <= 0:
                flags.add(v)

    # F4: endpoints of 2-edge-cut edges.  Singleton-cover tree edges pair
    # with their unique back edge; equal-cover tree edges pair together.
    cover_hash = xmark[:]
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            cover_hash[p] ^= cover_hash[v]
    groups: dict[int, list[int]] = {}
    for v in order[1:]:
        groups.setdefault(cover_hash[v], []).append(v)
    for members in groups.values():
        if len(members) >= 2:
            for x in members:
                flags.add(x)
                flags.add(parent[x])
    for x, dpos, apos in singles:
        flags.add(x)
        flags.add(parent[x])
        flags.add(order[dpos])  # the unique covering back edge's endpoints
        flags.add(order[apos])

    # low-degree neighbourhoods are classic cut-pair hotspots; flag cheaply
    simple_deg = [len({w for w, _ in adj[v]}) for v in range(n)]
    for v in range(n):
        if simple_deg[v] <= 2:
            flags.add(v)
            for w, _ in adj[v]:
                flags.add(w)
    return flags
