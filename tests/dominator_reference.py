"""Stdlib-only reference for dominator trees and flow-graph bridges.

It imports nothing from twinscc.  Dominators come from vertex removal:
u dominates v iff v is unreachable from s once u is removed.  Flow-graph
bridges come from edge deletion: e = (x, y) is a bridge iff y is
unreachable from s once e is deleted.  Only the edges of one search tree
from s can be bridges (deleting any other edge leaves that tree), so only
they are deleted.  O(n·m) each, fine up to a few thousand edges.
"""

from __future__ import annotations


def _adjacency(n, edges):
    out = [[] for _ in range(n)]
    for i, (x, y) in enumerate(edges):
        out[x].append((y, i))
    return out


def _reached(n, out, s, skip_vertex=-1, skip_edge=-1):
    """Reached-from-s flags and the search tree's edge ids, without the
    vertex ``skip_vertex`` (never s) and the edge ``skip_edge``."""
    seen = [False] * n
    seen[s] = True
    todo = [s]
    tree = []  # edge ids of the search tree
    while todo:
        x = todo.pop()
        for y, i in out[x]:
            if i != skip_edge and y != skip_vertex and not seen[y]:
                seen[y] = True
                tree.append(i)
                todo.append(y)
    return seen, tree


def reference_idom(n, edges, s):
    """idom list (-1 at s); every vertex must be reachable from s."""
    out = _adjacency(n, edges)
    seen, _ = _reached(n, out, s)
    if not all(seen):
        raise ValueError("every vertex must be reachable from s")
    # doms[v]: the proper dominators of v other than s
    doms = [[] for _ in range(n)]
    for u in range(n):
        if u == s:
            continue
        without_u, _ = _reached(n, out, s, skip_vertex=u)
        for v in range(n):
            if v != u and not without_u[v]:
                doms[v].append(u)
    idom = [-1] * n
    for v in range(n):
        if v != s:
            # dominators form a chain: the deepest has the most dominators
            idom[v] = max(doms[v], key=lambda u: len(doms[u]), default=s)
    return idom


def reference_tree_numbers(n, idom, s):
    """(pre, size, order) of the dominator tree: preorder from s with
    children by ascending vertex id, and subtree sizes."""
    children = [[] for _ in range(n)]
    for v in range(n):
        if v != s:
            children[idom[v]].append(v)
    order = []
    todo = [s]
    while todo:
        v = todo.pop()
        order.append(v)
        todo.extend(sorted(children[v], reverse=True))
    pre = [0] * n
    for i, v in enumerate(order):
        pre[v] = i
    size = [1] * n
    for v in reversed(order):
        if v != s:
            size[idom[v]] += size[v]
    return pre, size, order


def reference_flow_bridges(n, edges, s):
    """Sorted edge ids whose deletion makes their head unreachable."""
    out = _adjacency(n, edges)
    _, tree = _reached(n, out, s)
    bridges = []
    for i in tree:
        seen, _ = _reached(n, out, s, skip_edge=i)
        if not seen[edges[i][1]]:
            bridges.append(i)
    return sorted(bridges)
