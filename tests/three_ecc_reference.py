"""Quadratic reference for 3-edge-connected classes, stdlib only.

Two vertices are 3-edge-connected iff no two edges separate them, that
is, iff for every edge e they lie in one 2-edge-connected component of
G - e.  One bridge search per edge, so it costs O(m (n + m)) and stays
usable at 10^2 to 10^3 edges, where the brute-force oracle does not.  It
imports nothing from twinscc, so it shares no code with the fast path.
"""

from __future__ import annotations

from typing import Optional, Sequence


def two_ecc_labels(
    n: int, edges: Sequence[tuple[int, int]], skip: Optional[int] = None
) -> list[int]:
    """Label of each vertex's 2-edge-connected component in the multigraph
    ``edges`` without edge ``skip``: the DFS-tree root of its component,
    cut at the bridges (tree edges whose subtree has no back edge out)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        if i != skip and a != b:
            adj[a].append((b, i))
            adj[b].append((a, i))
    pre = [-1] * n
    low = [0] * n
    label = [-1] * n
    order: list[int] = []
    tree_parent = [-1] * n
    tree_edge = [-1] * n
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = low[root] = len(order)
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w, i in it:
                if i == tree_edge[v]:
                    continue
                if pre[w] == -1:
                    pre[w] = low[w] = len(order)
                    order.append(w)
                    tree_parent[w], tree_edge[w] = v, i
                    stack.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], pre[w])
            else:
                stack.pop()
                p = tree_parent[v]
                if p != -1:
                    low[p] = min(low[p], low[v])
    for v in order:  # parents first
        p = tree_parent[v]
        label[v] = v if p == -1 or low[v] == pre[v] else label[p]
    return label


def three_ecc_blocks(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """3-edge-connected classes, each ascending, ordered by least member."""
    key = two_ecc_labels(n, edges)
    for e in range(len(edges)):
        cut = two_ecc_labels(n, edges, skip=e)
        ids: dict[tuple[int, int], int] = {}
        key = [ids.setdefault((key[v], cut[v]), len(ids)) for v in range(n)]
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(key[v], []).append(v)
    return sorted(tuple(g) for g in groups.values())
