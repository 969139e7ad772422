"""Independent reference answers for the benchmark's checks.

Stdlib only, and it imports nothing from twinscc: a fault in a shared
kernel would otherwise make the program and its check agree on a wrong
answer.  Graphs are plain ``(n, edge list)`` pairs and every decomposition
is returned as a list of vertex labels (two vertices share a block iff they
share a label), so refinement is a pairwise relabelling.

* SCCs: iterative Kosaraju.
* TSCCs: the 2-edge-connected components of the simple underlying graph
  of the edges inside each SCC (Raghavan's characterisation).
* 2eSCC / 2eTSCC: refinement over the SCCs / TSCCs of every single-edge
  deletion (quadratic, by definition).
* Strongly orientable blocks of a mixed graph: the SCCs of the graph with
  undirected edges taken both ways, cut by the bridges of the multigraph
  of edges inside each SCC (every directed and every undirected edge is
  one edge; a bridge that is undirected cannot be oriented both ways, and
  one that is directed has no way back).
* Edge-resilient blocks: refinement of the strongly orientable blocks over
  every deletion of an allowed failing edge.
"""

from __future__ import annotations

from typing import Sequence

Edges = Sequence[tuple[int, int]]


def scc_labels(n: int, edges: Edges) -> list[int]:
    """Kosaraju: post-order on the forward graph, then collect components
    on the reverse graph in reverse post-order."""
    out: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
        inc[v].append(u)
    seen = bytearray(n)
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = 1
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    label = [-1] * n
    count = 0
    for root in reversed(order):
        if label[root] >= 0:
            continue
        label[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for w in inc[v]:
                if label[w] < 0:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label


def two_edge_labels(n: int, edges: Edges) -> list[int]:
    """Labels of the 2-edge-connected components of an undirected
    multigraph: components after deleting every bridge.  Parallel edges
    are distinct (the DFS skips the tree edge by id, not by vertex) and
    self-loops are ignored."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        if a != b:
            adj[a].append((b, i))
            adj[b].append((a, i))
    disc = [-1] * n
    low = [0] * n
    bridge = bytearray(len(edges))
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, it = stack[-1]
            for w, i in it:
                if i == via:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, i, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > disc[p]:
                        bridge[via] = 1
    label = [-1] * n
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            v = stack.pop()
            for w, i in adj[v]:
                if label[w] < 0 and not bridge[i]:
                    label[w] = root
                    stack.append(w)
    return label


def tscc_labels(n: int, edges: Edges) -> tuple[list[int], list[int]]:
    """(SCC labels, TSCC labels).  Edges inside different SCCs never meet,
    so one 2ecc pass over all intra-SCC pairs handles every SCC."""
    scc = scc_labels(n, edges)
    simple = {
        (u, v) if u < v else (v, u)
        for u, v in edges
        if u != v and scc[u] == scc[v]
    }
    return scc, two_edge_labels(n, sorted(simple))


def refine(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Labels of the mutual refinement of two labellings."""
    ids: dict[tuple[int, int], int] = {}
    return [ids.setdefault(key, len(ids)) for key in zip(a, b)]


def blocks(labels: Sequence[int]) -> list[tuple[int, ...]]:
    """Canonical block list: members ascending, blocks by least member."""
    groups: dict[int, list[int]] = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, []).append(v)
    return sorted(tuple(g) for g in groups.values())


def without(edges: Edges, i: int) -> list[tuple[int, int]]:
    """The edge list minus its i-th edge."""
    return [*edges[:i], *edges[i + 1 :]]


def two_escc_labels(n: int, edges: Edges) -> list[int]:
    lab = scc_labels(n, edges)
    for i in range(len(edges)):
        lab = refine(lab, scc_labels(n, without(edges, i)))
    return lab


def two_etscc_labels(n: int, edges: Edges) -> list[int]:
    lab = tscc_labels(n, edges)[1]
    for i in range(len(edges)):
        lab = refine(lab, tscc_labels(n, without(edges, i))[1])
    return lab


def orientable_labels(n: int, directed: Edges, undirected: Edges) -> list[int]:
    both_ways = [*directed, *undirected, *((b, a) for a, b in undirected)]
    scc = scc_labels(n, both_ways)
    inner = [(a, b) for a, b in (*directed, *undirected) if scc[a] == scc[b]]
    return two_edge_labels(n, inner)


def edge_resilient_labels(n: int, directed: Edges, undirected: Edges, fail: str) -> list[int]:
    if fail not in ("both", "directed", "undirected"):
        raise ValueError(f"unknown failure set {fail!r}")
    lab = orientable_labels(n, directed, undirected)
    if fail in ("both", "directed"):
        for i in range(len(directed)):
            lab = refine(lab, orientable_labels(n, without(directed, i), undirected))
    if fail in ("both", "undirected"):
        for i in range(len(undirected)):
            lab = refine(lab, orientable_labels(n, directed, without(undirected, i)))
    return lab


# ---------------------------------------------------------------------------
# properties of an answer, for graphs too large for the quadratic reference
# ---------------------------------------------------------------------------


def partition_error(answer: Sequence[Sequence[int]], n: int) -> str | None:
    """Why ``answer`` is not a partition of 0..n-1 into nonempty blocks."""
    seen = bytearray(n)
    count = 0
    for block in answer:
        if not block:
            return "empty block"
        for v in block:
            if not 0 <= v < n:
                return f"vertex {v} out of range"
            if seen[v]:
                return f"vertex {v} in two blocks"
            seen[v] = 1
            count += 1
    if count != n:
        return f"{n - count} vertices in no block"
    return None


def refines(answer: Sequence[Sequence[int]], labels: Sequence[int]) -> bool:
    """Every block of ``answer`` lies inside one class of ``labels``."""
    return all(len({labels[v] for v in block}) == 1 for block in answer)
