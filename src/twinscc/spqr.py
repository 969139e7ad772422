"""SPQR trees of biconnected multigraphs and marked vertex-edge blocks.

The tree is built by recursive split decomposition (parallel bundles and
separation pairs) followed by merging of adjacent same-kind S/P nodes into
canonical form.  Construction is correctness-first: split-pair search is
quadratic per node and the recursion depth grows with the number of
splits, so it serves the ``spqr`` command and API on small graphs only.
A vertex-edge cut-pair (v, e) always shows up as an S-node whose skeleton
contains v and the real edge e at distance >= 1 from v
(``vertex_edge_cut_pairs``).

``marked_veb`` does not build SPQR trees.  It has one exact path: per
biconnected block B holding marked vertices, the unmarked vertices of B are
refined by the 2-edge-connected components of B - v for every marked v in
B, which is the definition restricted to one block.  The cost is
O(sum over B of m_B * |M_B|), with M_B the marked vertices of B, and no
step recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Partition, PreconditionError, UGraph
from .undirected import biconnected, bridges_2ecc

Tag = tuple[str, int]  # ("real", edge id) | ("virtual", pair id)


@dataclass(frozen=True)
class SpqrNode:
    kind: str  # "S" | "P" | "R" | "Q"
    edges: tuple[tuple[int, int, Tag], ...]

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for u, w, _ in self.edges for v in (u, w)}))


@dataclass(frozen=True)
class SpqrTree:
    """Nodes plus tree adjacency; tree edge i identifies the virtual pair
    ``pair_ids[i]`` shared by the two incident nodes."""

    nodes: tuple[SpqrNode, ...]
    tree_edges: tuple[tuple[int, int, int], ...]  # (node_a, node_b, pair id)


_Edge = tuple[int, int, Tag]


def _components_excluding(
    vertices: set[int], edges: Sequence[_Edge], u: int, v: int
) -> list[list[_Edge]]:
    """Split classes of {u, v}: per component of G - {u, v} the component
    edges plus their attachments; direct u-v edges are NOT included."""
    parent: dict[int, int] = {w: w for w in vertices if w not in (u, v)}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in edges:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    classes: dict[int, list[_Edge]] = {}
    for e in edges:
        a, b, _ = e
        if a in parent:
            classes.setdefault(find(a), []).append(e)
        elif b in parent:
            classes.setdefault(find(b), []).append(e)
    return [classes[r] for r in sorted(classes)]


def _decompose(edges: list[_Edge], nodes: list[SpqrNode], fresh: list[int]) -> None:
    vertices = {v for u, w, _ in edges for v in (u, w)}
    n, m = len(vertices), len(edges)

    if n == 2:
        nodes.append(SpqrNode("P" if m >= 2 else "Q", tuple(sorted(edges))))
        return

    deg: dict[int, int] = {v: 0 for v in vertices}
    bundles: dict[tuple[int, int], int] = {}
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
        key = (u, v) if u < v else (v, u)
        bundles[key] = bundles.get(key, 0) + 1

    if m == n and all(d == 2 for d in deg.values()):
        nodes.append(SpqrNode("S", tuple(sorted(edges))))
        return

    def split_on(u: int, v: int) -> None:
        comp_classes = _components_excluding(vertices, edges, u, v)
        direct = [e for e in edges if {e[0], e[1]} == {u, v}]
        total = len(comp_classes) + len(direct)
        if total >= 3:
            skeleton: list[_Edge] = list(direct)
            for cls in comp_classes:
                pid = fresh[0]
                fresh[0] += 1
                skeleton.append((min(u, v), max(u, v), ("virtual", pid)))
                _decompose(cls + [(min(u, v), max(u, v), ("virtual", pid))], nodes, fresh)
            nodes.append(SpqrNode("P", tuple(sorted(skeleton))))
        else:
            assert len(comp_classes) == 2 and not direct
            pid = fresh[0]
            fresh[0] += 1
            virt = (min(u, v), max(u, v), ("virtual", pid))
            _decompose(comp_classes[0] + [virt], nodes, fresh)
            _decompose(comp_classes[1] + [virt], nodes, fresh)

    for (u, v), cnt in sorted(bundles.items()):
        if cnt >= 2:
            split_on(u, v)
            return

    vs = sorted(vertices)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            u, v = vs[i], vs[j]
            if len(_components_excluding(vertices, edges, u, v)) >= 2:
                split_on(u, v)
                return

    nodes.append(SpqrNode("R", tuple(sorted(edges))))


def _merge_same_kind(nodes: list[SpqrNode]) -> list[SpqrNode]:
    """Merge adjacent S-S and P-P nodes by eliminating their shared pair."""
    changed = True
    while changed:
        changed = False
        where: dict[int, list[int]] = {}
        for idx, node in enumerate(nodes):
            for _, _, (tk, tid) in node.edges:
                if tk == "virtual":
                    where.setdefault(tid, []).append(idx)
        for pid, at in where.items():
            if len(at) != 2:
                continue
            a, b = at
            if a == b or nodes[a].kind != nodes[b].kind or nodes[a].kind not in "SP":
                continue
            merged = [
                e
                for e in nodes[a].edges + nodes[b].edges
                if e[2] != ("virtual", pid)
            ]
            keep = SpqrNode(nodes[a].kind, tuple(sorted(merged)))
            nodes = [n for i, n in enumerate(nodes) if i not in (a, b)] + [keep]
            changed = True
            break
    return nodes


def spqr(g: UGraph) -> SpqrTree:
    """SPQR tree of a connected biconnected multigraph.

    Accepts two-vertex bonds (P node) and, degenerately, a single edge
    (lone Q node).  Rejects graphs that are not biconnected.
    """
    if g.n < 2 or g.m == 0:
        raise PreconditionError("spqr requires at least one edge on two vertices")
    bf = biconnected(g)
    if len(bf.blocks) != 1 or len(bf.blocks[0]) != len([e for e in g.edges if e[0] != e[1]]):
        raise PreconditionError("spqr requires a biconnected graph")
    edges: list[_Edge] = [
        (min(u, v), max(u, v), ("real", eid))
        for eid, (u, v) in enumerate(g.edges)
        if u != v
    ]
    nodes: list[SpqrNode] = []
    fresh = [0]
    _decompose(edges, nodes, fresh)
    nodes = _merge_same_kind(nodes)
    nodes.sort(key=lambda nd: (nd.kind, nd.edges))

    where: dict[int, list[int]] = {}
    for idx, node in enumerate(nodes):
        for _, _, (tk, tid) in node.edges:
            if tk == "virtual":
                where.setdefault(tid, []).append(idx)
    links = []
    for pid, at in sorted(where.items()):
        if len(at) != 2:
            raise AssertionError("virtual pair does not appear exactly twice")
        links.append((min(at), max(at), pid))
    return SpqrTree(tuple(nodes), tuple(sorted(links)))


def marked_veb(g: UGraph, marked: Iterable[int]) -> Partition:
    """Marked vertex-edge blocks: the partition of the unmarked vertices in
    which u, w share a block iff they stay connected in g minus {v, e} for
    every marked vertex v and every edge e.

    Marked vertices must not be articulation points of their component.
    Blocks without marked vertices keep their unmarked vertices together.
    In every other biconnected block B, u and w are separated by some
    (v, e) iff e is a bridge of B - v between them, so the unmarked
    vertices of B are refined by the 2-edge-connected components of B - v
    for each marked v in B; the pieces are glued across blocks at the
    (unmarked) articulation points.  Cost O(sum over B of m_B * |M_B|),
    with M_B the marked vertices of B.
    """
    marked_set = frozenset(int(v) for v in marked)
    for v in marked_set:
        if not 0 <= v < g.n:
            raise PreconditionError(f"marked vertex {v} out of range")
    bf = biconnected(g)
    bad = marked_set & set(bf.articulation)
    if bad:
        raise PreconditionError(f"marked vertices {sorted(bad)} are articulation points")

    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for blk in bf.blocks:
        verts = sorted({v for eid in blk for v in g.edges[eid]})
        unmarked = [v for v in verts if v not in marked_set]
        if len(unmarked) == len(verts):
            for v in unmarked[1:]:
                union(unmarked[0], v)
            continue
        local = {v: i for i, v in enumerate(verts)}
        edges = [(local[g.edges[e][0]], local[g.edges[e][1]]) for e in blk]
        ordinary = [local[v] for v in unmarked]
        part = Partition.trivial(ordinary)
        for lv, v in enumerate(verts):
            if v in marked_set:
                rest = UGraph._trusted(len(verts), tuple(e for e in edges if lv not in e))
                part = part.refine(bridges_2ecc(rest)[1].restricted(ordinary))
        for group in part:
            for i in group[1:]:
                union(verts[group[0]], verts[i])

    labels = {v: find(v) for v in range(g.n) if v not in marked_set}
    return Partition.from_labels(labels)


def vertex_edge_cut_pairs(tree: SpqrTree) -> list[tuple[int, int]]:
    """All (vertex, real edge id) cut-pairs readable from the S-nodes."""
    out = set()
    for node in tree.nodes:
        if node.kind != "S":
            continue
        for u, v, tag in node.edges:
            if tag[0] != "real":
                continue
            for w in node.vertices():
                if w not in (u, v):
                    out.add((w, tag[1]))
    return sorted(out)
