"""SPQR trees and marked vertex-edge blocks vs the deletion oracle."""

from __future__ import annotations

import pytest

from twinscc.graph import Partition, PreconditionError, UGraph
from twinscc.spqr import marked_veb, spqr, vertex_edge_cut_pairs
from twinscc import oracles
from twinscc.oracles import _components

from named_graphs import c4_ugraph, k4_ugraph


def test_spqr_c4_single_s_node():
    tree = spqr(c4_ugraph())
    assert [n.kind for n in tree.nodes] == ["S"]
    assert len(tree.nodes[0].edges) == 4


def test_spqr_k4_single_r_node():
    tree = spqr(k4_ugraph())
    assert [n.kind for n in tree.nodes] == ["R"]


def test_spqr_bond_single_p_node():
    tree = spqr(UGraph(2, [(0, 1)] * 3))
    assert [n.kind for n in tree.nodes] == ["P"]


def test_spqr_rejects_non_biconnected():
    with pytest.raises(PreconditionError):
        spqr(UGraph(3, [(0, 1), (1, 2)]))
    with pytest.raises(PreconditionError):
        spqr(UGraph(2, []))


def test_spqr_theta_graph():
    # two vertices joined through three internal paths: P node + three S
    g = UGraph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    tree = spqr(g)
    kinds = sorted(n.kind for n in tree.nodes)
    assert kinds == ["P", "S", "S", "S"]


def test_spqr_cycle_with_chord():
    g = UGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    tree = spqr(g)
    kinds = sorted(n.kind for n in tree.nodes)
    assert kinds == ["P", "S", "S"]


def _check_tree_invariants(g: UGraph, tree) -> None:
    # every real edge appears in exactly one skeleton; virtual pairs match
    reals = []
    pair_ends: dict[int, list[tuple[int, int]]] = {}
    for node in tree.nodes:
        if node.kind == "S":
            vs = node.vertices()
            assert len(node.edges) == len(vs) >= 3
            deg = {v: 0 for v in vs}
            for u, v, _ in node.edges:
                deg[u] += 1
                deg[v] += 1
            assert all(d == 2 for d in deg.values())
        if node.kind == "P":
            assert len(node.vertices()) == 2
            # a two-edge bond is only legal as the whole (degenerate) input
            assert len(node.edges) >= 3 or len(tree.nodes) == 1
        if node.kind == "R":
            pairs = {(u, v) for u, v, _ in node.edges}
            assert len(pairs) == len(node.edges), "R skeleton must be simple"
        for u, v, (tk, tid) in node.edges:
            if tk == "real":
                reals.append(tid)
            else:
                pair_ends.setdefault(tid, []).append((u, v))
    assert sorted(reals) == sorted(
        eid for eid, (a, b) in enumerate(g.edges) if a != b
    )
    for ends in pair_ends.values():
        assert len(ends) == 2 and ends[0] == ends[1]
    # no two adjacent nodes of the same S/P kind
    for a, b, _ in tree.tree_edges:
        ka, kb = tree.nodes[a].kind, tree.nodes[b].kind
        assert not (ka == kb and ka in "SP")


def test_spqr_invariants_random(rng):
    for _ in range(120):
        n = rng.randrange(2, 10)
        g = oracles.gen_biconnected(n, rng.randrange(n, 2 * n + 4), rng)
        tree = spqr(g)
        _check_tree_invariants(g, tree)


def test_vertex_edge_cut_pairs_disconnect(rng):
    for _ in range(80):
        n = rng.randrange(3, 10)
        g = oracles.gen_biconnected(n, rng.randrange(n, 2 * n + 4), rng)
        tree = spqr(g)
        others = lambda v: [w for w in range(n) if w != v]
        for v, eid in vertex_edge_cut_pairs(tree):
            rest = [e for j, e in enumerate(g.edges) if j != eid and v not in e]
            parts = _components(g.n, rest).restricted(others(v))
            assert len(parts) > 1, (g.edges, v, eid)


def test_mveb_examples():
    assert marked_veb(c4_ugraph(), [0]) == Partition([[1], [2], [3]])
    assert marked_veb(k4_ugraph(), [0]) == Partition([[1, 2, 3]])
    assert marked_veb(c4_ugraph(), []) == Partition([[0, 1, 2, 3]])


def test_mveb_rejects_marked_articulation_point():
    g = UGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    with pytest.raises(PreconditionError):
        marked_veb(g, [2])


def test_mveb_random_biconnected_vs_oracle(rng):
    for _ in range(250):
        n = rng.randrange(3, 11)
        g = oracles.gen_biconnected(n, rng.randrange(n, 2 * n + 5), rng)
        arts = set(oracles.oracle_articulation_points(g))
        k = rng.randrange(0, max(1, n // 2))
        candidates = [v for v in range(n) if v not in arts]
        rng.shuffle(candidates)
        marked = candidates[:k]
        got = marked_veb(g, marked)
        want = oracles.oracle_mveb(g, marked)
        assert got == want, (g.edges, marked)


def test_mveb_multi_block_glue(rng):
    # assemble several biconnected pieces at shared cut vertices
    for _ in range(80):
        pieces = []
        n = 0
        for _ in range(rng.randrange(2, 4)):
            k = rng.randrange(3, 7)
            pieces.append((n, oracles.gen_biconnected(k, rng.randrange(k, 2 * k), rng)))
            n += k
        edges: list[tuple[int, int]] = []
        for base, piece in pieces:
            edges.extend((base + a, base + b) for a, b in piece.edges)
        # chain the pieces: glue vertex (base of next piece) to previous piece
        for (b1, p1), (b2, p2) in zip(pieces, pieces[1:]):
            glue_prev = b1 + rng.randrange(p1.n)
            edges = [
                (glue_prev if v == b2 else v, glue_prev if w == b2 else w)
                for v, w in edges
            ]
        g = UGraph(n, edges)
        arts = set(oracles.oracle_articulation_points(g))
        candidates = [v for v in range(n) if v not in arts and any(v in e for e in edges)]
        rng.shuffle(candidates)
        marked = candidates[: rng.randrange(0, 3)]
        assert marked_veb(g, marked) == oracles.oracle_mveb(g, marked), (edges, marked)


def test_mveb_parallel_edges_kept(rng):
    # a parallel class is never a cut edge
    g = UGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 1), (2, 3)])
    for marked in ([], [2], [3]):
        arts = set(oracles.oracle_articulation_points(g))
        if set(marked) & arts:
            continue
        assert marked_veb(g, marked) == oracles.oracle_mveb(g, marked)


def test_mveb_long_ladder_vs_oracle():
    # one block of 898 edges made of 299 stacked 4-cycles (two 300-vertex
    # paths joined by rungs): a route that recursed once per separation
    # pair would pass the recursion limit
    k = 300
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    g = UGraph(2 * k, rails + [(i, k + i) for i in range(k)])
    marked = [0, 150, 375, 599]
    assert marked_veb(g, marked) == oracles.oracle_mveb(g, marked)
