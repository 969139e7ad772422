"""SPQR trees and marked vertex-edge blocks vs the deletion oracle."""

from __future__ import annotations

import random
import sys
import time

import pytest

from twinscc import pipeline
from twinscc.graph import Partition, PreconditionError, UGraph
from twinscc.spqr import marked_veb, spqr
from twinscc.undirected import biconnected, bridges_2ecc
from twinscc import oracles

from mveb_reference import marked_veb_per_vertex

from named_graphs import c4_ugraph, k4_ugraph, subdivided_wheel


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


def test_mveb_examples():
    assert marked_veb(c4_ugraph(), [0]) == Partition([[1], [2], [3]])
    assert marked_veb(k4_ugraph(), [0]) == Partition([[1, 2, 3]])
    assert marked_veb(c4_ugraph(), []) == Partition([[0, 1, 2, 3]])


def test_mveb_bridges_and_loops_vs_oracle():
    # a bridge joins nothing once any vertex is marked: deleting it with
    # that vertex separates its ends, even when both ends are unmarked
    g = UGraph(4, [(1, 0), (0, 3), (3, 2)])
    assert marked_veb(g, [1]) == Partition([[0], [2], [3]])
    assert marked_veb(g, []) == Partition([[0, 1, 2, 3]])
    rng = random.Random(23)
    bridged = 0
    for _ in range(400):
        n = rng.randrange(2, 9)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 11))]
        g = UGraph(n, edges)
        arts = set(biconnected(g).articulation)
        candidates = [v for v in range(n) if v not in arts]
        rng.shuffle(candidates)
        marked = candidates[: rng.randrange(len(candidates) + 1)]
        bridged += bool(marked and bridges_2ecc(g)[0])
        want = oracles.oracle_mveb(g, marked)
        assert marked_veb(g, marked) == want, (edges, marked)
        assert marked_veb_per_vertex(g, marked) == want, (edges, marked)
    assert bridged >= 100


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


def _ladder(k: int) -> UGraph:
    # two k-vertex paths (top rail 0..k-1, bottom rail k..2k-1) joined by k rungs
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return UGraph(2 * k, rails + [(i, k + i) for i in range(k)])


def test_mveb_long_ladder_vs_oracle():
    # one block of 898 edges made of 299 stacked 4-cycles (two 300-vertex
    # paths joined by rungs): a route that recursed once per separation
    # pair would pass the recursion limit
    g = _ladder(300)
    marked = [0, 150, 375, 599]
    assert marked_veb(g, marked) == oracles.oracle_mveb(g, marked)


def test_mveb_ladder_every_other_top_vertex_vs_reference():
    # one block with many marked vertices: every 4-cycle of the ladder is an
    # S-node, and each holds a marked vertex
    k = 300
    g = _ladder(k)
    marked = list(range(1, k - 1, 2))
    assert marked_veb(g, marked) == marked_veb_per_vertex(g, marked)


def test_mveb_ladder_2000_rungs_within_budget():
    # 5,998 edges and 999 marked vertices in one block: a bridge pass per
    # marked vertex takes about 28 s here, the S-node reading well under 1 s
    k = 2000
    g = _ladder(k)
    marked = list(range(1, k - 1, 2))
    assert g.m == 5998 and len(marked) == 999
    t = time.perf_counter()
    part = marked_veb(g, marked)
    seconds = time.perf_counter() - t
    assert seconds < 5, f"marked_veb took {seconds:.1f} s on the 2,000-rung ladder"
    # as on small ladders (checked against the reference): each even top
    # vertex 2 <= i <= k - 4 pairs with its rung partner, the last square
    # stays whole, and every other unmarked vertex is alone
    assert len(part) == k
    assert (4, k + 4) in part.blocks
    assert (k - 2, k - 1, 2 * k - 2, 2 * k - 1) in part.blocks


def _gen_block(rng: random.Random, m_target: int) -> UGraph:
    """Random biconnected multigraph grown from a bond by subdividing edges,
    doubling edges, replacing edges by K4 minus an edge, and adding chords,
    so its SPQR tree has many S-, P- and R-nodes."""
    n, edges = 2, [(0, 1), (0, 1)]
    while len(edges) < m_target:
        i = rng.randrange(len(edges))
        a, b = edges[i]
        r = rng.random()
        if r < 0.45:
            edges[i] = (a, n)
            edges.append((n, b))
            n += 1
        elif r < 0.6:
            edges.append((a, b))
        elif r < 0.8:
            c, d = n, n + 1
            n += 2
            edges[i] = (a, c)
            edges += [(a, d), (c, d), (c, b), (d, b)]
        else:
            x, y = rng.randrange(n), rng.randrange(n)
            if x != y:
                edges.append((x, y))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in edges]
    rng.shuffle(edges)
    return UGraph(n, edges)


def test_mveb_mid_size_vs_reference():
    # 10^2 to 10^3 edges, one or several blocks, random marked sets
    rng = random.Random(4)
    for trial in range(30):
        m_target = rng.randrange(100, 1001)
        if trial % 3 == 2:
            # three blocks chained at shared vertices
            edges: list[tuple[int, int]] = []
            n = 0
            for _ in range(3):
                piece = _gen_block(rng, m_target // 3)
                glue = rng.randrange(n) if n else None
                ids = [n + v for v in range(piece.n)]
                if glue is not None:
                    ids[0] = glue
                edges += [(ids[a], ids[b]) for a, b in piece.edges]
                n += piece.n
            g = UGraph(n, edges)
        else:
            g = _gen_block(rng, m_target)
        arts = set(biconnected(g).articulation)
        candidates = [v for v in range(g.n) if v not in arts]
        rng.shuffle(candidates)
        marked = candidates[: rng.randrange(len(candidates) // 3 + 1)]
        assert marked_veb(g, marked) == marked_veb_per_vertex(g, marked), (trial, g.m)


@pytest.mark.parametrize("doubled", [False, True])
def test_mveb_long_cycle_many_marked_vs_reference(doubled):
    # one S-node of 1,200 vertices, every fifth marked; with 60% of its
    # edges doubled (P-nodes on the cycle), the runs they join stay whole
    # between marked vertices and single edges
    n, rng = 1200, random.Random(7)
    cycle = [(i, (i + 1) % n) for i in range(n)]
    g = UGraph(n, cycle + [e for e in cycle if doubled and rng.random() < 0.6])
    marked = list(range(0, n, 5))
    want = marked_veb_per_vertex(g, marked)
    assert marked_veb(g, marked) == want
    assert (sum(len(b) >= 3 for b in want) >= 3) == doubled


def test_mveb_s_nodes_under_r_nodes_vs_reference():
    # one block of about 3,000 edges: S-nodes hang under the wheel's R-node
    # and R-nodes under them; an eighth of the vertices are marked, and so
    # are the hub and every fourth rim vertex
    rng = random.Random(8)
    g = subdivided_wheel(rng, 40, 40)
    marked = sorted(set(rng.sample(range(g.n), g.n // 8)).union(range(0, 41, 4)))
    want = marked_veb_per_vertex(g, marked)
    assert marked_veb(g, marked) == want
    assert 1_000 <= g.m <= 10_000 and sum(len(b) >= 3 for b in want) >= 3
    kinds = [nd.kind for nd in spqr(g).nodes]
    assert kinds.count("R") > 1 and kinds.count("S") > 1


def test_mveb_bridgey_pipeline_calls_vs_reference(monkeypatch):
    # the graphs partition_strong_bridges hands to marked_veb on bridgey
    calls: list[tuple[UGraph, list[int]]] = []

    def recording(g, marked):
        calls.append((g, list(marked)))
        return marked_veb(g, marked)

    monkeypatch.setattr(pipeline, "marked_veb", recording)
    pipeline.two_etscc(oracles.gen_digraph(256, 1024, random.Random(1), "bridgey"))
    assert any(marked for _, marked in calls)
    for g, marked in calls:
        assert marked_veb(g, marked) == marked_veb_per_vertex(g, marked), (g.m, marked)


def test_spqr_long_cycle_stays_iterative():
    n = 100_000
    g = UGraph(n, [(i, (i + 1) % n) for i in range(n)])
    limit = sys.getrecursionlimit()
    tree = spqr(g)
    assert sys.getrecursionlimit() == limit
    assert [nd.kind for nd in tree.nodes] == ["S"] and len(tree.nodes[0].edges) == n


def test_spqr_node_order_ignores_pair_ids():
    # nodes sort by kind, then by their edges with virtual-pair ids left
    # out; pair ids are numbered by first appearance in that order.  Here
    # a bond at {0, 1} holds two cycles; with the ids in the key, the
    # 4-cycle could come first
    g = UGraph(5, [(0, 3), (4, 2), (0, 4), (1, 0), (1, 3), (2, 1)])
    tree = spqr(g)
    assert [(nd.kind, len(nd.edges)) for nd in tree.nodes] == [("P", 3), ("S", 3), ("S", 4)]
    keys = [
        (nd.kind, tuple((u, v, t[0], t[1] if t[0] == "real" else -1) for u, v, t in nd.edges))
        for nd in tree.nodes
    ]
    assert keys == sorted(keys)
    seen = []
    for nd in tree.nodes:
        for _, _, (tk, tid) in nd.edges:
            if tk == "virtual" and tid not in seen:
                seen.append(tid)
    assert seen == list(range(len(seen)))
