"""Bridges/2ecc, biconnected blocks, and the 3ecc cactus vs brute force."""

from __future__ import annotations

import random

import pytest

from twinscc.graph import Partition, PreconditionError, UGraph, underlying
from twinscc.strong import tscc
from twinscc.undirected import (
    biconnected,
    bridges_2ecc,
    connected_components,
    three_ecc_cactus,
    three_ecc_classes,
)
from twinscc import oracles

from named_graphs import c4_ugraph, k4_ugraph, shared_triangles_ugraph
from three_ecc_reference import three_ecc_blocks


def test_triangle_no_bridges():
    g = UGraph(3, [(0, 1), (1, 2), (2, 0)])
    bridges, blocks = bridges_2ecc(g)
    assert bridges == ()
    assert blocks == Partition([[0, 1, 2]])


def test_path_all_bridges():
    g = UGraph(3, [(0, 1), (1, 2)])
    bridges, blocks = bridges_2ecc(g)
    assert bridges == (0, 1)
    assert blocks == Partition([[0], [1], [2]])


def test_two_triangles_2ecc_matches_oracle():
    g = shared_triangles_ugraph()
    bridges, blocks = bridges_2ecc(g)
    assert bridges == ()
    assert blocks == oracles.oracle_2ecc(g)


def test_parallel_pair_is_not_a_bridge():
    g = UGraph(2, [(0, 1), (0, 1)])
    bridges, blocks = bridges_2ecc(g)
    assert bridges == ()
    assert blocks == Partition([[0, 1]])


def test_biconnected_c4():
    bf = biconnected(c4_ugraph())
    assert len(bf.blocks) == 1
    assert bf.articulation == ()


def test_biconnected_two_triangles():
    bf = biconnected(shared_triangles_ugraph())
    assert len(bf.blocks) == 2
    assert bf.articulation == (2,)


def test_biconnected_single_edge():
    bf = biconnected(UGraph(2, [(0, 1)]))
    assert bf.blocks == ((0,),)


def test_articulation_iff_in_two_blocks(rng):
    for _ in range(60):
        n = rng.randrange(2, 9)
        g = oracles.gen_ugraph(n, rng.randrange(1, 14), rng)
        bf = biconnected(g)
        assert set(bf.articulation) == set(oracles.oracle_articulation_points(g))
        for v in range(n):
            in_blocks = sum(any(v in g.edges[e] for e in blk) for blk in bf.blocks)
            if in_blocks >= 2:
                assert v in bf.articulation


def test_three_ecc_k4_single_class():
    cactus = three_ecc_cactus(k4_ugraph())
    assert cactus.node_count == 1
    assert cactus.edges == ()
    assert cactus.classes == oracles.oracle_3ecc(k4_ugraph())


def test_three_ecc_c4_single_cycle():
    cactus = three_ecc_cactus(c4_ugraph())
    assert cactus.node_count == 4
    assert len(cactus.cycles) == 1
    assert len(cactus.cycles[0]) == 4
    assert cactus.classes == oracles.oracle_3ecc(c4_ugraph())


def test_three_ecc_two_triangles():
    g = shared_triangles_ugraph()
    cactus = three_ecc_cactus(g)
    assert cactus.node_count == 5
    assert len(cactus.cycles) == 2
    assert cactus.classes == oracles.oracle_3ecc(g)


def test_three_ecc_degenerate_inputs():
    assert three_ecc_cactus(UGraph(1, [])).node_count == 1
    c = three_ecc_cactus(UGraph(2, [(0, 1), (0, 1)]))
    assert c.node_count == 2
    assert len(c.cycles) == 1 and len(c.cycles[0]) == 2
    # three parallel edges are 3-edge-connected
    assert three_ecc_cactus(UGraph(2, [(0, 1)] * 3)).node_count == 1


def test_three_ecc_preconditions():
    with pytest.raises(PreconditionError):
        three_ecc_classes(UGraph(2, []))  # disconnected
    with pytest.raises(PreconditionError):
        three_ecc_classes(UGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))  # bridge


def _random_2ec_graph(rng: random.Random) -> UGraph:
    while True:
        n = rng.randrange(2, 10)
        g = oracles.gen_ugraph(n, rng.randrange(n, 2 * n + 6), rng)
        if len(oracles.oracle_bridges(g)) == 0 and len(connected_components(g)) == 1:
            return g


def test_three_ecc_random_vs_oracle(rng):
    for _ in range(150):
        g = _random_2ec_graph(rng)
        assert three_ecc_classes(g) == oracles.oracle_3ecc(g), g.edges


def test_cactus_cycle_structure_random(rng):
    for _ in range(80):
        g = _random_2ec_graph(rng)
        cactus = three_ecc_cactus(g)
        # every cactus edge lies on exactly one cycle
        seen = [0] * len(cactus.edges)
        for cyc in cactus.cycles:
            for i in cyc:
                seen[i] += 1
        assert all(c == 1 for c in seen)
        # removing one cycle edge never disconnects the cactus; removing a
        # whole cycle disconnects it into >= 2 parts
        q_edges = [(a, b) for a, b, _, _ in cactus.edges]
        for cid, cyc in enumerate(cactus.cycles):
            keep = [e for i, e in enumerate(q_edges) if i != cyc[0]]
            assert len(oracles._components(cactus.node_count, keep)) == 1
            keep = [q_edges[i] for i in range(len(q_edges)) if cactus.edges[i][2] != cid]
            assert len(oracles._components(cactus.node_count, keep)) >= 2


def test_bridges_2ecc_random_vs_oracle(rng):
    for _ in range(150):
        n = rng.randrange(1, 10)
        g = oracles.gen_ugraph(n, rng.randrange(0, 16), rng)
        bridges, blocks = bridges_2ecc(g)
        assert blocks == oracles.oracle_2ecc(g)
        assert tuple(sorted(bridges)) == oracles.oracle_bridges(g)
        assert connected_components(g) == oracles._components(g.n, g.edges)


def test_three_ecc_nested_sides_sharing_a_segment():
    # the 13-vertex TSCC of the digraph in
    # test_pipeline.py::test_two_etscc_nested_cut_sides_vs_baseline, as an
    # undirected graph: two nested cut sides open a preorder segment at the
    # same position with the same end, and the outer one must be pushed
    # first; relabelings move the DFS so the tie shows up at other places
    edges = [
        (0, 5), (0, 11), (0, 12), (1, 6), (1, 7), (1, 10), (2, 4), (2, 5),
        (2, 6), (3, 4), (3, 8), (3, 9), (7, 8), (7, 9), (8, 9), (10, 11),
        (11, 12),
    ]
    g = UGraph(13, edges)
    assert three_ecc_classes(g) == oracles.oracle_3ecc(g)
    assert three_ecc_classes(g) == Partition(
        [[0, 11], [1, 2], [3, 7, 8, 9], [4], [5], [6], [10], [12]]
    )
    rng = random.Random(5)
    for _ in range(100):
        perm = list(range(13))
        rng.shuffle(perm)
        relabeled = [(perm[a], perm[b]) for a, b in edges]
        rng.shuffle(relabeled)
        h = UGraph(13, relabeled)
        assert three_ecc_classes(h) == oracles.oracle_3ecc(h), relabeled


def _core_view(gen, m: int) -> tuple[int, list[tuple[int, int]]]:
    # the underlying graph of the largest TSCC of a core benchmark family
    g = gen(m // 4, m, random.Random(m))
    sub = g.induced(max(tscc(g), key=len))[0]
    view = underlying(sub)
    return view.n, list(view.edges)


def _ladder_with_parallel_rungs(k: int, rng: random.Random):
    # top vertex 2i, bottom vertex 2i+1; about a third of the rungs doubled
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    edges += [(2 * i, 2 * i + 1) for i in range(k) if rng.random() < 0.35]
    edges += [(2 * i, 2 * i + 2) for i in range(k - 1)]
    edges += [(2 * i + 1, 2 * i + 3) for i in range(k - 1)]
    return 2 * k, edges


def _nested_two_cuts(steps: int, rng: random.Random):
    # from a triple edge, each step subdivides an edge, adds a path of
    # length two parallel to one, or hangs a vertex on a doubled edge: every
    # new vertex sits behind 2-edge cuts nested inside the earlier ones
    edges = [(0, 1)] * 3
    n = 2
    for _ in range(steps):
        i = rng.randrange(len(edges))
        a, b = edges[i]
        kind = rng.randrange(3)
        if kind == 0:
            edges[i] = (a, n)
            edges.append((n, b))
        elif kind == 1:
            edges += [(a, n), (n, b)]
        else:
            edges += [(a, n), (a, n)]
        n += 1
    return n, edges


def test_three_ecc_mid_size_vs_quadratic_reference():
    rng = random.Random(11)
    cases = {
        "sc-256": _core_view(oracles.gen_strongly_connected_fast, 256),
        "sc-1024": _core_view(oracles.gen_strongly_connected_fast, 1024),
        "tbr-256": _core_view(oracles.gen_twinless_bridge_rich, 256),
        "tbr-1024": _core_view(oracles.gen_twinless_bridge_rich, 1024),
        "ladder-40": _ladder_with_parallel_rungs(40, rng),
        "ladder-300": _ladder_with_parallel_rungs(300, rng),
        "nested-80": _nested_two_cuts(80, rng),
        "nested-600": _nested_two_cuts(600, rng),
    }
    for name, (n, edges) in cases.items():
        assert 100 <= len(edges) <= 1000 + n, (name, len(edges))
        want = three_ecc_blocks(n, edges)
        assert 1 < len(want) < n or name.startswith("sc"), (name, len(want))
        for _ in range(3):  # relabelled, so the DFS takes other routes
            perm = list(range(n))
            rng.shuffle(perm)
            moved = [(perm[b], perm[a]) if rng.random() < 0.5 else (perm[a], perm[b])
                     for a, b in edges]
            rng.shuffle(moved)
            got = three_ecc_classes(UGraph(n, moved))
            assert got == Partition([[perm[v] for v in b] for b in want]), name
