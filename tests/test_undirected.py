"""Bridges/2ecc, biconnected blocks, and the 3ecc cactus vs brute force."""

from __future__ import annotations

import random

import pytest

from twinscc.graph import Partition, PreconditionError, UGraph
from twinscc.undirected import (
    biconnected,
    bridges_2ecc,
    connected_components,
    three_ecc_cactus,
    three_ecc_classes,
)
from twinscc import oracles

from named_graphs import c4_ugraph, k4_ugraph, shared_triangles_ugraph


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
            if len(bf.vertex_blocks[v]) >= 2:
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
