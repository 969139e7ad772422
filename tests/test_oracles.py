"""The oracles' own contracts: examples, size guards, sufficiency checks."""

from __future__ import annotations

import pytest

from twinscc.graph import DiGraph, GraphError, MixedGraph, Partition, UGraph
from twinscc import oracles

from named_graphs import bik2, bik3, cyc3


def test_oracle_2etscc_examples():
    assert oracles.oracle_2etscc(cyc3()) == Partition([[0], [1], [2]])
    assert oracles.oracle_2etscc(bik3()) == Partition([[0, 1, 2]])
    assert oracles.oracle_2etscc(bik2()) == Partition([[0], [1]])


def test_oracle_2escc_examples():
    assert oracles.oracle_2escc(cyc3()) == Partition([[0], [1], [2]])
    assert oracles.oracle_2escc(bik3()) == Partition([[0, 1, 2]])
    assert oracles.oracle_2escc(DiGraph(2, [(0, 1)])) == Partition([[0], [1]])


def test_oracle_tscc_examples():
    assert oracles.oracle_tscc_definitional(bik2()) == Partition([[0], [1]])
    assert oracles.oracle_tscc_definitional(bik3()) == Partition([[0, 1, 2]])
    assert oracles.oracle_tscc_definitional(cyc3()) == Partition([[0, 1, 2]])


def test_oracle_mveb_examples():
    c4 = UGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k4 = UGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert oracles.oracle_mveb(c4, [0]) == Partition([[1], [2], [3]])
    assert oracles.oracle_mveb(k4, [0]) == Partition([[1, 2, 3]])
    assert oracles.oracle_mveb(c4, []) == Partition([[0, 1, 2, 3]])


def test_oracle_edge_resilient_examples():
    par3 = MixedGraph(2, undirected=[(0, 1)] * 3)
    assert oracles.oracle_edge_resilient(par3) == Partition([[0, 1]])
    tri = MixedGraph(3, undirected=[(0, 1), (1, 2), (2, 0)])
    assert oracles.oracle_edge_resilient(tri) == Partition([[0], [1], [2]])
    # purely directed: equals the definitional 2eTSCC of... no - the 2eSCC
    dg = MixedGraph(3, directed=list(cyc3().edges))
    assert oracles.oracle_edge_resilient(dg) == oracles.oracle_2escc(cyc3())


def test_orientation_oracle_size_guard():
    big = MixedGraph(4, undirected=[(0, 1)] * 13)
    with pytest.raises(GraphError):
        oracles.oracle_edge_resilient(big)


def test_subset_search_guard():
    g = DiGraph(3, [(0, 1), (1, 0)] * 6)
    # falls back to the characterization instead of 2^12 subsets
    assert oracles.oracle_tscc_definitional(g) == Partition([[0], [1], [2]])


def test_et_sufficiency(rng):
    # refining over twinless strong bridges only gives the same 2eTSCCs as
    # refining over every edge (validates twinless_strong_bridges)
    from twinscc.strong import twinless_strong_bridges

    for _ in range(80):
        n = rng.randrange(2, 8)
        g = oracles.gen_digraph(n, rng.randrange(1, 12), rng, model="bridgey")
        full = oracles.oracle_2etscc(g)
        part = oracles._tscc_oracle(g.n, g.edges)
        for e in twinless_strong_bridges(g):
            rest = [x for j, x in enumerate(g.edges) if j != e]
            part = part.refine(oracles._tscc_oracle(g.n, rest))
        assert part == full, g.edges


def test_generators_shapes(rng):
    g = oracles.gen_digraph(8, 14, rng, "bridgey")
    assert g.n == 8 and g.m == 14
    u = oracles.gen_biconnected(7, 10, rng)
    assert not oracles.oracle_articulation_points(u)
    mg = oracles.gen_mixed(5, 4, 3, rng)
    assert len(mg.directed) == 4 and len(mg.undirected) == 3
    sc = oracles.gen_strongly_connected_fast(50, 200, rng)
    assert oracles._is_strongly_connected(sc.n, sc.edges)
