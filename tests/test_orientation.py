"""Mixed-graph orientation blocks vs the orientation-enumeration oracles."""

from __future__ import annotations

import random

import pytest

from twinscc.graph import GraphError, MixedGraph, Partition, refines
from twinscc.orientation import (
    edge_resilient_blocks,
    split_and_gadget,
    split_and_twin,
    strongly_orientable_blocks,
)
from twinscc.pipeline import two_escc, two_etscc_baseline
from twinscc.strong import scc
from twinscc import oracles


def test_split_and_twin_shapes():
    g = MixedGraph(2, directed=[(0, 1)])
    red = split_and_twin(g)
    assert red.graph.n == 3 and red.graph.edges == ((0, 2), (2, 1))
    g = MixedGraph(2, undirected=[(0, 1)])
    red = split_and_twin(g)
    assert red.graph.edges == ((0, 1), (1, 0))
    red = split_and_twin(MixedGraph(0))
    assert red.graph.n == 0 and red.graph.m == 0


def test_split_and_gadget_shapes():
    g = MixedGraph(2, undirected=[(0, 1)])
    red = split_and_gadget(g)
    z, u, v = 2, 3, 4
    assert red.graph.edges == (
        (0, z), (z, 0), (z, u), (u, v), (v, 1), (1, u), (v, z),
    )
    assert red.critical_edges == (3,)
    g = MixedGraph(2, directed=[(0, 1)])
    red = split_and_gadget(g)
    assert red.graph.m == 2 and red.critical_edges == ()


def test_gadget_counting(rng):
    for _ in range(20):
        n = rng.randrange(2, 7)
        g = oracles.gen_mixed(n, rng.randrange(0, 5), rng.randrange(0, 5), rng)
        red = split_and_gadget(g)
        d, u = len(g.directed), len(g.undirected)
        assert red.graph.n == n + d + 3 * u
        assert red.graph.m == 2 * d + 7 * u


def test_orientable_blocks_examples():
    tri = MixedGraph(3, undirected=[(0, 1), (1, 2), (2, 0)])
    assert strongly_orientable_blocks(tri) == Partition([[0, 1, 2]])
    path = MixedGraph(3, undirected=[(0, 1), (1, 2)])
    assert strongly_orientable_blocks(path) == Partition([[0], [1], [2]])
    mixed = MixedGraph(2, directed=[(0, 1)], undirected=[(0, 1)])
    assert strongly_orientable_blocks(mixed) == Partition([[0, 1]])


def test_edge_resilient_examples():
    three_par = MixedGraph(2, undirected=[(0, 1), (0, 1), (0, 1)])
    assert edge_resilient_blocks(three_par) == Partition([[0, 1]])
    tri = MixedGraph(3, undirected=[(0, 1), (1, 2), (2, 0)])
    assert edge_resilient_blocks(tri) == Partition([[0], [1], [2]])
    cyc_plus = MixedGraph(2, directed=[(0, 1), (1, 0)], undirected=[(0, 1)])
    assert edge_resilient_blocks(cyc_plus) == Partition([[0, 1]])


def test_single_undirected_edge_degenerate():
    g = MixedGraph(2, undirected=[(0, 1)])
    assert edge_resilient_blocks(g) == oracles.oracle_edge_resilient(g)
    assert edge_resilient_blocks(g) == Partition([[0], [1]])
    assert strongly_orientable_blocks(g) == oracles.oracle_orientable_blocks(g)
    assert strongly_orientable_blocks(g) == Partition([[0], [1]])


def test_orientable_blocks_random_vs_oracle(rng):
    for _ in range(150):
        n = rng.randrange(1, 7)
        g = oracles.gen_mixed(n, rng.randrange(0, 7), rng.randrange(0, 7), rng)
        assert strongly_orientable_blocks(g) == oracles.oracle_orientable_blocks(g), (
            g.directed,
            g.undirected,
        )


def test_edge_resilient_random_vs_oracle(rng):
    for _ in range(150):
        n = rng.randrange(1, 7)
        g = oracles.gen_mixed(n, rng.randrange(0, 7), rng.randrange(0, 7), rng)
        assert edge_resilient_blocks(g) == oracles.oracle_edge_resilient(g), (
            g.directed,
            g.undirected,
        )


def test_failure_set_variants_vs_oracle(rng):
    for _ in range(120):
        n = rng.randrange(1, 6)
        g = oracles.gen_mixed(n, rng.randrange(0, 6), rng.randrange(0, 6), rng)
        for fail in ("directed", "undirected"):
            got = edge_resilient_blocks(g, fail=fail)
            want = oracles.oracle_edge_resilient(g, fail=fail)
            assert got == want, (g.directed, g.undirected, fail)


def test_unknown_failure_set_rejected():
    with pytest.raises(GraphError):
        edge_resilient_blocks(MixedGraph(1), fail="sideways")


def test_resilient_refines_orientable(rng):
    for _ in range(80):
        n = rng.randrange(1, 7)
        g = oracles.gen_mixed(n, rng.randrange(0, 6), rng.randrange(0, 6), rng)
        assert refines(edge_resilient_blocks(g), strongly_orientable_blocks(g))


def test_purely_directed_matches_scc_and_2escc(rng):
    # no undirected edges: nothing to orient, so the blocks coincide with
    # the SCCs and the 2-edge SCCs respectively
    for _ in range(60):
        n = rng.randrange(1, 7)
        dg = oracles.gen_digraph(n, rng.randrange(0, 10), rng)
        g = MixedGraph(n, directed=list(dg.edges))
        assert strongly_orientable_blocks(g) == scc(dg).partition
        assert edge_resilient_blocks(g) == two_escc(dg)


def test_partition_invariant_under_stored_order_flip(rng):
    # the gadget uses the stored endpoint order, but the output must not
    # depend on it
    for _ in range(60):
        n = rng.randrange(2, 6)
        g = oracles.gen_mixed(n, rng.randrange(0, 5), rng.randrange(1, 5), rng)
        flipped = MixedGraph(
            g.n, g.directed, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in g.undirected]
        )
        assert edge_resilient_blocks(g) == edge_resilient_blocks(flipped)
        assert strongly_orientable_blocks(g) == strongly_orientable_blocks(flipped)


def test_blocks_partition_all_vertices(rng):
    for _ in range(40):
        n = rng.randrange(1, 7)
        g = oracles.gen_mixed(n, rng.randrange(0, 6), rng.randrange(0, 6), rng)
        for part in (strongly_orientable_blocks(g), edge_resilient_blocks(g)):
            assert sorted(v for b in part for v in b) == list(range(n))


def test_edge_resilient_mid_size_vs_baseline():
    # 500 edges: the gadget reduction makes biconnected blocks of a few
    # hundred edges that hold many marked vertices
    g = oracles.gen_mixed(125, 250, 250, random.Random(1))
    red = split_and_gadget(g)
    want = red.ordinary_restriction(two_etscc_baseline(red.graph))
    assert edge_resilient_blocks(g, "both") == want
