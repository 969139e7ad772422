"""Dominator trees, flow bridges, strong bridges vs deletion oracles."""

from __future__ import annotations

import pytest

from twinscc.graph import DiGraph, PreconditionError
from twinscc.dominators import dominator_tree, flow_bridges, strong_bridges
from twinscc import oracles

from named_graphs import bik2, bik3, cyc3, diamond_with_return


def test_path_idoms():
    g = DiGraph(3, [(0, 1), (1, 2)])
    dt = dominator_tree(g, 0)
    assert dt.idom[1] == 0 and dt.idom[2] == 1


def test_cyc3_idoms():
    dt = dominator_tree(cyc3(), 0)
    assert dt.idom[1] == 0 and dt.idom[2] == 1
    assert oracles.oracle_dominators(cyc3(), 0) == {1: 0, 2: 1}


def test_diamond_idom_is_source():
    g = DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    dt = dominator_tree(g, 0)
    assert dt.idom[3] == 0


def test_unreachable_vertex_rejected():
    with pytest.raises(PreconditionError):
        dominator_tree(DiGraph(3, [(0, 1)]), 0)


def test_dominates_matches_ancestor_relation():
    g = diamond_with_return()
    dt = dominator_tree(g, 0)
    assert dt.dominates(0, 3)
    assert not dt.dominates(1, 3)


def test_flow_bridges_cyc3():
    bd = flow_bridges(cyc3(), 0)
    assert bd.flow_bridges == (0, 1)
    assert bd.marked == (1, 2)
    assert bd.subtrees == {0: (0,), 1: (1,), 2: (2,)}


def test_flow_bridges_bik2():
    bd = flow_bridges(bik2(), 0)
    assert bd.flow_bridges == (0,)
    assert bd.marked == (1,)


def test_parallel_edges_never_flow_bridges():
    g = DiGraph(2, [(0, 1), (0, 1), (1, 0)])
    bd = flow_bridges(g, 0)
    assert bd.flow_bridges == ()


def test_source_never_marked(rng):
    for _ in range(100):
        n = rng.randrange(2, 8)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, n + 8), rng, "bridgey")
        bd = flow_bridges(g, 0)
        assert 0 not in bd.marked
        assert set(bd.marked) == {g.edges[e][1] for e in bd.flow_bridges}


def test_strong_bridges_examples():
    assert strong_bridges(cyc3()) == (0, 1, 2)
    assert strong_bridges(bik3()) == ()
    assert strong_bridges(diamond_with_return()) == (0, 1, 2, 3, 4)


def test_strong_bridges_requires_strongly_connected():
    with pytest.raises(PreconditionError):
        strong_bridges(DiGraph(2, [(0, 1)]))


def test_idom_matches_oracle_random(rng):
    for _ in range(120):
        n = rng.randrange(2, 9)
        g = oracles.gen_digraph(n, rng.randrange(1, 16), rng)
        reach = oracles._reach(n, g.edges, 0)
        if len(reach) != n:
            continue
        dt = dominator_tree(g, 0)
        expect = oracles.oracle_dominators(g, 0)
        assert {v: dt.idom[v] for v in range(1, n)} == expect


def test_flow_bridges_match_oracle_random(rng):
    for _ in range(120):
        n = rng.randrange(2, 9)
        g = oracles.gen_digraph(n, rng.randrange(1, 16), rng, model="bridgey")
        if len(oracles._reach(n, g.edges, 0)) != n:
            continue
        bd = flow_bridges(g, 0)
        assert bd.flow_bridges == oracles.oracle_flow_bridges(g, 0)


def test_strong_bridges_match_oracle_and_source_free(rng):
    for _ in range(100):
        n = rng.randrange(2, 9)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 2 * n + 6), rng, "bridgey")
        es = strong_bridges(g)
        assert es == oracles.oracle_strong_bridges(g)
        # independence from the internal source: relabel vertices and compare
        perm = list(range(n))
        rng.shuffle(perm)
        h = DiGraph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert strong_bridges(h) == oracles.oracle_strong_bridges(h)
