"""Dominator trees, flow bridges, strong bridges vs deletion oracles."""

from __future__ import annotations

import random

import pytest

from twinscc.graph import DiGraph, PreconditionError
from twinscc.dominators import dominator_tree, flow_bridges, strong_bridges
from twinscc import oracles

from dominator_reference import (
    reference_flow_bridges,
    reference_idom,
    reference_tree_numbers,
)
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


def _deep_back_edges(n: int, rng) -> DiGraph:
    """A path 0 -> 1 -> ... -> n-1 that the DFS follows first, closed into
    a cycle, plus edges back to far ancestors and a few forward edges, so
    that eval walks long link paths; vertices relabelled at random, with
    vertex 0 kept first on the path."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    for i in range(2, n):
        for _ in range(rng.randrange(1, 4)):
            edges.append((i, rng.randrange(max(1, i // 16))))
        if rng.random() < 0.2:
            edges.append((rng.randrange(i - 1), i))
    perm = [0] + rng.sample(range(1, n), n - 1)
    return DiGraph(n, [(perm[u], perm[v]) for u, v in edges])


def _reachable_part(g: DiGraph, s: int) -> DiGraph:
    """The subgraph induced by the vertices reachable from s, with s as 0."""
    reach = oracles._reach(g.n, g.edges, s)
    sub, verts, _ = g.induced(reach)
    if verts[0] != s:  # s is the least reachable vertex only by chance
        swap = {0: verts.index(s), verts.index(s): 0}
        sub = DiGraph(sub.n, [(swap.get(u, u), swap.get(v, v)) for u, v in sub.edges])
    return sub


_FAMILIES = {
    "er": lambda m, rng: _reachable_part(oracles.gen_digraph(m // 4, m, rng, "er"), 0),
    "bridgey": lambda m, rng: oracles.gen_digraph(m // 4, m, rng, "bridgey"),
    "strongly_connected_fast": lambda m, rng: oracles.gen_strongly_connected_fast(
        m // 4, m, rng
    ),
    "twinless_bridge_rich": lambda m, rng: oracles.gen_twinless_bridge_rich(
        m // 4, m, rng
    ),
    "deep_back_edges": lambda m, rng: _deep_back_edges(m // 4, rng),
}


@pytest.mark.parametrize("m", [100, 400, 2000])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_dominator_tree_and_flow_bridges_vs_reference(family, m):
    # both directions of each graph; G^R from the same source, restricted
    # to what it reaches when the family is not strongly connected
    g = _FAMILIES[family](m, random.Random(m))
    for h in (g, _reachable_part(g.reverse(), 0)):
        n, edges = h.n, list(h.edges)
        idom = reference_idom(n, edges, 0)
        pre, size, order = reference_tree_numbers(n, idom, 0)
        dt = dominator_tree(h, 0)
        assert dt.idom == tuple(idom)
        assert (list(dt.pre), list(dt.size), list(dt.order)) == (pre, size, order)
        bd = flow_bridges(h, 0)
        assert list(bd.flow_bridges) == reference_flow_bridges(n, edges, 0)
        assert bd.dom.idom == dt.idom
