"""Dominator trees, flow bridges, strong bridges vs deletion oracles."""

from __future__ import annotations

import random

import pytest

from twinscc.graph import DiGraph, PreconditionError
from twinscc.dominators import dominator_tree, flow_bridges, strong_bridges
from twinscc import dominators, oracles

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


# Adversarial shapes for one flow-graph pass.  Each is strongly connected,
# so both directions run from source 0; vertices 1.. are relabelled at
# random, and the edge order (which fixes the DFS) is kept.


def _relabelled(n: int, edges, rng) -> DiGraph:
    perm = [0] + rng.sample(range(1, n), n - 1)
    return DiGraph(n, [(perm[u], perm[v]) for u, v in edges])


def _cycle(k: int, rng) -> DiGraph:
    """A long directed cycle: every vertex is a candidate, every edge a
    strong bridge."""
    return _relabelled(k, [(i, (i + 1) % k) for i in range(k)], rng)


def _chain(k: int, rng=None) -> DiGraph:
    """A deep chain of strong bridges: (i, i+1) for i < k and (i, 0) for
    1 <= i <= k (edge ids in that order)."""
    edges = [(i, i + 1) for i in range(k)] + [(i, 0) for i in range(1, k + 1)]
    return DiGraph(k + 1, edges) if rng is None else _relabelled(k + 1, edges, rng)


def _star(k: int, rng) -> DiGraph:
    """A star with return edges, and a few leaf-to-leaf edges that stop
    their heads' spokes from being bridges."""
    edges = [e for i in range(1, k + 1) for e in ((0, i), (i, 0))]
    edges += [tuple(rng.sample(range(1, k + 1), 2)) for _ in range(k // 8)]
    return _relabelled(k + 1, edges, rng)


def _doubled_cycle(k: int, rng) -> DiGraph:
    """A cycle with some tree edges doubled: candidates whose count is 2."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [edges[i] for i in rng.sample(range(k), k // 8)]
    return _relabelled(k, edges, rng)


def _diamonds(k: int, rng) -> DiGraph:
    """Gadgets x -> y, x -> z, z -> y chained through y, then back to 0.
    The DFS enters y from x first, so idom(y) = x is y's DFS parent, but
    y has an in-edge from z, which y does not dominate."""
    edges = []
    x = 0
    for i in range(1, k + 1):
        y, z = 2 * i - 1, 2 * i
        edges += [(x, y), (x, z), (z, y)]
        x = y
    edges.append((x, 0))
    return _relabelled(2 * k + 1, edges, rng)


_SHAPES = {
    "cycle": _cycle,
    "chain": _chain,
    "star": _star,
    "doubled_cycle": _doubled_cycle,
    "diamonds": _diamonds,
}


def _reference_pass(h: DiGraph):
    """Every field of ``flow_bridges(h, 0)`` and the four views of its
    tree, from ``dominator_reference`` alone."""
    n, edges = h.n, list(h.edges)
    idom = reference_idom(n, edges, 0)
    pre, size, order = reference_tree_numbers(n, idom, 0)
    bridges = reference_flow_bridges(n, edges, 0)
    marked = sorted(edges[e][1] for e in bridges)
    roots = {0, *marked}
    tree_of = [-1] * n
    for v in order:
        tree_of[v] = v if v in roots else tree_of[idom[v]]
    subtrees: dict[int, list[int]] = {}
    for v in range(n):
        subtrees.setdefault(tree_of[v], []).append(v)
    views = (tuple(idom), pre, size, order)
    fields = (0, tuple(bridges), tuple(marked), tuple(tree_of))
    return views, fields, [(r, tuple(vs)) for r, vs in subtrees.items()]


def _pass(h: DiGraph):
    dt = dominator_tree(h, 0)
    views = (dt.idom, list(dt.pre), list(dt.size), list(dt.order))
    bd = flow_bridges(h, 0)
    assert bd.dom.idom == dt.idom
    fields = (bd.s, bd.flow_bridges, bd.marked, bd.tree_of)
    return views, fields, list(bd.subtrees.items())


def _candidates(h: DiGraph) -> list[int]:
    """Vertices whose immediate dominator is their DFS parent."""
    dt = dominator_tree(h, 0)
    return [dt.verts[i] for i in range(1, h.n) if dt.dom[i] == dt.par[i]]


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_adversarial_shapes_vs_reference(shape):
    rng = random.Random(shape)
    g = _SHAPES[shape](300, rng)
    for h in (g, g.reverse()):
        assert _pass(h) == _reference_pass(h)
    small = _SHAPES[shape](24, rng)
    assert strong_bridges(small) == oracles.oracle_strong_bridges(small)


def test_adversarial_shapes_exercise_the_candidate_test():
    rng = random.Random(1)
    cycle = _cycle(200, rng)
    assert len(_candidates(cycle)) == 199
    assert strong_bridges(cycle) == tuple(range(200))
    star = _star(200, rng)
    assert len(_candidates(star)) > 175  # leaves the DFS enters from 0
    assert 0 < len(flow_bridges(star, 0).marked) < 200
    # a candidate whose tree edge is doubled is no bridge head
    doubled = _doubled_cycle(200, rng)
    idom = dominator_tree(doubled, 0).idom
    twice = [v for v in _candidates(doubled) if doubled.edges.count((idom[v], v)) == 2]
    assert twice and not set(twice) & set(flow_bridges(doubled, 0).marked)
    # nor is one with an in-edge from outside its dominator subtree
    diamonds = _diamonds(100, rng)
    dt = dominator_tree(diamonds, 0)
    outside = [
        v
        for v in _candidates(diamonds)
        if any(y == v and u != dt.idom[v] and not dt.dominates(v, u) for u, y in diamonds.edges)
    ]
    assert len(outside) == 100 and not set(outside) & set(flow_bridges(diamonds, 0).marked)


def test_deep_chain_of_strong_bridges_passes():
    # the chain at k = 4,000: k + 1 roots in a tree of roots k deep, found
    # by two linear passes (two_escc on it: tests/test_pipeline.py)
    k = 4000
    g = _chain(k)
    fwd = flow_bridges(g, 0)
    assert fwd.dom.idom == (-1, *range(k))
    assert list(fwd.dom.order) == list(range(k + 1)) == list(fwd.dom.pre)
    assert list(fwd.dom.size) == list(range(k + 1, 0, -1))
    assert fwd.flow_bridges == tuple(range(k)) and fwd.marked == tuple(range(1, k + 1))
    assert fwd.tree_of == tuple(range(k + 1)) and len(fwd.subtrees) == k + 1
    rev = flow_bridges(g.reverse(), 0)  # every vertex hangs off 0: all candidates
    assert rev.dom.idom == (-1,) + (0,) * k
    assert list(rev.dom.order) == list(range(k + 1)) == list(rev.dom.pre)
    assert list(rev.dom.size) == [k + 1] + [1] * k
    assert rev.flow_bridges == (2 * k - 1,) and rev.marked == (k,)
    assert rev.tree_of == (0,) * k + (k,)
    assert rev.subtrees == {0: tuple(range(k)), k: (k,)}
    assert strong_bridges(g) == tuple(range(k)) + (2 * k - 1,)


def test_long_cycle_passes():
    k = 10_000
    g = DiGraph(k, [(i, (i + 1) % k) for i in range(k)])
    fwd = flow_bridges(g, 0)
    assert fwd.dom.idom == (-1, *range(k - 1))
    assert fwd.flow_bridges == tuple(range(k - 1)) and fwd.marked == tuple(range(1, k))
    rev = flow_bridges(g.reverse(), 0)
    assert rev.dom.idom == (-1, *range(2, k), 0)
    assert rev.flow_bridges == tuple(range(1, k)) and rev.marked == tuple(range(1, k))
    assert strong_bridges(g) == tuple(range(k))


def test_bridge_test_reads_in_edges_of_candidates_only(monkeypatch):
    # after the Lengauer-Tarjan loop, only candidates' in-edge rows are read;
    # flow_bridges calls the counting tree, _candidates the imported one
    rows: list[int] = []

    class Rows:
        def __init__(self, start):
            self.start = start

        def __getitem__(self, v):
            rows.append(v)
            return self.start[v]

    tree = dominators.dominator_tree

    def counted_tree(h, s):
        dt = tree(h, s)
        start, src, eid = h.in_csr()
        monkeypatch.setattr(h, "_in", (Rows(start), src, eid))
        return dt

    monkeypatch.setattr(dominators, "dominator_tree", counted_tree)
    for g in (
        oracles.gen_strongly_connected_fast(1024, 4096, random.Random(1)),
        oracles.gen_digraph(512, 2048, random.Random(1), "bridgey"),
    ):
        for h in (g, g.reverse()):
            rows.clear()
            cands = _candidates(h)
            flow_bridges(h, 0)
            assert rows == [r for v in cands for r in (v, v + 1)]
            assert len(cands) < h.n // 2
