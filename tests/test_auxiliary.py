"""Auxiliary-graph family: construction examples, preservation properties,
and X_e verification."""

from __future__ import annotations

import itertools

import pytest

from twinscc.graph import DiGraph, PreconditionError
from twinscc.auxiliary import (
    aux_strong_bridges,
    build_final_family,
    build_first_level,
    classify_xe,
    s_operation,
    verify_xe,
)
from twinscc import oracles
from twinscc.oracles import _reach, _scc_sets

from named_graphs import bik3, cyc3, diamond_with_return, two_triangles


def _by_root(graphs):
    return {h.r: h for h in graphs}


def test_first_level_cyc3():
    hs = _by_root(build_first_level(cyc3(), 0))
    assert set(hs) == {0, 1, 2}
    h0 = hs[0]
    assert h0.vertices == (0, 1)
    assert sorted(h0.edges) == [(0, 1), (1, 0)]
    assert h0.critical_edge is None
    h1 = hs[1]
    assert h1.vertices == (0, 1, 2)
    assert sorted(h1.edges) == [(0, 1), (1, 2), (2, 0)]
    assert h1.critical_edge == (0, 1)
    h2 = hs[2]
    assert h2.vertices == (1, 2)
    assert sorted(h2.edges) == [(1, 2), (2, 1)]
    assert h2.critical_edge == (1, 2)


def test_first_level_bik3_single_graph():
    hs = build_first_level(bik3(), 0)
    assert len(hs) == 1
    h = hs[0]
    assert h.vertices == (0, 1, 2)
    assert h.oo == frozenset({0, 1, 2})
    assert sorted(h.edges) == sorted(bik3().edges)


def test_first_level_requires_strong_connectivity():
    with pytest.raises(PreconditionError):
        build_first_level(DiGraph(2, [(0, 1)]), 0)


def test_first_level_total_size_linear(rng):
    for _ in range(40):
        n = rng.randrange(2, 11)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 3 * n), rng, "bridgey")
        fam = build_first_level(g, 0)
        total = sum(len(h.vertices) + len(h.edges) for h in fam)
        assert total <= 6 * (g.n + g.m)
        # ordinary sets partition V
        ords = sorted(v for h in fam for v in h.ordinary1)
        assert ords == list(range(g.n))


def test_first_level_members_strongly_connected(rng):
    for _ in range(60):
        n = rng.randrange(2, 10)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 3 * n), rng, "bridgey")
        for h in build_first_level(g, 0):
            d, _, _ = h.digraph()
            assert oracles._is_strongly_connected(d.n, d.edges), (g.edges, h)


def test_first_level_path_correspondence(rng):
    # reachability between ordinary vertices of H(G_s, r) matches g, both
    # intact and after deleting one copy of an ordinary-ordinary edge
    for _ in range(30):
        n = rng.randrange(3, 8)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 2 * n + 4), rng, "bridgey")
        for h in build_first_level(g, 0):
            d, local, _ = h.digraph()
            pairs = list(itertools.permutations(sorted(h.ordinary1), 2))
            deletions: list[tuple[list, list]] = [(list(g.edges), list(d.edges))]
            for u, v in set(h.edges):
                if u in h.ordinary1 and v in h.ordinary1 and (u, v) in g.edges:
                    ge = list(g.edges)
                    ge.remove((u, v))
                    he = list(d.edges)
                    he.remove((local[u], local[v]))
                    deletions.append((ge, he))
            for ge, he in deletions:
                for a, b in pairs:
                    in_g = b in _reach(g.n, ge, a)
                    in_h = local[b] in _reach(d.n, he, local[a])
                    assert in_g == in_h, (g.edges, h.r, a, b)


def test_s_operation_diamond():
    g = diamond_with_return()
    eid = g.edges.index((3, 0))
    members = s_operation(g, eid)
    by_verts = {m[0]: m for m in members}
    tri = by_verts[(0, 1, 3)]
    assert sorted(tri[1]) == [(0, 1), (1, 3), (3, 0)]
    assert tri[2] == frozenset({0, 3})  # C = {1}; x=3 and y=0 are attached


def test_s_operation_cyc3():
    g = cyc3()
    members = s_operation(g, 0)  # e = (0, 1)
    by_verts = {m[0]: m for m in members}
    m = by_verts[(0, 1, 2)]
    assert sorted(m[1]) == [(0, 1), (1, 2), (2, 0)]
    assert m[2] == frozenset({0, 1})


def test_s_operation_component_with_both_endpoints():
    # when C already contains x and y, the member is C's internal edges
    # plus the re-added bridge, with nothing attached
    g = DiGraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
    eid = g.edges.index((1, 2))  # strong bridge; g minus it has SCCs {0,1},{2},{3}
    members = s_operation(g, eid)
    by_verts = {m[0]: m for m in members}
    cycle = by_verts[(1, 2, 3)]  # C = {1} attached x=1? no: C={1,..}
    assert cycle[2] <= {1, 2}


def test_s_operation_scc_preservation(rng):
    # deleting a C-internal edge of a member splits it exactly as the SCCs
    # of g minus that edge dictate: an SCC holding both x and y but no
    # C-vertex contributes {x} and {y}; any other SCC contributes its
    # intersection with the member
    from twinscc.dominators import strong_bridges

    for _ in range(40):
        n = rng.randrange(3, 8)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 2 * n + 4), rng, "bridgey")
        for eid in strong_bridges(g):
            x, y = g.edges[eid]
            for verts, edges, attached in s_operation(g, eid):
                vset = set(verts)
                cset = vset - attached
                for j, (u, v) in enumerate(edges):
                    if not (u in cset and v in cset) or (u, v) == (x, y):
                        continue
                    rest = edges[:j] + edges[j + 1 :]
                    got = {
                        frozenset(c & vset)
                        for c in map(set, _scc_sets(g.n, rest))
                        if c & vset
                    }
                    gedges = list(g.edges)
                    gedges.remove((u, v))
                    expect: set[frozenset[int]] = set()
                    for c in map(set, _scc_sets(g.n, gedges)):
                        if x in c and y in c and not (c & cset):
                            expect.add(frozenset({x}))
                            expect.add(frozenset({y}))
                        elif c & vset:
                            expect.add(frozenset(c & vset))
                    assert got == expect, (g.edges, eid, (u, v))


def test_s_operation_requires_strong_bridge():
    with pytest.raises(PreconditionError):
        s_operation(bik3(), 0)


def test_final_family_bik3():
    fam = build_final_family(bik3(), 0)
    assert len(fam) == 1
    assert fam[0].kind == "H_ss"
    assert fam[0].oo == frozenset({0, 1, 2})


def test_final_family_cyc3():
    fam = build_final_family(cyc3(), 0)
    oo_sets = sorted(sorted(h.oo) for h in fam if h.oo)
    assert oo_sets == [[0], [1], [2]]
    for h in fam:
        assert len(h.oo) <= 1


def test_final_family_two_triangles():
    g = two_triangles()
    fam = build_final_family(g, 0)
    oo = sorted(v for h in fam for v in h.oo)
    assert oo == list(range(5))


def test_final_family_oo_partitions_random(rng):
    for _ in range(80):
        n = rng.randrange(2, 10)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 3 * n), rng, "bridgey")
        fam = build_final_family(g, 0)
        oo = sorted(v for h in fam for v in h.oo)
        assert oo == list(range(g.n)), (g.edges, [(h.kind, sorted(h.oo)) for h in fam])
        for h in fam:
            d, _, _ = h.digraph()
            assert oracles._is_strongly_connected(d.n, d.edges), (g.edges, h)
            # multiplicity cap
            for e in set(h.edges):
                assert h.edges.count(e) <= 2


def test_xe_verification_random(rng):
    for _ in range(60):
        n = rng.randrange(2, 10)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 3 * n), rng, "bridgey")
        for h in build_final_family(g, 0):
            for e in aux_strong_bridges(h):
                xe = classify_xe(h, e)
                verify_xe(h, xe)
                assert not (xe.members & h.oo)


def test_two_edge_preservation(rng):
    # u,v 2-edge strongly connected in g iff both ordinary and 2e-connected
    # in some first-level graph
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 2 * n + 4), rng, "bridgey")
        whole = oracles.oracle_2escc(g)
        idx = whole.block_index()
        fam = build_first_level(g, 0)
        for u, v in itertools.combinations(range(n), 2):
            covered = False
            for h in fam:
                if u in h.ordinary1 and v in h.ordinary1:
                    d, local, _ = h.digraph()
                    sub = oracles.oracle_2escc(d)
                    if sub.block_index()[local[u]] == sub.block_index()[local[v]]:
                        covered = True
            assert covered == (idx[u] == idx[v]), (g.edges, u, v)
