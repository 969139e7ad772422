"""Auxiliary-graph family: construction examples, preservation properties,
and X_e verification."""

from __future__ import annotations

import itertools
import random

import pytest

from twinscc.graph import DiGraph, PreconditionError
from twinscc.auxiliary import (
    AuxGraph,
    KIND_HRR,
    KIND_HSS,
    KIND_S_RR,
    KIND_S_SR,
    KIND_TILDE,
    aux_strong_bridges,
    build_final_family,
    build_first_level,
    classify_xe,
    s_operation,
    verify_xe,
)
from twinscc import oracles, pipeline
from twinscc.dominators import flow_bridges, strong_bridges
from twinscc.orientation import split_and_gadget, split_and_twin
from twinscc.strong import scc, tscc
from twinscc.oracles import _reach, _scc_sets

from first_level_reference import build_first_level_walk
from named_graphs import bik3, cyc3, diamond_with_return, two_triangles
from test_dominators import _chain


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


def test_first_level_matches_the_root_path_walk(rng):
    # the one pass over the tree of roots gives what walking each edge up
    # the root path gives, member for member
    checked = 0
    for _ in range(300):
        n = rng.randrange(1, 40)
        g = oracles.gen_digraph(n, rng.randrange(0, 4 * n + 1), rng, rng.choice(["er", "bridgey"]))
        comps = scc(g).components
        for sub, _, _ in g.induced_blocks(comps):
            for s in range(min(3, sub.n)):
                assert build_first_level(sub, s) == build_first_level_walk(sub, s), (g.edges, s)
                checked += 1
    assert checked > 1000
    chains = [_chain(300), _chain(300, rng), _triangles_behind_one_exit(40)]
    chains += [g.reverse() for g in chains]
    for g in chains:
        g = DiGraph(g.n, g.edges)
        for s in (0, g.n // 2, g.n - 1):
            assert build_first_level(g, s) == build_first_level_walk(g, s)


def test_first_level_rejects_an_edge_into_a_dominated_subtree():
    # decomposition of the cycle 0 -> 1 -> 2 -> 0, whose bridges make 1 and
    # 2 roots, handed a graph that also has (0, 2): that edge enters D(2)
    # from outside without being its bridge
    bd = flow_bridges(cyc3(), 0)
    g = DiGraph(3, [*cyc3().edges, (0, 2)])
    with pytest.raises(AssertionError, match="dominated subtree"):
        build_first_level(g, 0, _bd=bd)


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


def _triangles_behind_one_exit(k: int) -> DiGraph:
    """Triangle X on 0, 1, 2 and triangles C_1..C_k on 3i..3i+2, with two
    edges from each C_i into C_(i-1), one edge from 0 and one from 2 into
    each C_i, and one exit edge (3, 1) from C_1 back into X: m = 7k + 2.
    The pipeline's one S-operation here has k + 1 members."""
    edges = [(0, 1), (1, 2), (2, 0)]
    for i in range(1, k + 1):
        a = 3 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a), (0, a), (2, a + 1)]
        if i > 1:
            edges += [(a, a - 3), (a + 1, a - 2)]
    edges.append((3, 1))
    return DiGraph(3 * k + 3, edges)


def test_s_operation_reads_each_edge_a_constant_number_of_times(monkeypatch):
    # scanning a member's edges once per SCC of the member minus its bridge
    # reads about (k + 1) * m edges on this shape; bucketing them in one
    # pass reads O(m)
    from test_strong import _CountingEdges

    from twinscc import auxiliary
    from twinscc.pipeline import two_escc, two_escc_baseline

    s_op = auxiliary.s_operation
    seen = []

    def counted(g, eid):
        edges = _CountingEdges(g.edges)
        members = s_op(DiGraph._trusted(g.n, edges), eid)
        seen.append((len(members), edges.reads / g.m))
        return members

    monkeypatch.setattr(auxiliary, "s_operation", counted)
    for k in (100, 400):
        seen.clear()
        g = _triangles_behind_one_exit(k)
        assert len(two_escc(g)) == 2 * k + 4
        assert [members for members, _ in seen] == [k + 1]
        assert seen[0][1] <= 3, (k, seen)
    g = _triangles_behind_one_exit(30)
    assert two_escc(g) == two_escc_baseline(g)


def test_final_family_single_vertex():
    # one vertex, with or without its self-loop: the one H_ss member
    member = AuxGraph(
        kind=KIND_HSS,
        r=0,
        r2=0,
        vertices=(0,),
        edges=(),
        ordinary1=frozenset({0}),
        ordinary2=frozenset({0}),
        attached=frozenset(),
        oo=frozenset({0}),
        critical_edge=None,
    )
    assert build_final_family(DiGraph(1, []), 0) == [member]
    assert build_final_family(DiGraph(1, [(0, 0)]), 0) == [member]


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


def _reduced_and_bridgey_graphs():
    """bridgey digraphs, split-and-twin reductions and gadget reductions
    in all three failure modes, of about 10^2 to 10^3 edges each."""
    rng = random.Random(14)
    for m in (128, 256, 512, 1024, 1024, 1024):
        yield oracles.gen_digraph(m // 4, m, rng, "bridgey")
    for n in (20, 40):
        g = oracles.gen_mixed(n, 2 * n, 2 * n, rng)
        yield split_and_twin(g).graph
        red = split_and_gadget(g)
        yield red.graph
        for fail in (red.split_edges, red.critical_edges):  # "directed", "undirected"
            copies = tuple(e for i, e in enumerate(red.graph.edges) if i not in fail)
            yield DiGraph(red.graph.n, red.graph.edges + copies)


def test_final_members_strong_bridges_by_degree_count():
    # in a final member, deleting an edge leaves one SCC plus singletons,
    # so its strong bridges are the edges that are their tail's only
    # out-edge or their head's only in-edge; a first-level graph can lack
    # that shape, and there the count can miss or invent a strong bridge
    def agrees(h):
        d, _, _ = h.digraph()
        return tuple(pipeline._lone_edges(d)) == strong_bridges(d)

    kinds, analysed, first_level_misses = set(), 0, 0
    for g in _reduced_and_bridgey_graphs():
        for block in tscc(g):
            if len(block) < 2:
                continue
            sub = g.induced(block)[0]
            for h in build_final_family(sub, 0):
                assert agrees(h), (h.kind, h.edges)
                kinds.add(h.kind)
            for h in pipeline._splittable_family(sub, flow_bridges(sub, 0)):
                if isinstance(h, AuxGraph):  # analysed by partition_strong_bridges
                    assert len(h.oo) >= 2 and agrees(h), (h.kind, h.edges)
                    analysed += 1
            first_level_misses += sum(not agrees(h) for h in build_first_level(sub, 0))
    assert kinds == {KIND_HSS, KIND_HRR, KIND_TILDE, KIND_S_SR, KIND_S_RR}
    assert analysed >= 10 and first_level_misses > 0
