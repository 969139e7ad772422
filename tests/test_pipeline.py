"""2eSCC / 2eTSCC pipeline vs the brute-force oracles."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from twinscc.graph import DiGraph, Partition, PreconditionError, refines
from twinscc.dominators import strong_bridges
from twinscc.strong import _scc_parts, _tscc_graphs, scc, tscc, twinless_strong_bridges
from twinscc.pipeline import (
    partition_et_minus_es,
    two_escc,
    two_escc_baseline,
    two_etscc,
    two_etscc_baseline,
)
from twinscc import auxiliary, dominators, graph, oracles, pipeline, undirected
from twinscc.orientation import split_and_gadget

from named_graphs import bik2, bik3, cyc3, two_triangles
from test_auxiliary import _reduced_and_bridgey_graphs, _triangles_behind_one_exit
from test_dominators import _chain
from test_graph_core import with_twins_and_parallels
from test_strong import et_gap_fixture


def checked_two_etscc(g: DiGraph) -> Partition:
    """``two_etscc(g)``, after checking the two shortcuts it takes in each
    family member it analyses (one with two or more oo vertices, of a TSCC
    with strong bridges): the degree count of the member's strong bridges
    against its flow-graph passes, and each X_e against SCCs."""
    for part in _scc_parts(g):
        for sub, _, _, _ in _tscc_graphs(part, 2):
            bd = dominators.flow_bridges(sub, 0)
            if not bd.flow_bridges and not dominators._find_bridges(sub.reverse(), 0)[1]:
                continue
            for h in pipeline._splittable_family(sub, bd):
                if not isinstance(h, auxiliary.AuxGraph):
                    continue  # a bare oo-set: it cannot split
                assert len(h.oo) >= 2, (g.edges, h.kind)
                d, _, _ = h.digraph()
                sbs = pipeline._lone_edges(d)
                assert tuple(sbs) == strong_bridges(d), (g.edges, h.kind)
                for e in sbs:
                    auxiliary.verify_xe(h, auxiliary.classify_xe(h, e))
    return two_etscc(g)


def test_two_escc_examples():
    assert two_escc(cyc3()) == Partition([[0], [1], [2]])
    assert two_escc(bik3()) == Partition([[0, 1, 2]])
    assert two_escc(two_triangles()) == Partition([[0, 1, 2, 3, 4]])


def test_two_etscc_examples():
    assert two_etscc(cyc3()) == Partition([[0], [1], [2]])
    assert two_etscc(bik2()) == Partition([[0], [1]])
    assert two_etscc(two_triangles()) == Partition([[0, 1, 2, 3, 4]])


def test_partition_et_examples():
    assert partition_et_minus_es(bik3()) == Partition([[0, 1, 2]])
    assert partition_et_minus_es(cyc3()) == Partition([[0, 1, 2]])
    g = et_gap_fixture()
    p = partition_et_minus_es(g)
    assert len(p) > 1
    assert p == Partition([[0, 1, 2], [3, 4, 5]])


def test_partition_et_on_zero_and_one_vertex():
    assert partition_et_minus_es(DiGraph(0, [])) == Partition([])
    assert partition_et_minus_es(DiGraph(1, [])) == Partition([[0]])


def test_partition_et_requires_twinless_strong_connectivity():
    with pytest.raises(PreconditionError):
        partition_et_minus_es(bik2())
    with pytest.raises(PreconditionError):
        partition_et_minus_es(DiGraph(2, [(0, 1)]))


def test_two_etscc_exhaustive_tiny():
    # all labeled digraphs with n <= 3, m <= 5 (twins and parallels allowed)
    for n in (1, 2, 3):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for m in range(6):
            for combo in itertools.combinations_with_replacement(pairs, m):
                g = DiGraph(n, combo)
                assert checked_two_etscc(g) == oracles.oracle_2etscc(g), combo
                assert two_escc(g) == oracles.oracle_2escc(g), combo


def test_two_etscc_random_vs_oracle(rng):
    for _ in range(400):
        n = rng.randrange(1, 9)
        m = rng.randrange(0, 2 * n + 6) if n > 1 else 0
        g = oracles.gen_digraph(n, m, rng, model=rng.choice(["er", "bridgey"]))
        assert checked_two_etscc(g) == oracles.oracle_2etscc(g), g.edges
        assert two_escc(g) == oracles.oracle_2escc(g), g.edges


def test_refinement_diamond(rng):
    # 2etscc refines both 2escc and tscc, which each refine scc.  (2escc
    # does NOT refine tscc in general; see the counterexample below.)
    for _ in range(120):
        n = rng.randrange(1, 9)
        m = rng.randrange(0, 2 * n + 6) if n > 1 else 0
        g = oracles.gen_digraph(n, m, rng, model="bridgey")
        p_scc = scc(g).partition
        p_tscc = tscc(g)
        p_2e = two_escc(g)
        p_2et = two_etscc(g)
        assert refines(p_2et, p_2e)
        assert refines(p_2et, p_tscc)
        assert refines(p_2e, p_scc)
        assert refines(p_tscc, p_scc)


def test_2escc_does_not_refine_tscc():
    # doubled twin pair: 0 and 1 are 2-edge strongly connected (two
    # edge-disjoint paths each way) yet not twinless strongly connected
    g = DiGraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    assert two_escc(g) == Partition([[0, 1]]) == oracles.oracle_2escc(g)
    assert tscc(g) == Partition([[0], [1]])
    assert not refines(two_escc(g), tscc(g))


def test_baseline_equivalence(rng):
    for _ in range(150):
        n = rng.randrange(1, 9)
        m = rng.randrange(0, 2 * n + 6) if n > 1 else 0
        g = oracles.gen_digraph(n, m, rng, model=rng.choice(["er", "bridgey"]))
        assert two_etscc(g) == two_etscc_baseline(g), g.edges


def test_baseline_deadline():
    g = oracles.gen_twinless_bridge_rich(16, 40, random.Random(1))
    assert twinless_strong_bridges(g)  # the deadline is checked per bridge
    assert two_etscc_baseline(g, deadline=time.perf_counter() + 60) == two_etscc(g)
    with pytest.raises(TimeoutError):
        two_etscc_baseline(g, deadline=time.perf_counter() - 1)


def test_gap_fixture_end_to_end():
    g = et_gap_fixture()
    assert checked_two_etscc(g) == oracles.oracle_2etscc(g)
    assert two_etscc(g) == Partition([[0, 1, 2], [3, 4, 5]])


def _check_partition_strong_bridges(h) -> bool:
    """Assert that the marked-contraction partition of the member ``h``
    equals the refinement over its strong bridges of the 2ecc blocks of
    the underlying graph minus X_e, restricted to oo vertices.  True when
    some X_e has two vertices, so that ``partition_strong_bridges``
    absorbs one of them into the other."""
    from twinscc.graph import UGraph, underlying
    from twinscc.undirected import bridges_2ecc
    from twinscc.auxiliary import aux_strong_bridges, classify_xe
    from twinscc.pipeline import partition_strong_bridges

    got = partition_strong_bridges(h)
    d, _, back = h.digraph()
    view = underlying(d)
    want = Partition([sorted(h.oo)])
    pair = False
    for e in aux_strong_bridges(h):
        xe = classify_xe(h, e)
        pair |= len(xe.members) == 2
        keep = {v for v in range(d.n) if back[v] not in xe.members}
        sub_edges = [(a, b) for a, b in view.edges if a in keep and b in keep]
        _, blocks = bridges_2ecc(UGraph(d.n, sub_edges))
        mapped = Partition(
            [
                blk
                for b2 in blocks
                if (blk := [back[v] for v in b2 if back[v] in h.oo])
            ]
        )
        want = want.refine(mapped)
    assert got == want, (h.kind, h.vertices, h.edges)
    return pair


def test_partition_strong_bridges_equals_per_bridge_refinement(rng):
    # per family member; the counts show that some X_e is an attached
    # pair or X_xy, one of whose vertices is absorbed into the other
    from twinscc.auxiliary import build_final_family

    pairs = 0
    for _ in range(60):
        n = rng.randrange(2, 9)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 2 * n + 6), rng, "bridgey")
        for h in build_final_family(g, 0):
            if h.oo:
                pairs += _check_partition_strong_bridges(h)
    assert pairs > 0
    pairs = 0
    for g in _reduced_and_bridgey_graphs():
        for block in tscc(g):
            if len(block) > 1:
                for h in build_final_family(g.induced(block)[0], 0):
                    if h.oo:
                        pairs += _check_partition_strong_bridges(h)
    assert pairs > 0


def test_bridge_rich_generator_vs_oracle(rng):
    # the benchmark's baseline-comparison family, validated at small sizes
    for _ in range(30):
        n = rng.randrange(8, 25)
        g = oracles.gen_twinless_bridge_rich(n, rng.randrange(4 * n, 5 * n), rng)
        assert strong_bridges(g) == ()
        assert len(twinless_strong_bridges(g)) >= n // 8 - 1
        assert checked_two_etscc(g) == oracles.oracle_2etscc(g), g.edges
        assert two_etscc(g) == two_etscc_baseline(g)


def test_two_etscc_output_is_partition_of_all_vertices(rng):
    for _ in range(60):
        n = rng.randrange(1, 10)
        m = rng.randrange(0, 2 * n) if n > 1 else 0
        g = oracles.gen_digraph(n, m, rng)
        p = two_etscc(g)
        assert sorted(v for b in p for v in b) == list(range(n))


def test_two_etscc_bridgey_mid_size_vs_baseline():
    # m = 1024 on the bridgey model: many TSCCs and strong bridges, so most
    # of the time goes to marked_veb on blocks of up to a few hundred edges
    g = oracles.gen_digraph(256, 1024, random.Random(1), "bridgey")
    t = time.perf_counter()
    got = two_etscc(g)
    seconds = time.perf_counter() - t
    assert got == two_etscc_baseline(g)
    # about 0.1 s on a 2-core machine; a super-linear marked_veb takes minutes
    assert seconds < 20, f"two_etscc took {seconds:.1f} s at m = 1024"


def test_two_etscc_bridgey_m4096_vs_baseline():
    # 279 2eTSCCs; the quadratic baseline takes about 4 s on a 2-core machine
    g = oracles.gen_digraph(1024, 4096, random.Random(1), "bridgey")
    assert two_etscc(g) == two_etscc_baseline(g)


def test_two_etscc_nested_cut_sides_vs_baseline():
    # a 13-vertex TSCC whose underlying graph has two nested 2-edge-cut
    # sides starting and ending at the same preorder positions; a wrong
    # 3ecc partition there made the cactus builder fail with
    # "cactus block is not a cycle"
    g = DiGraph(18, [
        (4, 6), (6, 3), (0, 9), (9, 3), (3, 11), (11, 2), (2, 12), (12, 13),
        (13, 14), (14, 4), (4, 13), (14, 12), (2, 15), (15, 16), (16, 17),
        (17, 0), (0, 16),
    ])
    assert checked_two_etscc(g) == two_etscc_baseline(g)
    assert two_etscc(g) == Partition([[v] for v in range(18)])


@pytest.mark.parametrize("m", [256, 1024, 4096])
def test_two_escc_bridgey_mid_size_vs_baseline(m):
    for seed in (1, 2, 3):
        g = oracles.gen_digraph(m // 4, m, random.Random(seed), "bridgey")
        assert two_escc(g) == two_escc_baseline(g), (m, seed)


def test_only_members_that_can_split_are_analysed(monkeypatch):
    # a member with at most one oo vertex, or a first-level member with one
    # ordinary vertex, cannot split a block, so neither gets its strong
    # bridges classified or a second level
    current = []
    seen = {"classify_xe": 0, "second_level": 0}

    def analysed(h):
        current.append(h)
        try:
            return partition_strong_bridges(h)
        finally:
            current.pop()

    def classified(h, eid):
        if current:
            seen["classify_xe"] += 1
            assert len(current[-1].oo) >= 2, (current[-1].kind, current[-1].oo)
        return classify_xe(h, eid)

    def derived(h1, **kw):
        seen["second_level"] += 1
        assert len(h1.ordinary1) >= 2, h1.ordinary1
        return second_level(h1, **kw)

    partition_strong_bridges = pipeline.partition_strong_bridges
    classify_xe = pipeline.classify_xe
    second_level = pipeline.second_level
    monkeypatch.setattr(pipeline, "partition_strong_bridges", analysed)
    monkeypatch.setattr(pipeline, "classify_xe", classified)
    monkeypatch.setattr(pipeline, "second_level", derived)
    g = oracles.gen_digraph(256, 1024, random.Random(1), "bridgey")
    assert two_etscc(g) == two_etscc_baseline(g)
    assert two_escc(g) == two_escc_baseline(g)
    assert seen["classify_xe"] > 0 and seen["second_level"] > 0


@pytest.mark.parametrize(
    "g",
    [
        split_and_gadget(oracles.gen_mixed(125, 250, 250, random.Random(1))).graph,
        oracles.gen_digraph(256, 1024, random.Random(1), "bridgey"),
    ],
    ids=["gadget", "bridgey"],
)
@pytest.mark.parametrize("fn", [two_etscc, two_escc])
def test_only_members_that_can_split_are_built(fn, g, monkeypatch):
    # a piece with at most one oo vertex cannot split a block, so the
    # pipeline keeps its bare oo-set and builds no member for it: the
    # members built are the first-level ones with two or more ordinary
    # vertices, whose second level is read, and the final ones with two
    # or more oo vertices, which are analysed.  Building every member
    # built 1,502 and 100 here, for 3 and 21
    seen = {"built": 0, "first_level": 0, "final": 0, "analysed": 0}

    def built(h, *args, **kw):
        seen["built"] += 1
        init(h, *args, **kw)

    def first_level(*args, **kw):
        out = build_first_level(*args, **kw)
        seen["first_level"] += sum(
            len(h.ordinary1) >= 2 for h in out if isinstance(h, auxiliary.AuxGraph)
        )
        return out

    def family(sub, bd):
        for h in splittable_family(sub, bd):
            if isinstance(h, auxiliary.AuxGraph):
                assert len(h.oo) >= 2, (h.kind, h.oo)
                seen["final"] += 1
            yield h

    def analysed(h):
        seen["analysed"] += 1
        assert len(h.oo) >= 2, (h.kind, h.oo)
        return partition_strong_bridges(h)

    init = auxiliary.AuxGraph.__init__
    build_first_level = auxiliary.build_first_level
    splittable_family = pipeline._splittable_family
    partition_strong_bridges = pipeline.partition_strong_bridges
    monkeypatch.setattr(auxiliary.AuxGraph, "__init__", built)
    for mod in (auxiliary, pipeline):
        monkeypatch.setattr(mod, "build_first_level", first_level)
    monkeypatch.setattr(pipeline, "_splittable_family", family)
    monkeypatch.setattr(pipeline, "partition_strong_bridges", analysed)
    fn(g)
    assert seen["final"] > 0
    assert seen["analysed"] == (seen["final"] if fn is two_etscc else 0)
    assert seen["built"] == seen["first_level"] + seen["final"]


def test_member_strong_bridges_are_counted_not_passed(calls):
    # an analysed member's strong bridges come from its in- and
    # out-degrees: the only flow-graph passes left are the two per TSCC
    # with at least two vertices and the reverse one per second level,
    # and no step builds an underlying view
    g = oracles.gen_digraph(256, 1024, random.Random(1), "bridgey")
    expect = two_etscc_baseline(g)
    big = sum(len(b) >= 2 for b in tscc(g))
    calls.watch("dominator_tree", dominators)
    calls.watch("underlying", graph)  # no module of the pipeline imports it
    calls.watch("second_level", auxiliary, pipeline)
    assert two_etscc(g) == expect
    assert calls["dominator_tree"] == 2 * big + calls["second_level"] == 7
    assert calls["underlying"] == 0


def test_two_etscc_without_strong_bridges_skips_the_family(calls):
    calls.watch("dominator_tree", dominators)
    calls.watch("build_first_level", auxiliary, pipeline)
    calls.watch("underlying", graph)
    calls.watch("_dfs", undirected, dominators)
    g = oracles.gen_strongly_connected_fast(1024, 4096, random.Random(1))
    assert two_etscc(g) == Partition([range(g.n)])
    # one forward and one reverse pass find no strong bridge; nothing more.
    # The cactus reads the underlying CSR tscc built, and one DFS tree
    # serves its 2ecc and 3ecc sweeps: the others are the cactus quotient's
    # and the two passes'
    assert calls == {
        "dominator_tree": 2, "build_first_level": 0, "underlying": 0, "_dfs": 4
    }


def test_two_escc_without_strong_bridges_skips_the_family(calls):
    calls.watch("dominator_tree", dominators)
    calls.watch("build_first_level", auxiliary, pipeline)
    g = oracles.gen_strongly_connected_fast(1024, 4096, random.Random(1))
    assert two_escc(g) == Partition([range(g.n)])
    # the SCC is one 2eSCC: no auxiliary family is built
    assert calls == {"dominator_tree": 2, "build_first_level": 0}


def test_pipeline_never_builds_the_dominator_tree_views(calls):
    # the passes read the tree's preorder arrays only, with or without a
    # strong bridge (the auxiliary family reads the bridges' tails)
    calls.watch("_build_views", dominators.DomTree)
    g = oracles.gen_strongly_connected_fast(1024, 4096, random.Random(1))
    assert two_etscc(g) == Partition([range(g.n)])
    assert two_escc(g) == Partition([range(g.n)])
    h = oracles.gen_digraph(256, 1024, random.Random(1), "bridgey")
    two_etscc(h)
    two_escc(h)
    assert calls == {"_build_views": 0}


@pytest.mark.parametrize("m", [256, 1024, 4096])
@pytest.mark.parametrize("family", ["strongly_connected_fast", "twinless_bridge_rich"])
def test_core_families_mid_size_vs_baselines(family, m):
    gen = getattr(oracles, f"gen_{family}")
    for seed in (1, 2, 3):
        g = gen(m // 4, m, random.Random(seed))
        assert two_escc(g) == two_escc_baseline(g), (family, m, seed)
        assert two_etscc(g) == two_etscc_baseline(g), (family, m, seed)


def _scc_mix(seed: int) -> DiGraph:
    """SCCs with and without strong bridges, joined by one-way edges."""
    rng = random.Random(seed)
    pieces = [
        oracles.gen_strongly_connected_fast(40, 160, rng),  # no strong bridge
        oracles.gen_digraph(40, 160, rng, "bridgey"),
        DiGraph(5, [(i, (i + 1) % 5) for i in range(5)]),  # all strong bridges
        oracles.gen_strongly_connected_fast(30, 120, rng),
        oracles.gen_digraph(40, 80, rng, "er"),
    ]
    edges, piece_of = [], []
    for i, p in enumerate(pieces):
        edges.extend((u + len(piece_of), v + len(piece_of)) for u, v in p.edges)
        piece_of.extend([i] * p.n)
    for _ in range(60):  # to later pieces only, so no two pieces share an SCC
        u, v = sorted(rng.sample(range(len(piece_of)), 2))
        if piece_of[u] < piece_of[v]:
            edges.append((u, v))
    return DiGraph(len(piece_of), edges)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_escc_and_two_etscc_on_mixed_sccs_vs_baselines(seed):
    g = _scc_mix(seed)
    comps = [c for c in scc(g).components if len(c) > 1]
    bridged = [bool(strong_bridges(g.induced(c)[0])) for c in comps]
    assert any(bridged) and not all(bridged)
    assert two_escc(g) == two_escc_baseline(g)
    assert two_etscc(g) == two_etscc_baseline(g)


def _pendant(base: DiGraph, into: int, out_of: int) -> DiGraph:
    """``base`` plus a vertex u with ``into`` edges (0, u) and ``out_of``
    edges (u, 0)."""
    u = base.n
    return DiGraph(u + 1, base.edges + ((0, u),) * into + ((u, 0),) * out_of)


_CORE_64 = oracles.gen_strongly_connected_fast(64, 256, random.Random(1))


@pytest.mark.parametrize(
    "g, forward",
    [
        # the strong bridge (1, 0) shows only in the reverse pass from 0
        (DiGraph(2, [(0, 1), (0, 1), (1, 0)]), False),
        # the strong bridge (0, 1) shows only in the forward pass from 0
        (DiGraph(2, [(1, 0), (1, 0), (0, 1)]), True),
        # the same on a pendant vertex u of an SCC without strong bridges:
        # (u, 0) is u's only out-edge, then (0, u) is u's only in-edge
        (_pendant(_CORE_64, 2, 1), False),
        (_pendant(_CORE_64, 1, 2), True),
    ],
)
def test_strong_bridge_seen_by_one_pass_only(g, forward):
    passes = [dominators.flow_bridges(d, 0).flow_bridges for d in (g, g.reverse())]
    assert [bool(p) for p in passes] == [forward, not forward]
    assert two_escc(g) == two_escc_baseline(g)
    assert two_etscc(g) == two_etscc_baseline(g)
    assert len(two_escc(g)) > 1


def test_collapsed_pair_with_edge_id_0_at_the_dfs_root():
    # two triangles sharing the twin pair 0, 1, which collapses into the
    # first entry of the DFS root's row.  Coded -1 - 0 = -1, the id would
    # equal the root's "no parent edge" and the 3ecc sweep would skip it:
    # the classes came out as singletons and the cactus was no cactus
    from twinscc.graph import UGraph, _underlying_csr, underlying
    from twinscc.undirected import _three_ecc_classes

    g = DiGraph(4, [(0, 1), (1, 0), (1, 2), (2, 0), (0, 3), (3, 1)])
    _, dst, ids = csr = _underlying_csr(g)
    assert (dst[0], ids[0]) == (1, -2)
    classes = Partition([[0, 1], [2], [3]])
    assert classes == oracles.oracle_3ecc(UGraph(4, underlying(g).edges))
    assert _three_ecc_classes(4, *csr) == classes
    assert two_etscc(g) == oracles.oracle_2etscc(g) == classes
    assert twinless_strong_bridges(g) == oracles.oracle_twinless_strong_bridges(g)
    assert partition_et_minus_es(g) == Partition([range(4)])


@pytest.mark.parametrize("m", [100, 1000])
@pytest.mark.parametrize("model", ["sc", "bridgey", "er"])
def test_twin_and_parallel_heavy_vs_oracle_and_baseline(model, m):
    # about a third of the pairs carry twins and a sixth parallels, in
    # shuffled edge order, so collapsed pairs of every id meet the sweeps
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        if model == "sc":
            base = oracles.gen_strongly_connected_fast(m // 6, 2 * m // 3, rng)
        else:
            base = oracles.gen_digraph(m // 4, 2 * m // 3, rng, model)
        g = with_twins_and_parallels(base, rng)
        assert tscc(g) == oracles.oracle_tscc_definitional(g), (model, m, seed)
        assert two_etscc(g) == two_etscc_baseline(g), (model, m, seed)
        if m <= 100 and seed == 1:
            assert two_etscc(g) == oracles.oracle_2etscc(g), (model, m, seed)
            tsb = oracles.oracle_twinless_strong_bridges(g)
            assert twinless_strong_bridges(g) == tsb, (model, m, seed)


def _ring_of_cycles(k: int) -> DiGraph:
    """k directed 4-cycles around a ring, each joined to the next by one
    edge each way: from its vertex 0 to the next one's vertex 0, and back
    from that cycle's vertex 2 to its vertex 2."""
    edges = []
    for i in range(k):
        b, c = 4 * i, 4 * ((i + 1) % k)
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b), (b, c), (c + 2, b + 2)]
    return DiGraph(4 * k, edges)


def _star_of_triangles(k: int) -> DiGraph:
    """k triangles through the hub 0, one way round or, every other one,
    both ways."""
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (a, b), (b, 0)]
        if i % 2:
            edges += [(a, 0), (b, a), (0, b)]
    return DiGraph(2 * k + 1, edges)


def _in_core(shape: DiGraph, seed: int) -> DiGraph:
    """``shape`` glued by its vertex 0 onto vertex 0 of a random core-family
    graph (m = 512), its other vertices after the core's, plus 8 edges
    from it into the core: still one SCC, and the shape's strong bridges
    stay."""
    rng = random.Random(seed)
    core = oracles.gen_strongly_connected_fast(128, 512, rng)
    at = [0] + list(range(core.n, core.n + shape.n - 1))
    edges = list(core.edges) + [(at[u], at[v]) for u, v in shape.edges]
    edges += [(rng.choice(at), rng.randrange(core.n)) for _ in range(8)]
    return DiGraph(core.n + shape.n - 1, edges)


@pytest.mark.parametrize(
    "g",
    [
        _ring_of_cycles(100),
        _star_of_triangles(120),
        _in_core(_chain(200), 1),
        _in_core(_triangles_behind_one_exit(40), 2),
    ],
    ids=[
        "ring_of_100_cycles",
        "star_of_120_triangles",
        "deep_chain_in_core",
        "triangle_chain_in_core",
    ],
)
def test_adversarial_shapes_vs_baselines(g):
    # one SCC whose strong bridges cut it into many singletons and one big
    # block; the quadratic baselines take about 1 s here on a 2-core
    # machine, the linear path a few milliseconds
    t = time.perf_counter()
    got_et, got_e = two_etscc(g), two_escc(g)
    seconds = time.perf_counter() - t
    assert got_et == two_etscc_baseline(g, deadline=time.perf_counter() + 60)
    assert got_e == two_escc_baseline(g)
    for p in (got_et, got_e):
        assert len(p) > 1 and max(map(len, p)) >= 2
    assert seconds < 10, f"the linear path took {seconds:.1f} s at m = {g.m}"


def _tscc_chain(k: int) -> DiGraph:
    """k small TSCCs in one SCC, each with strong bridges inside: a
    5-vertex one whose 2eTSCCs are {0, 1} and singletons, then a directed
    triangle, and so on.  Each one's vertex 0 and the next one's vertex 1
    form a twin pair, whose underlying edge is a bridge."""
    shapes = (
        [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (2, 4), (4, 1), (0, 4)],
        [(0, 1), (1, 2), (2, 0)],
    )
    edges, n = [], 0
    for i in range(k):
        if i:
            edges += [(prev, n + 1), (n + 1, prev)]
        edges += [(n + u, n + v) for u, v in shapes[i % 2]]
        prev, n = n, n + 5 - 2 * (i % 2)
    return DiGraph(n, edges)


def _twin_rung_ladder(k: int) -> DiGraph:
    """k rungs, each the twin pair (2i, 2i+1); the top rail runs right
    along the even vertices and the bottom rail back left along the odd
    ones.  It is one TSCC, and every rail edge is a strong bridge."""
    edges = [e for i in range(k) for e in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i))]
    edges += [(2 * i, 2 * i + 2) for i in range(k - 1)]
    edges += [(2 * i + 3, 2 * i + 1) for i in range(k - 1)]
    return DiGraph(2 * k, edges)


@pytest.mark.parametrize(
    "g, tsccs",
    [(_tscc_chain(80), 80), (_twin_rung_ladder(150), 1)],
    ids=["chain_of_80_tsccs", "ladder_of_150_twin_rungs"],
)
def test_tscc_chain_and_twin_rung_ladder_vs_baselines(g, tsccs):
    # about 600 edges, where the quadratic baselines take about 1.5 s and
    # 0.8 s on a 2-core machine
    assert len(scc(g).components) == 1 and len(tscc(g)) == tsccs
    assert strong_bridges(g)
    got = two_etscc(g)
    assert got == two_etscc_baseline(g, deadline=time.perf_counter() + 60)
    assert two_escc(g) == two_escc_baseline(g)
    assert 1 < len(got) < g.n


@pytest.mark.parametrize(
    "g, bound",
    [(_tscc_chain(1400), 100), (_twin_rung_ladder(2500), 200)],
    ids=["chain_of_1400_tsccs", "ladder_of_2500_twin_rungs"],
)
def test_tscc_chain_and_twin_rung_ladder_cost_a_constant_number_of_scc_passes(g, bound):
    # about 10^4 edges.  two_escc and two_etscc cost about 12 and 30-45
    # scc passes on the chain and 23-29 and 73 on the ladder, at 10^3 and
    # 10^4 edges alike
    for fn in (two_escc, two_etscc):
        passes = _scc_passes(fn, g)
        assert passes <= bound, f"{fn.__name__} took {passes:.0f} scc passes at m = {g.m}"


_ONE_WAY_K4 = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 1))
_BIDIRECTED_K4 = tuple((a, b) for a in range(4) for b in range(4) if a != b)


def _nested_rings(k: int, twinless_only: bool) -> DiGraph:
    """k rings of 4 vertices, each with K4 as its underlying graph,
    oriented alternately one way (with strong bridges inside) and both
    ways.  Rings i - 1 and i are joined by exactly two underlying edges,
    so the 3ecc cactus is a path k nodes deep.  The edges that cross are
    strong bridges, one each way; or, with ``twinless_only``, a lone
    edge into ring i, a twinless strong bridge but no strong bridge,
    beside a twin pair whose edge out of ring i has a parallel copy."""
    edges = []
    for i in range(k):
        r = 4 * i
        edges += [(r + a, r + b) for a, b in (_ONE_WAY_K4, _BIDIRECTED_K4)[i % 2]]
        if i:
            edges.append((r - 3, r))
            if twinless_only:
                edges += [(r - 1, r + 2), (r + 2, r - 1), (r + 2, r - 1)]
            else:
                edges.append((r + 2, r - 1))
    return DiGraph(4 * k, edges)


@pytest.mark.parametrize("twinless_only", [False, True], ids=["strong", "twinless_only"])
def test_nested_two_edge_cuts_vs_baselines(twinless_only):
    # about 600 edges, 50 rings; the baselines take about 0.2 s here
    k = 50
    g = _nested_rings(k, twinless_only)
    cactus = undirected.three_ecc_cactus(graph.underlying(g))
    assert len(cactus.classes) == k and len(cactus.cycles) == k - 1
    assert all(len(cycle) == 2 for cycle in cactus.cycles)
    crossing = {e for e, (u, v) in enumerate(g.edges) if u // 4 != v // 4}
    sbs, tsbs = crossing & set(strong_bridges(g)), crossing & set(twinless_strong_bridges(g))
    if twinless_only:
        assert not sbs and len(tsbs) == k - 1
    else:
        assert sbs == tsbs == crossing
    assert len(tscc(g)) == 1
    got = two_etscc(g)
    assert got == two_etscc_baseline(g, deadline=time.perf_counter() + 60)
    assert two_escc(g) == two_escc_baseline(g)
    assert 1 < len(got) < g.n


@pytest.mark.parametrize(
    "twinless_only, k", [(False, 900), (True, 770)], ids=["strong", "twinless_only"]
)
def test_nested_two_edge_cuts_cost_a_constant_number_of_scc_passes(twinless_only, k):
    # about 10^4 edges.  two_escc and two_etscc cost about 14 and 35-37
    # scc passes with strong bridges crossing and 9 and 20 with twinless
    # ones only, at 10^4 and 2 * 10^4 edges alike
    g = _nested_rings(k, twinless_only)
    for fn in (two_escc, two_etscc):
        passes = _scc_passes(fn, g)
        assert passes <= 100, f"{fn.__name__} took {passes:.0f} scc passes at m = {g.m}"


def _scc_passes(fn, g: DiGraph) -> float:
    """Best of 3 CPU times of ``fn`` over that of ``scc``, each call on a
    fresh copy of ``g``, so both pay for its adjacency arrays."""
    def best(f):
        times = []
        for _ in range(3):
            h = DiGraph._trusted(g.n, g.edges)
            t = time.process_time()
            f(h)
            times.append(time.process_time() - t)
        return min(times)

    return best(fn) / max(best(scc), 1e-6)


def test_deep_chain_costs_a_constant_number_of_scc_passes():
    # on the chain every (i, i+1) is a strong bridge and the tree of roots
    # is a path k deep; walking each edge up that path cost about 800 scc
    # passes at k = 8,000 and doubled with k, one pass over it costs 10-15
    g = _chain(16000)
    for fn in (two_escc, two_etscc):
        passes = _scc_passes(fn, g)
        assert passes <= 40, f"{fn.__name__} took {passes:.0f} scc passes at k = 16,000"

