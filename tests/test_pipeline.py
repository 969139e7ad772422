"""2eSCC / 2eTSCC pipeline vs the brute-force oracles."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from twinscc.graph import DiGraph, Partition, PreconditionError, refines
from twinscc.strong import scc, tscc
from twinscc.pipeline import (
    partition_et_minus_es,
    two_escc,
    two_escc_baseline,
    two_etscc,
    two_etscc_baseline,
)
from twinscc import auxiliary, dominators, oracles, pipeline

from named_graphs import bik2, bik3, cyc3, two_triangles
from test_strong import et_gap_fixture


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
                assert two_etscc(g, verify=True) == oracles.oracle_2etscc(g), combo
                assert two_escc(g) == oracles.oracle_2escc(g), combo


def test_two_etscc_random_vs_oracle(rng):
    for _ in range(400):
        n = rng.randrange(1, 9)
        m = rng.randrange(0, 2 * n + 6) if n > 1 else 0
        g = oracles.gen_digraph(n, m, rng, model=rng.choice(["er", "bridgey"]))
        assert two_etscc(g, verify=True) == oracles.oracle_2etscc(g), g.edges
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


def test_gap_fixture_end_to_end():
    g = et_gap_fixture()
    assert two_etscc(g, verify=True) == oracles.oracle_2etscc(g)
    assert two_etscc(g) == Partition([[0, 1, 2], [3, 4, 5]])


def test_partition_strong_bridges_equals_per_bridge_refinement(rng):
    # per family member, the marked-contraction partition equals the
    # refinement over its strong bridges of the 2ecc blocks of the
    # underlying graph minus X_e, restricted to oo vertices
    from twinscc.graph import UGraph, underlying
    from twinscc.undirected import bridges_2ecc
    from twinscc.auxiliary import aux_strong_bridges, build_final_family, classify_xe
    from twinscc.pipeline import partition_strong_bridges

    for _ in range(60):
        n = rng.randrange(2, 9)
        g = oracles.gen_strongly_connected(n, rng.randrange(n, 2 * n + 6), rng, "bridgey")
        for h in build_final_family(g, 0):
            if not h.oo:
                continue
            got = partition_strong_bridges(h)
            d, local, back = h.digraph()
            want = Partition([sorted(h.oo)])
            for e in aux_strong_bridges(h):
                xe = classify_xe(h, e)
                keep = [v for v in range(d.n) if back[v] not in xe.members]
                view = underlying(d)
                sub_edges = [
                    (a, b) for a, b in view.edges if a in set(keep) and b in set(keep)
                ]
                _, blocks = bridges_2ecc(UGraph(d.n, sub_edges))
                mapped = Partition(
                    [
                        blk
                        for b2 in blocks
                        if (blk := [back[v] for v in b2 if back[v] in h.oo])
                    ]
                )
                want = want.refine(mapped)
            assert got == want, (g.edges, h.kind, h.vertices)


def test_bridge_rich_generator_vs_oracle(rng):
    # the benchmark's baseline-comparison family, validated at small sizes
    from twinscc.dominators import strong_bridges
    from twinscc.strong import twinless_strong_bridges

    for _ in range(30):
        n = rng.randrange(8, 25)
        g = oracles.gen_twinless_bridge_rich(n, rng.randrange(4 * n, 5 * n), rng)
        assert strong_bridges(g) == ()
        assert len(twinless_strong_bridges(g)) >= n // 8 - 1
        assert two_etscc(g, verify=True) == oracles.oracle_2etscc(g), g.edges
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
    assert two_etscc(g, verify=True) == two_etscc_baseline(g)
    assert two_etscc(g) == Partition([[v] for v in range(18)])


@pytest.mark.parametrize("m", [256, 1024, 4096])
def test_two_escc_bridgey_mid_size_vs_baseline(m):
    for seed in (1, 2, 3):
        g = oracles.gen_digraph(m // 4, m, random.Random(seed), "bridgey")
        assert two_escc(g) == two_escc_baseline(g), (m, seed)


def test_only_members_that_can_split_are_analysed(monkeypatch):
    # a member with at most one oo vertex, or a first-level member with one
    # ordinary vertex, cannot split a block, so neither gets a strong-bridge
    # pass or a second level
    current = []
    seen = {"strong_bridges": 0, "second_level": 0}

    def analysed(h, verify=False):
        current.append(h)
        try:
            return partition_strong_bridges(h, verify=verify)
        finally:
            current.pop()

    def bridges(d, _checked=False):
        if current:
            seen["strong_bridges"] += 1
            assert len(current[-1].oo) >= 2, (current[-1].kind, current[-1].oo)
        return strong_bridges(d, _checked=_checked)

    def derived(h1):
        seen["second_level"] += 1
        assert len(h1.ordinary1) >= 2, h1.ordinary1
        return second_level(h1)

    partition_strong_bridges = pipeline.partition_strong_bridges
    strong_bridges = pipeline.strong_bridges
    second_level = pipeline.second_level
    monkeypatch.setattr(pipeline, "partition_strong_bridges", analysed)
    monkeypatch.setattr(pipeline, "strong_bridges", bridges)
    monkeypatch.setattr(pipeline, "second_level", derived)
    g = oracles.gen_digraph(256, 1024, random.Random(1), "bridgey")
    assert two_etscc(g) == two_etscc_baseline(g)
    assert two_escc(g) == two_escc_baseline(g)
    assert seen["strong_bridges"] > 0 and seen["second_level"] > 0


def test_two_etscc_without_strong_bridges_skips_the_family(monkeypatch):
    calls = {"dominator_tree": 0, "build_first_level": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        dominators, "dominator_tree", counted("dominator_tree", dominators.dominator_tree)
    )
    for mod in (auxiliary, pipeline):
        monkeypatch.setattr(
            mod, "build_first_level", counted("build_first_level", mod.build_first_level)
        )
    g = oracles.gen_strongly_connected_fast(1024, 4096, random.Random(1))
    assert two_etscc(g) == Partition([range(g.n)])
    # one forward and one reverse pass find no strong bridge; nothing more
    assert calls == {"dominator_tree": 2, "build_first_level": 0}
