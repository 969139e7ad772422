"""SCC / TSCC / twinless strong bridges vs definitional oracles."""

from __future__ import annotations

from twinscc.graph import DiGraph, Partition, refines
from twinscc.strong import scc, tscc, twinless_strong_bridges
from twinscc import oracles

from named_graphs import bik2, bik3, cyc3, diamond_with_return


def test_scc_examples():
    assert scc(cyc3()).partition == Partition([[0, 1, 2]])
    assert scc(DiGraph(2, [(0, 1)])).partition == Partition([[0], [1]])
    assert scc(diamond_with_return()).partition == Partition([[0, 1, 2, 3]])


def test_scc_condensation_is_topological(rng):
    for _ in range(80):
        g = oracles.gen_digraph(rng.randrange(1, 9), rng.randrange(0, 14), rng)
        res = scc(g)
        assert res.partition == oracles.oracle_scc(g)
        assert all(a < b for a, b in res.condensation_edges)


def test_tscc_examples():
    assert tscc(bik2()) == Partition([[0], [1]])
    assert tscc(bik3()) == Partition([[0, 1, 2]])
    assert tscc(cyc3()) == Partition([[0, 1, 2]])


def test_tscc_exhaustive_small():
    # all labeled digraphs with n<=3, m<=4 against the subset-search oracle
    import itertools

    for n in (1, 2, 3):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for m in range(5):
            for combo in itertools.combinations_with_replacement(pairs, m):
                g = DiGraph(n, combo)
                assert tscc(g) == oracles.oracle_tscc_definitional(g), combo


def test_tscc_random_vs_oracle(rng):
    for _ in range(1000):
        n = rng.randrange(1, 8)
        g = oracles.gen_digraph(n, rng.randrange(0, 9), rng, model="bridgey")
        assert tscc(g) == oracles.oracle_tscc_definitional(g), g.edges


def test_tscc_refines_scc(rng):
    for _ in range(80):
        g = oracles.gen_digraph(rng.randrange(1, 9), rng.randrange(0, 16), rng)
        assert refines(tscc(g), scc(g).partition)


def test_self_loops_change_nothing(rng):
    for _ in range(40):
        n = rng.randrange(1, 7)
        g = oracles.gen_digraph(n, rng.randrange(0, 10), rng)
        with_loop = DiGraph(n, list(g.edges) + [(0, 0)])
        assert tscc(g) == tscc(with_loop)
        assert scc(g).partition == scc(with_loop).partition


def test_twinless_strong_bridges_examples():
    assert twinless_strong_bridges(cyc3()) == (0, 1, 2)
    assert twinless_strong_bridges(bik3()) == ()


def test_twinless_strong_bridges_vs_oracle(rng):
    for _ in range(250):
        n = rng.randrange(2, 8)
        g = oracles.gen_digraph(n, rng.randrange(1, 12), rng, model="bridgey")
        fast = twinless_strong_bridges(g)
        slow = oracles.oracle_twinless_strong_bridges(g)
        assert fast == slow, g.edges


def et_gap_fixture() -> DiGraph:
    """Twinless strongly connected graph whose edge (2,3) is a twinless
    strong bridge but not a strong bridge: two bidirected triangles joined
    by the single edge (2,3) and the twin pair (0,5)/(5,0).  Deleting (2,3)
    keeps the graph strongly connected, but its underlying graph then hangs
    on the bridge {0,5}."""
    edges = []
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        edges.append((a, b))
        edges.append((b, a))
    edges += [(2, 3), (0, 5), (5, 0)]
    return DiGraph(6, edges)


def test_et_gap_fixture():
    g = et_gap_fixture()
    gap_eid = g.edges.index((2, 3))
    es = set(oracles.oracle_strong_bridges(g))
    et = set(twinless_strong_bridges(g))
    assert et == set(oracles.oracle_twinless_strong_bridges(g))
    assert gap_eid in et and gap_eid not in es
