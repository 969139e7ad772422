"""Mixed-graph orientation blocks vs the orientation-enumeration oracles."""

from __future__ import annotations

import random
import time

import pytest

from twinscc import auxiliary, orientation, pipeline
from twinscc.dominators import strong_bridges
from twinscc.graph import GraphError, MixedGraph, Partition, UGraph, refines
from twinscc.orientation import (
    edge_resilient_blocks,
    split_and_gadget,
    split_and_twin,
    strongly_orientable_blocks,
)
from twinscc.pipeline import two_escc, two_etscc, two_etscc_baseline
from twinscc.strong import _scc_parts, _tscc_graphs, scc
from twinscc.undirected import connected_components
from twinscc import oracles

from orientable_reference import orientable_by_reduction
from resilient_reference import edge_resilient_per_edge


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


def _shaped_mixed(rng: random.Random) -> MixedGraph:
    """At most 12 edges with the shapes the reductions treat apart: an
    antiparallel directed pair, a directed loop, an undirected loop and a
    parallel undirected copy, each present in most graphs."""
    n = rng.randrange(2, 6)

    def pairs(k):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]

    directed, undirected = pairs(rng.randrange(1, 4)), pairs(rng.randrange(1, 4))
    if rng.random() < 0.8:
        directed.append(directed[0][::-1])
    if rng.random() < 0.6:
        undirected.append(undirected[0])
    for edges in (directed, undirected):
        if rng.random() < 0.6:
            edges.append((rng.randrange(n),) * 2)
    return MixedGraph(n, directed, undirected)


@pytest.mark.parametrize("fail", ["both", "directed", "undirected"])
def test_reduction_shapes_vs_oracle(rng, fail):
    # antiparallel pairs stay split and loops are split or dropped; the
    # directed mode's paths through a fresh vertex keep parallel
    # undirected edges apart, where a twin pair straight between the ends
    # would not
    for _ in range(150):
        g = _shaped_mixed(rng)
        assert edge_resilient_blocks(g, fail) == oracles.oracle_edge_resilient(g, fail), (
            g.directed,
            g.undirected,
        )


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
    # 500 edges: the paper's gadget reduction makes biconnected blocks of a
    # few hundred edges that hold many marked vertices; the smaller digraph
    # edge_resilient_blocks analyses must give its answer
    g = oracles.gen_mixed(125, 250, 250, random.Random(1))
    red = split_and_gadget(g)
    want = red.ordinary_restriction(two_etscc_baseline(red.graph))
    assert edge_resilient_blocks(g, "both") == want


@pytest.mark.parametrize("m", [100, 300])
def test_restricted_failures_mid_size_vs_per_edge_reference(m):
    # n = m/2, decorated and with antiparallel pairs, so every answer has
    # several blocks; the brute-force oracle stops at about 12 edges
    rng = random.Random(m + 1)
    g = _decorated(oracles.gen_mixed(m // 2, m // 2, m - m // 2, rng), rng)
    g = _with_antiparallel(g, rng)
    for fail in ("directed", "undirected"):
        want = edge_resilient_per_edge(g, fail)
        assert edge_resilient_blocks(g, fail) == want, fail
        assert 1 < len(want.blocks) < g.n, fail


def _with_antiparallel(g: MixedGraph, rng: random.Random) -> MixedGraph:
    """``g`` plus the reverses of a quarter of its directed edges."""
    rev = [e[::-1] for e in rng.sample(g.directed, len(g.directed) // 4)]
    return MixedGraph(g.n, list(g.directed) + rev, g.undirected)


@pytest.mark.parametrize(
    "fail, m", [("both", 300), ("directed", 300), ("undirected", 300), ("directed", 1000)]
)
def test_edge_resilient_mid_size_vs_per_edge_reference(fail, m):
    # n = m/2 leaves both large blocks and many small ones; the reference
    # makes one tscc pass per failing edge of the paper's gadget reduction
    rng = random.Random(m)
    g = _decorated(oracles.gen_mixed(m // 2, m // 2, m - m // 2, rng), rng)
    g = _with_antiparallel(g, rng)
    want = edge_resilient_per_edge(g, fail)
    assert edge_resilient_blocks(g, fail) == want
    assert 1 < len(want.blocks) < g.n and max(map(len, want.blocks)) > 1


@pytest.mark.parametrize("fail", ["both", "directed", "undirected"])
def test_edge_resilient_budget_1000_edges(fail):
    g = oracles.gen_mixed(250, 500, 500, random.Random(1))
    t = time.perf_counter()
    edge_resilient_blocks(g, fail)
    seconds = time.perf_counter() - t
    # under a second on a 2-core machine; one tscc pass per failing edge
    # took 36-40 s for "directed"
    assert seconds < 10, f"--fail {fail} took {seconds:.1f} s at 1,000 edges"


@pytest.mark.parametrize("fail", ["both", "directed", "undirected"])
def test_each_failure_mode_is_one_two_etscc_call(calls, fail):
    calls.watch("two_etscc", orientation)
    calls.watch("scc", orientation)
    calls.watch("split_and_gadget", orientation)
    g = oracles.gen_mixed(10, 10, 10, random.Random(2))
    edge_resilient_blocks(g, fail)
    assert calls == {"two_etscc": 1, "scc": 0, "split_and_gadget": 0}


@pytest.mark.parametrize("fail", ["both", "directed", "undirected"])
def test_reduced_edge_count_follows_the_rule(monkeypatch, fail):
    # counts work: a directed edge is split only when its reverse is a
    # directed edge (a loop is its own), and loops are dropped where no
    # directed edge fails
    rng = random.Random(3)
    g = _with_antiparallel(_decorated(oracles.gen_mixed(50, 100, 100, rng), rng), rng)
    reduced = []

    def two_etscc_recording(d):
        reduced.append(d)
        return pipeline.two_etscc(d)

    monkeypatch.setattr(orientation, "two_etscc", two_etscc_recording)
    edge_resilient_blocks(g, fail)
    (d,) = reduced
    directed = set(g.directed)
    loops = sum(x == y for x, y in g.directed)
    split = sum((y, x) in directed for x, y in g.directed if x != y or fail != "undirected")
    n_d, n_u = len(g.directed), len(g.undirected)
    assert d.m == {
        "both": n_d + split + 7 * n_u,
        "directed": n_d + split + 8 * n_u,
        "undirected": 2 * (n_d - loops + split) + 7 * n_u,
    }[fail]
    assert loops > 0 and split > loops


_S_KINDS = (auxiliary.KIND_S_SR, auxiliary.KIND_S_RR)


def _splittable_s_operations(d) -> int:
    """S-operations the pipeline must still run on ``d``: those of the
    first-level members with two or more ordinary vertices, in TSCCs with
    a strong bridge, whose ``ordinary1 & ordinary2`` has two or more
    vertices.  The members of one S-operation share r and r2."""
    count = 0
    for part in _scc_parts(d):
        for sub, _, _, _ in _tscc_graphs(part, 2):
            if not strong_bridges(sub):
                continue
            for h1 in auxiliary.build_first_level(sub, 0):
                if len(h1.oo) < 2:
                    continue
                oo_of: dict[int, set[int]] = {}
                for h in auxiliary.second_level(h1):
                    if h.kind in _S_KINDS:
                        oo_of.setdefault(h.r2, set()).update(h.oo)
                count += sum(len(oo) >= 2 for oo in oo_of.values())
    return count


@pytest.mark.parametrize("fail", ["both", "undirected"])
def test_s_operations_that_cannot_split_are_not_run(monkeypatch, fail):
    # counts work, not time: an S-operation whose ordinary1 & ordinary2 has
    # at most one vertex cannot split it, so the pipeline runs none of them
    g = oracles.gen_mixed(125, 250, 250, random.Random(1))
    reduced, s_ops = [], [0]

    def two_etscc_recording(d):
        reduced.append(d)
        return pipeline.two_etscc(d)

    def s_operation_counted(*args, **kwargs):
        s_ops[0] += 1
        return s_operation(*args, **kwargs)

    s_operation = auxiliary.s_operation
    monkeypatch.setattr(orientation, "two_etscc", two_etscc_recording)
    monkeypatch.setattr(auxiliary, "s_operation", s_operation_counted)
    got = edge_resilient_blocks(g, fail)
    (d,) = reduced
    monkeypatch.setattr(auxiliary, "s_operation", s_operation)
    assert s_ops[0] == _splittable_s_operations(d)
    if fail == "both":
        assert s_ops[0] == 0
    # the same answer from the whole family, every S-operation run
    second_level = pipeline.second_level
    monkeypatch.setattr(pipeline, "second_level", lambda h1, **kw: second_level(h1))
    assert edge_resilient_blocks(g, fail) == got


def test_final_family_still_runs_every_s_operation(monkeypatch):
    # build_final_family (and so `twinscc aux`) builds every member: one
    # S-operation per H_rr', each of two or more members, no stand-ins
    g = oracles.gen_mixed(125, 250, 250, random.Random(1))
    d = split_and_gadget(g).graph
    s_ops = [0]

    def s_operation_counted(*args, **kwargs):
        s_ops[0] += 1
        return s_operation(*args, **kwargs)

    s_operation = auxiliary.s_operation
    monkeypatch.setattr(auxiliary, "s_operation", s_operation_counted)
    subs = [sub for part in _scc_parts(d) for sub, _, _, _ in _tscc_graphs(part, 2)]
    assert subs
    for sub in subs:
        s_ops[0] = 0
        family = auxiliary.build_final_family(sub, 0)
        s_members = [h for h in family if h.kind in _S_KINDS]
        origins = {(h.r, h.r2) for h in s_members}
        assert s_ops[0] == len(origins) > 0
        assert len(s_members) >= 2 * len(origins)
        assert auxiliary.KIND_H1 not in {h.kind for h in family}
        assert sorted(v for h in family for v in h.oo) == list(range(sub.n))


def _decorated(g: MixedGraph, rng: random.Random) -> MixedGraph:
    """``g`` plus the shapes the reduction treats apart: parallel
    undirected classes of two and three copies, a directed edge beside an
    undirected one on the same pair (either way round), and directed and
    undirected self-loops."""
    n, und = g.n, list(g.undirected)
    picks = rng.sample(und, min(len(und), 30))
    undirected = und + picks[:10] + picks[10:15] * 2
    directed = list(g.directed) + [e if rng.random() < 0.5 else e[::-1] for e in picks[15:]]
    loops = [(v, v) for v in rng.sample(range(n), min(n, 5))]
    return MixedGraph(n, directed + loops[:3], undirected + loops[3:])


def _undirected_trees_and_cycles(n: int, rng: random.Random) -> list[MixedGraph]:
    tree = [(v, rng.randrange(v)) for v in range(1, n)]
    cycle = [(v, (v + 1) % n) for v in range(n)]
    # a tree whose edges close a few cycles and gain a few parallel copies
    extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 20)]
    return [
        MixedGraph(n, [], tree),
        MixedGraph(n, [], cycle),
        MixedGraph(n, [], tree + extra + rng.sample(tree, n // 20)),
    ]


@pytest.mark.parametrize("m", [100, 1000, 10000])
def test_orientable_blocks_mid_size_vs_reduction(m):
    # the direct computation against the split-and-twin reduction it
    # replaced; n = m/4 as `twinscc gen --model mixed` makes them, and
    # n = m/2 for sparser graphs with many SCCs and bridges
    rng = random.Random(m)
    graphs = []
    for n in (m // 4, m // 2):
        g = oracles.gen_mixed(n, m - m // 2, m // 2, rng)
        graphs += [g, _decorated(g, rng)]
    graphs += _undirected_trees_and_cycles(m, rng)
    sizes = []
    for g in graphs:
        want = orientable_by_reduction(g)
        assert strongly_orientable_blocks(g) == want, (m, g)
        sizes.append(len(want))
    # whole graphs, all singletons, and graphs in between all occur
    assert 1 in sizes and m in sizes and any(1 < k < m // 2 for k in sizes)


def _directed_cycle(n: int, rng: random.Random) -> MixedGraph:
    """A directed n-cycle with n/5 random undirected chords."""
    chords = [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 5)]
    return MixedGraph(n, [(v, (v + 1) % n) for v in range(n)], chords)


def _chained(pieces: list[MixedGraph], kinds: str, rng: random.Random) -> MixedGraph:
    """Disjoint union of ``pieces`` in which piece i reaches piece i + 1 by
    one edge between random vertices: directed if ``kinds[i % len(kinds)]``
    is "d", undirected if it is "u"."""
    directed, undirected, starts = [], [], [0]
    for p in pieces:
        n = starts[-1]
        directed += [(n + a, n + b) for a, b in p.directed]
        undirected += [(n + a, n + b) for a, b in p.undirected]
        starts.append(n + p.n)
    for i in range(len(pieces) - 1):
        tie = (rng.randrange(starts[i], starts[i + 1]), rng.randrange(starts[i + 1], starts[i + 2]))
        (directed if kinds[i % len(kinds)] == "d" else undirected).append(tie)
    return MixedGraph(starts[-1], directed, undirected)


def _beside_and_against(rng: random.Random) -> MixedGraph:
    """An undirected random tree on 3,000 vertices; a third of its edges
    {x, y} gain a directed (x, y) beside them, a third a directed (y, x)."""
    tree = [(v, rng.randrange(v)) for v in range(1, 3000)]
    directed = [e if rng.random() < 0.5 else e[::-1] for e in tree if rng.random() < 2 / 3]
    return MixedGraph(3000, directed, tree)


_CONTRACTION_SHAPES = {
    # many SCCs: the directed edges between them must stay uncontracted
    "cycle-chain": lambda rng: _chained([_directed_cycle(30, rng) for _ in range(60)], "d", rng),
    # one SCC: the undirected edges between the cycles must stay bridges
    "tied-cycles": lambda rng: _chained([_directed_cycle(30, rng) for _ in range(60)], "u", rng),
    # a directed edge contracted beside an undirected one leaves it a loop
    "beside-and-against": _beside_and_against,
    "mostly-directed": lambda rng: _chained(
        [oracles.gen_mixed(250, 900, 100, rng) for _ in range(4)], "du", rng
    ),
    "mostly-undirected": lambda rng: _chained(
        [oracles.gen_mixed(500, 100, 900, rng) for _ in range(4)], "du", rng
    ),
}


@pytest.mark.parametrize("shape", sorted(_CONTRACTION_SHAPES))
def test_orientable_blocks_contraction_shapes_vs_reduction(shape):
    # 10^3 to 10^4 edges where each contraction of strongly_orientable_blocks
    # could join what must stay apart
    g = _CONTRACTION_SHAPES[shape](random.Random(6))
    want = orientable_by_reduction(g)
    assert strongly_orientable_blocks(g) == want
    assert 1_000 <= len(g.directed) + len(g.undirected) <= 10_000
    assert len(want) < g.n and sum(len(b) >= 3 for b in want) >= 3


def test_orientable_blocks_work_on_contracted_graphs(calls):
    # counts work: one scc pass over the directed edges between the classes
    # of undirected edges, one bridge pass over at most the undirected edges
    rng = random.Random(5)
    g = _with_antiparallel(_decorated(oracles.gen_mixed(1000, 2000, 2000, rng), rng), rng)
    calls.watch("scc", orientation)
    calls.watch("bridges_2ecc", orientation)
    strongly_orientable_blocks(g)
    assert calls == {"scc": 1, "bridges_2ecc": 1}
    ((d,),), ((h,),) = calls.args["scc"], calls.args["bridges_2ecc"]
    classes = connected_components(UGraph(g.n, g.undirected))
    assert d.m == len(g.directed) and d.n <= len(classes) < g.n
    assert h.m <= len(g.undirected)


@pytest.mark.parametrize("reduce", [split_and_twin, split_and_gadget])
@pytest.mark.parametrize("n, m", [(25, 100), (50, 100), (150, 300)])
def test_two_etscc_on_mixed_reductions_vs_baseline(reduce, n, m):
    # the quadratic baseline takes about 2.5 s on the gadget graph at 300
    # input edges and 30 s at 1,000, so the sizes stop at 300; the gadget
    # graph at 500 edges is checked by test_edge_resilient_mid_size_vs_baseline
    d = reduce(oracles.gen_mixed(n, m - m // 2, m // 2, random.Random(m))).graph
    assert two_etscc(d) == two_etscc_baseline(d)
