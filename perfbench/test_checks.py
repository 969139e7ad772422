"""Tests of the benchmark's own reference and checks.

    python3 -m pytest perfbench -q

The reference must agree with the brute-force oracles of twinscc on graphs
small enough for them, and every check must reject a corrupted answer: two
blocks merged or one block split.  The property checks used on full-size
graphs only see merges (a split block still refines every reference
class); splits there are left to the full comparison on a small instance
of the same family, which every run makes.
"""

from __future__ import annotations

import random

import pytest

import reference as ref
import workloads
from tracer import Tracer
from twinscc import DiGraph, oracles, pipeline, tscc, two_escc, two_etscc


def _blocks(p):
    return [tuple(b) for b in p.blocks]


def merged(blocks, i=0, j=1):
    out = [b for k, b in enumerate(blocks) if k not in (i, j)]
    return sorted(out + [tuple(sorted(blocks[i] + blocks[j]))])


def split(blocks):
    i = next(k for k, b in enumerate(blocks) if len(b) > 1)
    b = blocks[i]
    return sorted(blocks[:i] + blocks[i + 1 :] + [b[:1], b[1:]])


def small_digraphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        yield oracles.gen_digraph(n, rng.randint(0, 12), rng, rng.choice(["er", "bridgey"]))


@pytest.mark.parametrize("seed", range(4))
def test_directed_reference_matches_oracles(seed):
    for g in small_digraphs(60, seed):
        e = list(g.edges)
        sccs, tsccs = ref.tscc_labels(g.n, e)
        assert ref.blocks(sccs) == _blocks(oracles.oracle_scc(g))
        assert ref.blocks(tsccs) == _blocks(oracles.oracle_tscc_definitional(g))
        assert ref.blocks(ref.two_escc_labels(g.n, e)) == _blocks(oracles.oracle_2escc(g))
        assert ref.blocks(ref.two_etscc_labels(g.n, e)) == _blocks(oracles.oracle_2etscc(g))


@pytest.mark.parametrize("seed", range(4))
def test_mixed_reference_matches_oracles(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = oracles.gen_mixed(n, rng.randint(0, 5), rng.randint(0, 5), rng)
        d, u = list(g.directed), list(g.undirected)
        assert ref.blocks(ref.orientable_labels(n, d, u)) == _blocks(oracles.oracle_orientable_blocks(g))
        for fail in ("both", "directed", "undirected"):
            expect = _blocks(oracles.oracle_edge_resilient(g, fail))
            assert ref.blocks(ref.edge_resilient_labels(n, d, u, fail)) == expect


def test_parallel_undirected_edges_orient_both_ways():
    # two copies of {0,1} can be oriented oppositely; one copy cannot
    assert ref.blocks(ref.orientable_labels(2, [], [(0, 1), (1, 0)])) == [(0, 1)]
    assert ref.blocks(ref.orientable_labels(2, [], [(0, 1)])) == [(0,), (1,)]


def test_reference_matches_program_on_bench_families():
    rng = random.Random(7)
    for g in (
        oracles.gen_strongly_connected_fast(64, 256, rng),
        oracles.gen_twinless_bridge_rich(64, 256, rng),
        oracles.gen_digraph(64, 256, rng, "bridgey"),
    ):
        e = list(g.edges)
        assert workloads.compare_full(g.n, e, _blocks(two_etscc(g)), _blocks(two_escc(g))) == []


def test_partition_error():
    assert ref.partition_error([(0, 1), (2,)], 3) is None
    assert ref.partition_error([(0, 1)], 3) is not None
    assert ref.partition_error([(0, 1), (1, 2)], 3) is not None
    assert ref.partition_error([(0, 1), ()], 2) is not None


def _family_with_blocks():
    """Small graphs whose 2eTSCC and 2eSCC both have two or more blocks."""
    rng = random.Random(3)
    found = []
    while len(found) < 6:
        g = oracles.gen_digraph(12, 36, rng, "bridgey")
        et, es = _blocks(two_etscc(g)), _blocks(two_escc(g))
        if len(et) > 1 and len(es) > 1 and any(len(b) > 1 for b in et) and any(len(b) > 1 for b in es):
            found.append((g, et, es))
    return found


def test_full_comparison_rejects_merge_and_split():
    for g, et, es in _family_with_blocks():
        e = list(g.edges)
        assert workloads.compare_full(g.n, e, et, es) == []
        for bad_et, bad_es in ((merged(et), es), (split(et), es), (et, merged(es)), (et, split(es))):
            assert workloads.compare_full(g.n, e, bad_et, bad_es)


def test_property_checks_reject_merges():
    for g, et, es in _family_with_blocks():
        e = list(g.edges)
        every = len(e)  # every edge deletion, so any merge is visible
        assert workloads.check_directed(g.n, e, et, es, random.Random(0), every) == []
        for i in range(len(et)):
            for j in range(i + 1, len(et)):
                bad = merged(et, i, j)
                assert workloads.check_directed(g.n, e, bad, es, random.Random(0), every)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                bad = merged(es, i, j)
                assert workloads.check_directed(g.n, e, None, bad, random.Random(0), every)
        assert workloads.check_directed(g.n, e, et, None, random.Random(0), every) == []
        lost = [b for b in et if b != et[-1]]
        assert workloads.check_directed(g.n, e, lost, es, random.Random(0), 0)


def test_property_checks_reject_merges_on_twinless_bridge_rich():
    # one TSCC, many 2eTSCCs: only the edge-deletion sample sees a merge
    g = oracles.gen_twinless_bridge_rich(32, 96, random.Random(5))
    e = list(g.edges)
    et, es = _blocks(two_etscc(g)), _blocks(two_escc(g))
    assert len(_blocks(tscc(g))) == 1 and len(et) > 2
    assert workloads.check_directed(g.n, e, et, es, random.Random(0), len(e)) == []
    assert workloads.check_directed(g.n, e, merged(et), es, random.Random(0), len(e))


def _mixed_inputs():
    rng = random.Random(11)
    out = []
    for label, argv, m in (
        ("orient", ["orient-blocks"], 24),
        ("both", ["resilient-blocks", "--fail", "both"], 16),
        ("directed", ["resilient-blocks", "--fail", "directed"], 16),
        ("undirected", ["resilient-blocks", "--fail", "undirected"], 16),
    ):
        while True:
            g = oracles.gen_mixed(m // 3, m - m // 2, m // 2, rng)
            if argv[0] == "orient-blocks":
                answer = ref.blocks(ref.orientable_labels(g.n, g.directed, g.undirected))
            else:
                answer = ref.blocks(ref.edge_resilient_labels(g.n, g.directed, g.undirected, argv[2]))
            if len(answer) > 1 and any(len(b) > 1 for b in answer):
                break
        out.append(((label, argv, g.n, g.directed, g.undirected, ""), answer))
    return out


def test_mixed_check_rejects_merge_and_split():
    cases = _mixed_inputs()
    inputs = [c[0] for c in cases]
    answers = [c[1] for c in cases]
    assert workloads.Mixed().check(0, inputs, answers) == []
    for i in range(len(answers)):
        for bad in (merged(answers[i]), split(answers[i])):
            corrupted = answers[:i] + [bad] + answers[i + 1 :]
            assert workloads.Mixed().check(0, inputs, corrupted)
    # a failed operation (no answer) is not checked
    assert workloads.Mixed().check(0, inputs, [None] + answers[1:]) == []


def test_mixed_reference_is_what_the_cli_answers(tmp_path):
    from twinscc import render_graph

    rng = random.Random(2)
    g = oracles.gen_mixed(10, 20, 20, rng)
    path = tmp_path / "g.txt"
    path.write_text(render_graph(g))
    inputs = [("t", ["resilient-blocks", "--fail", fail], g.n, g.directed, g.undirected, str(path))
              for fail in ("both", "directed", "undirected")]
    inputs.append(("o", ["orient-blocks"], g.n, g.directed, g.undirected, str(path)))
    answers = []
    for spec in inputs:
        op = workloads.Mixed._op(*spec)
        answers.append(op.answer(op.run()))
    assert workloads.Mixed().check(0, inputs, answers) == []


def test_tracer_counts_nested_calls_and_restores():
    import sys

    mods = {name: sys.modules[f"twinscc.{name}"] for name in ("pipeline", "strong", "graph")}
    before = (mods["pipeline"].two_etscc, mods["strong"].scc, mods["graph"].DiGraph.__init__)
    g = oracles.gen_digraph(40, 160, random.Random(1), "bridgey")
    tracer = Tracer()
    tracer.install()
    try:
        fresh = DiGraph(g.n, g.edges)  # inactive: not counted
        tracer.active = True
        tracer.op = 0
        answer = pipeline.two_etscc(fresh)
        tracer.active = False
    finally:
        tracer.uninstall()
    after = (mods["pipeline"].two_etscc, mods["strong"].scc, mods["graph"].DiGraph.__init__)
    assert before == after
    assert _blocks(answer) == _blocks(two_etscc(g))
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _ in Tracer.metric_units()}
    assert metrics["pipeline.two_etscc.calls"] == 1
    assert metrics["graph.DiGraph.calls"] >= 1
    assert metrics["graph.DiGraph.edges_checked"] >= g.m
    assert metrics["strong.tscc.calls"] >= 1 and metrics["strong.scc.calls"] >= 1
    assert metrics["dominators.dominator_tree.calls"] >= 1
    top = [s for s in tracer.spans if s[1] == -1]
    assert len(top) == 1 and top[0][2] == "pipeline.two_etscc"
    total_self = sum(s[-1] for s in tracer.spans)
    assert total_self == pytest.approx(top[0][5] - top[0][4], rel=1e-9, abs=1e-9)
