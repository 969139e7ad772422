"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them).  Tolerances are exact
equality everywhere; the scaling criterion pins the stated growth bound
(measured against a linear reference timed on the same graphs) and the
speedup bound.  A chained ordering 2etscc <= 2escc <= tscc <= scc cannot
hold (2escc does not refine tscc: doubled twin pair); the suite asserts
the true refinement diamond and pins the counterexample explicitly.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import statistics
import time

from twinscc.graph import DiGraph, Partition, refines
from twinscc.strong import scc, tscc, twinless_strong_bridges
from twinscc.dominators import dominator_tree, flow_bridges, strong_bridges
from twinscc.auxiliary import aux_strong_bridges, build_final_family, classify_xe, verify_xe
from twinscc.pipeline import two_escc, two_etscc, two_etscc_baseline
from twinscc.orientation import edge_resilient_blocks, strongly_orientable_blocks
from twinscc.spqr import marked_veb
from twinscc import oracles

from test_pipeline import checked_two_etscc


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def _all_digraphs(n: int, max_m: int):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for m in range(max_m + 1):
        for combo in itertools.combinations_with_replacement(pairs, m):
            yield DiGraph._trusted(n, combo)


def test_criterion_1_exhaustive_small():
    """All labeled digraphs with n<=4, m<=6 (twins/parallels allowed)."""
    t0 = time.time()
    checked = 0
    for n in (1, 2, 3, 4):
        for g in _all_digraphs(n, 6):
            assert two_etscc(g) == oracles.oracle_2etscc(g), g.edges
            assert two_escc(g) == oracles.oracle_2escc(g), g.edges
            assert tscc(g) == oracles.oracle_tscc_definitional(g), g.edges
            checked += 1
    _report("criterion 1 (exhaustive n<=4 m<=6)", True, f"{checked} graphs in {time.time()-t0:.0f}s")


def _structural_checks(g: DiGraph, p_2e: Partition, p_2et: Partition) -> None:
    # criterion 5: X_e shapes, oo-partition, refinement diamond, laws;
    # p_2e and p_2et are two_escc(g) and two_etscc(g), computed once by
    # the caller
    comps = scc(g)
    p_scc = comps.partition
    p_tscc = tscc(g)
    assert refines(p_2et, p_2e) and refines(p_2et, p_tscc)
    assert refines(p_2e, p_scc) and refines(p_tscc, p_scc)
    for part in (p_scc, p_tscc, p_2e, p_2et):
        assert sorted(v for b in part for v in b) == list(range(g.n))
        assert part.refine(part) == part
    for comp in comps.components:
        if len(comp) == 1:
            continue
        sub, _, _ = g.induced(comp)
        fam = build_final_family(sub, 0)
        oo = sorted(v for h in fam for v in h.oo)
        assert oo == list(range(sub.n)), "oo sets must partition the SCC"
        for h in fam:
            for e in aux_strong_bridges(h):
                verify_xe(h, classify_xe(h, e))


def test_criterion_2_and_5_and_7_randomized():
    """>=10,000 random strongly connected digraphs (n<=10, m<=24, bridge
    heavy generator included): exact oracle agreement for 2etscc, 2escc,
    strong bridges, twinless strong bridges, and dominators; structural
    invariants on every run; baseline equivalence."""
    t0 = time.time()
    rng = random.Random(0xC2)
    runs = 10_000
    for i in range(runs):
        n = rng.randrange(2, 11)
        m = rng.randrange(n, 25)
        model = "bridgey" if i % 2 else "er"
        try:
            g = oracles.gen_strongly_connected(n, m, rng, model, tries=200)
        except Exception:
            g = oracles.gen_strongly_connected(n, max(m, n + 2), rng, "bridgey")
        p_2et = checked_two_etscc(g)
        p_2e = two_escc(g)
        assert p_2et == oracles.oracle_2etscc(g), g.edges
        assert p_2e == oracles.oracle_2escc(g), g.edges
        assert strong_bridges(g) == oracles.oracle_strong_bridges(g), g.edges
        assert twinless_strong_bridges(g) == oracles.oracle_twinless_strong_bridges(g), g.edges
        dt = dominator_tree(g, 0)
        assert {v: dt.idom[v] for v in range(1, g.n)} == oracles.oracle_dominators(g, 0), g.edges
        assert flow_bridges(g, 0).flow_bridges == oracles.oracle_flow_bridges(g, 0), g.edges
        _structural_checks(g, p_2e, p_2et)
        assert p_2et == two_etscc_baseline(g), g.edges
    _report(
        "criteria 2+5+7 (randomized, structural, baseline)",
        True,
        f"{runs} graphs in {time.time()-t0:.0f}s",
    )


def test_criterion_5_chain_defect_documented():
    """A chain 2etscc <= 2escc <= tscc <= scc is unsatisfiable: a doubled
    twin pair is 2-edge strongly connected but not twinless strongly
    connected.  The true relations form a diamond (asserted per graph in
    criterion 2); this pins the counterexample."""
    g = DiGraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    assert two_escc(g) == oracles.oracle_2escc(g) == Partition([[0, 1]])
    assert tscc(g) == oracles.oracle_tscc_definitional(g) == Partition([[0], [1]])
    _report(
        "criterion 5 addendum (chain defect)",
        not refines(two_escc(g), tscc(g)),
        "2escc does not refine tscc on the doubled twin pair (oracle-confirmed)",
    )


def test_criterion_3_mixed_reductions():
    """>=2,000 random mixed graphs (<=8 undirected, <=8 directed):
    resilient-blocks and orient-blocks match the orientation oracles,
    including the directed-only/undirected-only failure variants."""
    t0 = time.time()
    rng = random.Random(0xC3)
    runs = 2_000
    for i in range(runs):
        n = rng.randrange(1, 7)
        md = rng.randrange(0, 9) if n > 1 else 0
        mu = rng.randrange(0, 9) if n > 1 else 0
        g = oracles.gen_mixed(n, md, mu, rng)
        assert strongly_orientable_blocks(g) == oracles.oracle_orientable_blocks(g), (
            g.directed,
            g.undirected,
        )
        assert edge_resilient_blocks(g) == oracles.oracle_edge_resilient(g), (
            g.directed,
            g.undirected,
        )
        fail = ("directed", "undirected")[i % 2]
        assert edge_resilient_blocks(g, fail=fail) == oracles.oracle_edge_resilient(
            g, fail=fail
        ), (g.directed, g.undirected, fail)
    _report("criterion 3 (mixed reductions)", True, f"{runs} graphs in {time.time()-t0:.0f}s")


def test_criterion_4_marked_vertex_edge_blocks():
    """2,000 random biconnected graphs (n<=12) plus assembled multi-block
    graphs: marked_veb equals the deletion oracle exactly."""
    t0 = time.time()
    rng = random.Random(0xC4)
    runs = 0
    for _ in range(2_000):
        n = rng.randrange(3, 13)
        g = oracles.gen_biconnected(n, n + rng.randrange(0, 2 * n), rng)
        arts = set(oracles.oracle_articulation_points(g))
        candidates = [v for v in range(n) if v not in arts]
        rng.shuffle(candidates)
        marked = candidates[: rng.randrange(0, max(1, n // 2))]
        assert marked_veb(g, marked) == oracles.oracle_mveb(g, marked), (g.edges, marked)
        runs += 1
    # assembled multi-block graphs
    from twinscc.graph import UGraph

    for _ in range(250):
        pieces = []
        base = 0
        for _ in range(rng.randrange(2, 4)):
            k = rng.randrange(3, 7)
            pieces.append((base, oracles.gen_biconnected(k, k + rng.randrange(0, k), rng)))
            base += k
        edges: list[tuple[int, int]] = []
        for b, piece in pieces:
            edges.extend((b + x, b + y) for x, y in piece.edges)
        for (b1, p1), (b2, _) in zip(pieces, pieces[1:]):
            glue = b1 + rng.randrange(p1.n)
            edges = [
                (glue if x == b2 else x, glue if y == b2 else y) for x, y in edges
            ]
        g = UGraph(base, edges)
        arts = set(oracles.oracle_articulation_points(g))
        candidates = [
            v for v in range(base) if v not in arts and any(v in e for e in edges)
        ]
        rng.shuffle(candidates)
        marked = candidates[: rng.randrange(0, 3)]
        assert marked_veb(g, marked) == oracles.oracle_mveb(g, marked), (edges, marked)
        runs += 1
    _report("criterion 4 (marked vertex-edge blocks)", True, f"{runs} graphs in {time.time()-t0:.0f}s")


# Allowed growth of the pipeline's wall time relative to a linear reference
# per doubling of m: 2.5x for 2x the work.
_SLOPE_BOUND = math.log2(2.5 / 2)


def _reference_scc_count(g: DiGraph) -> int:
    """Number of SCCs by Kosaraju's algorithm (two adjacency lists, an
    edge-keyed dict, forward and reverse iterative DFS).

    A stdlib-only linear-time workload timed beside the pipeline, so that
    the scaling bound is measured against this machine's cache and memory
    steps.  It shares no code with twinscc: a regression in a shared
    kernel would otherwise slow both sides and cancel itself out."""
    n = g.n
    ends = dict(enumerate(g.edges))
    out: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in ends.items():
        out[u].append(j)
        inc[v].append(j)
    seen = bytearray(n)
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for j in it:
                w = ends[j][1]
                if not seen[w]:
                    seen[w] = 1
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    count = 0
    for root in reversed(order):
        if not seen[root]:
            continue
        count += 1
        seen[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for j in inc[v]:
                u = ends[j][0]
                if seen[u]:
                    seen[u] = 0
                    stack.append(u)
    return count


def _best_time(fn, arg, repeats: int):
    """Best wall time of ``repeats`` calls with the collector off, and the
    last result."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t = time.perf_counter()
            result = fn(arg)
            best = min(best, time.perf_counter() - t)
        finally:
            gc.enable()
    return best, result


def _fitted_scaling(fn, graphs):
    """Time one call of ``fn`` and the best of 3 of the reference on each
    (log2 m, graph) pair; a generator keeps only one graph alive at a time.

    Returns the raw times of both and the least-squares slope of
    log2(T_fn / T_ref) against log2 m, which is 0 for a workload that
    grows exactly like the linear reference on this machine."""
    times: dict[int, float] = {}
    ref_times: dict[int, float] = {}
    for k, g in graphs:
        times[k], _ = _best_time(fn, g, 1)
        ref_times[k], count = _best_time(_reference_scc_count, g, 3)
        assert count == len(scc(g).components), "reference miscounted the SCCs"
    ks = sorted(times)
    fit = statistics.linear_regression(ks, [math.log2(times[k] / ref_times[k]) for k in ks])
    return times, ref_times, fit.slope


def baseline_speedup(g: DiGraph, factor: float = 1.0) -> tuple[float, bool]:
    """Measured baseline/fast time ratio, with the baseline run aborted once
    it exceeds ``factor`` * 10x the fast time (the ratio is then a lower
    bound and the second element is False)."""
    t0 = time.perf_counter()
    fast = two_etscc(g)
    t_fast = max(time.perf_counter() - t0, 1e-9)
    budget = max(10.0 * t_fast * factor, 1.0)
    start = time.perf_counter()
    try:
        part = two_etscc_baseline(g, deadline=start + budget)
    except TimeoutError:
        return (time.perf_counter() - start) / t_fast, False
    if part != fast:
        raise AssertionError("baseline disagrees with the fast path")
    return (time.perf_counter() - start) / t_fast, True


def _ratios(times: dict[int, float]) -> str:
    ks = sorted(times)
    return " ".join(f"{times[b] / times[a]:.2f}" for a, b in zip(ks, ks[1:]))


def test_criterion_6_scaling():
    """End-to-end 2etscc on random strongly connected digraphs with
    m = 2^14..2^20 (n = m/4) grows linearly: measured against a stdlib-only
    linear reference (Kosaraju SCC) timed on the same graphs, the fitted
    growth of T_2etscc / T_ref is at most 2.5x per doubling of m, i.e. a
    slope of at most log2(1.25) in log2 m.  Each size is timed once: the
    fit over seven sizes, not a best-of, absorbs run-to-run noise.  The raw
    consecutive ratios track this machine's cache and memory steps (the
    reference alone grows up to ~3.5x per doubling), so they are reported
    but not bounded.  The
    same check must reject the quadratic baseline on twinless-bridge-rich
    graphs at m = 2^10..2^13, and the fast path beats that baseline >= 10x
    at m = 2^18."""
    t0 = time.time()
    rng = random.Random(0xC6)
    graphs = (
        (k, oracles.gen_strongly_connected_fast((1 << k) // 4, 1 << k, rng)) for k in range(14, 21)
    )
    times, ref_times, slope = _fitted_scaling(two_etscc, graphs)
    ok_ratio = slope <= _SLOPE_BOUND

    # the baseline margin is only realizable on twinless-bridge-rich
    # instances: with no twinless strong bridges Algorithm 3 degenerates to
    # a single TSCC computation and is linear too
    g18 = oracles.gen_twinless_bridge_rich((1 << 18) // 4, 1 << 18, rng)
    speedup, finished = baseline_speedup(g18, factor=1.2)
    ok_speed = speedup >= 10.0

    # the fitted check must still catch a super-linear workload
    rich = ((k, oracles.gen_twinless_bridge_rich((1 << k) // 4, 1 << k, rng)) for k in range(10, 14))
    _, _, base_slope = _fitted_scaling(two_etscc_baseline, rich)
    ok_reject = base_slope > _SLOPE_BOUND

    detail = (
        "; ".join(f"m=2^{k}: {times[k]:.2f}s (ref {ref_times[k]:.3f}s)" for k in sorted(times))
        + f"; raw ratios {_ratios(times)}; reference ratios {_ratios(ref_times)}"
        + f"; normalised slope {slope:.2f} (<={_SLOPE_BOUND:.2f})"
        + f"; quadratic baseline slope {base_slope:.2f} (>{_SLOPE_BOUND:.2f})"
        + f"; baseline speedup at 2^18 {'=' if finished else '>'}{speedup:.0f}x (>=10x)"
        + f"; total {time.time()-t0:.0f}s"
    )
    _report("criterion 6 (scaling)", ok_ratio and ok_speed and ok_reject, detail)
