"""``cut_pair_vertex_candidates`` must flag exactly the vertices whose
removal creates a bridge."""

from __future__ import annotations

from twinscc.graph import UGraph
from twinscc.cutfilter import cut_pair_vertex_candidates
from twinscc.undirected import bridges_2ecc
from twinscc import oracles


def _vertices_with_cut_pairs(g: UGraph) -> set[int]:
    out = set()
    for v in range(g.n):
        rest = UGraph(g.n, [e for e in g.edges if v not in e])
        bridges, _ = bridges_2ecc(rest)
        if bridges:
            out.add(v)
    return out


def multi_attached_fixture() -> UGraph:
    """(v, f) cut pair invisible to every 2-edge cut: v=0 doubly attached
    to the side {1, 2}, whose only other connection is f = {1, 3}; the rest
    {3, 4, 5} is a triangle fully tied to v.  The graph is 3-edge-connected,
    so the 3ecc cactus alone would never flag v."""
    return UGraph(
        6,
        [
            (1, 2), (1, 2),  # doubled side pair
            (0, 1), (0, 2),  # v doubly attached
            (1, 3),          # f
            (3, 4), (4, 5), (5, 3),  # triangle
            (0, 3), (0, 4), (0, 5),
        ],
    )


def bridge_after_removal_fixture() -> UGraph:
    """Simple biconnected graph in which g minus 6 has the bridge (3, 2);
    an earlier DFS-based filter missed vertex 6."""
    return UGraph(
        8,
        [(4, 1), (0, 5), (3, 2), (6, 2), (1, 2), (4, 7),
         (3, 0), (7, 6), (5, 3), (6, 3), (5, 6), (7, 2)],
    )


def _assert_exact(g: UGraph) -> None:
    need = _vertices_with_cut_pairs(g)
    have = cut_pair_vertex_candidates(g)
    assert have == need, (g.n, g.edges, sorted(need - have), sorted(have - need))


def _with_doubled_edges(g: UGraph, rng) -> UGraph:
    return UGraph(g.n, list(g.edges) + rng.sample(g.edges, rng.randrange(1, 4)))


def test_filter_complete_on_fixture():
    # removing 6 makes (3, 2) a bridge of the first, removing 0 makes
    # {1, 3} one of the second
    for g, v in ((bridge_after_removal_fixture(), 6), (multi_attached_fixture(), 0)):
        assert v in _vertices_with_cut_pairs(g)
        _assert_exact(g)


def test_filter_complete_random_biconnected(rng):
    for trial in range(400):
        n = rng.randrange(4, 13)
        extra = rng.randrange(0, 2 * n)
        g = oracles.gen_biconnected(n, n + extra, rng)
        _assert_exact(g)
        _assert_exact(_with_doubled_edges(g, rng))


def test_filter_complete_random_larger(rng):
    for trial in range(40):
        n = rng.randrange(15, 45)
        g = oracles.gen_biconnected(n, n + rng.randrange(0, 3 * n), rng)
        _assert_exact(g)
        _assert_exact(_with_doubled_edges(g, rng))


def test_filter_is_selective_on_dense_graphs(rng):
    # dense random blocks have almost no cut-pair vertices
    n = 300
    g = oracles.gen_biconnected(n, 5 * n, rng)
    have = cut_pair_vertex_candidates(g)
    assert len(have) < n // 4
