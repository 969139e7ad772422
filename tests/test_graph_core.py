"""Core data model: graphs, partitions, text/JSON round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from twinscc.graph import (
    DiGraph,
    GraphError,
    MixedGraph,
    ParseError,
    Partition,
    graph_from_json,
    graph_to_json,
    parse_graph,
    refines,
    render_graph,
    underlying,
)

from named_graphs import bik2, cyc3


def test_digraph_rejects_out_of_range():
    with pytest.raises(GraphError):
        DiGraph(2, [(0, 5)])
    with pytest.raises(GraphError):
        DiGraph(-1)


def test_underlying_twin_pair_collapses():
    view = underlying(bik2())
    assert view.edges == ((0, 1),)
    assert view.origins == ((0, 1),)


def test_underlying_cyc3_triangle():
    view = underlying(cyc3())
    assert view.edges == ((0, 1), (0, 2), (1, 2))
    assert all(len(o) == 1 for o in view.origins)


def test_underlying_parallels_collapse():
    g = DiGraph(3, [(1, 2), (1, 2), (2, 1)])
    view = underlying(g)
    assert view.edges == ((1, 2),)
    assert view.origins == ((0, 1, 2),)


def test_underlying_ignores_self_loops():
    g = DiGraph(3, [(0, 1), (1, 1), (1, 0)])
    view = underlying(g)
    assert view.edges == ((0, 1),)
    assert sum(len(o) for o in view.origins) == 2


def test_underlying_invariant_under_edge_permutation(rng):
    edges = [(rng.randrange(6), rng.randrange(6)) for _ in range(12)]
    g = DiGraph(6, edges)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    h = DiGraph(6, shuffled)
    assert underlying(g).edges == underlying(h).edges


def test_partition_canonical_form():
    p = Partition([[3, 1], [2], [0, 4]])
    assert p.blocks == ((0, 4), (1, 3), (2,))


def test_partition_rejects_overlap():
    with pytest.raises(GraphError):
        Partition([[0, 1], [1, 2]])


def test_refine_examples():
    whole = Partition([[1, 2, 3]])
    split = Partition([[1, 2], [3]])
    assert whole.refine(split) == split
    assert split.refine(split) == split
    a = Partition([[1, 2], [3, 4]])
    b = Partition([[1, 3], [2, 4]])
    assert a.refine(b) == Partition([[1], [2], [3], [4]])


def test_refine_requires_same_ground_set():
    with pytest.raises(GraphError):
        Partition([[0]]).refine(Partition([[1]]))


@st.composite
def partitions(draw, ground=tuple(range(6))):
    labels = draw(st.lists(st.integers(0, 3), min_size=len(ground), max_size=len(ground)))
    return Partition.from_labels(dict(zip(ground, labels)))


@given(partitions(), partitions())
def test_refine_commutative(p, q):
    assert p.refine(q) == q.refine(p)


@given(partitions(), partitions(), partitions())
def test_refine_associative(p, q, r):
    assert p.refine(q).refine(r) == p.refine(q.refine(r))


@given(partitions())
def test_refine_idempotent(p):
    assert p.refine(p) == p


@given(partitions(), partitions())
def test_refine_refines_both(p, q):
    r = p.refine(q)
    assert refines(r, p) and refines(r, q)


def test_parse_directed():
    g = parse_graph("3 3\nD 0 1\nD 1 2\nD 2 0\n")
    assert g == cyc3()


def test_parse_mixed():
    g = parse_graph("2 1\nU 0 1\n")
    assert isinstance(g, MixedGraph)
    assert g.undirected == ((0, 1),)


def test_parse_out_of_range():
    with pytest.raises(ParseError):
        parse_graph("2 1\nD 0 5\n")


def test_parse_errors():
    for text in ["", "x y", "2 1\nQ 0 1", "2 2\nD 0 1", "2 1\nD 0 1\nD 1 0"]:
        with pytest.raises(ParseError):
            parse_graph(text)


def test_parse_comments_and_labels():
    g = parse_graph("# a triangle\n3 3\nV 0 a\nV 1 b\nV 2 c\nD a b\nD b c\nD c a\n")
    assert g == cyc3()


def test_render_parse_roundtrip(rng):
    for _ in range(25):
        n = rng.randrange(1, 7)
        d = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(8))]
        u = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(4))]
        g = MixedGraph(n, d, u) if u else DiGraph(n, d)
        text = render_graph(g)
        assert render_graph(parse_graph(text)) == text
        assert graph_from_json(graph_to_json(g)) == g


def test_partition_json():
    assert Partition([[2], [0, 1]]).to_json() == "[[0,1],[2]]"
