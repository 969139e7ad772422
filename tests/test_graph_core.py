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
    UGraph,
    _underlying_csr,
    underlying,
)

from named_graphs import bik2, cyc3


def test_digraph_rejects_out_of_range():
    with pytest.raises(GraphError):
        DiGraph(2, [(0, 5)])
    with pytest.raises(GraphError):
        DiGraph(-1)


# the stored edges of each checked constructor, by name
_CONSTRUCTORS = {
    "directed": lambda n, es: DiGraph(n, es).edges,
    "undirected": lambda n, es: UGraph(n, es).edges,
    "mixed-directed": lambda n, es: MixedGraph(n, es, []).directed,
    "mixed-undirected": lambda n, es: MixedGraph(n, [], es).undirected,
}


@pytest.mark.parametrize("edges_of", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS)
def test_constructor_keeps_canonical_edge_tuples(edges_of):
    edges = [(0, 1), (1, 2), (2, 0), (1, 1)]
    stored = edges_of(3, edges)
    assert stored == tuple(edges)
    assert all(s is e for s, e in zip(stored, edges))


@pytest.mark.parametrize("edges_of", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS)
def test_constructor_converts_other_edge_forms(edges_of):
    class Index(int):
        pass

    stored = edges_of(3, [[0, 1], (True, 2), (Index(2), 0), iter((1, 0))])
    assert stored == ((0, 1), (1, 2), (2, 0), (1, 0))
    assert all(type(e) is tuple and all(type(v) is int for v in e) for e in stored)
    for bad in [(0, 1, 2)], [(0,)], [[0, 1, 2]]:
        with pytest.raises(ValueError, match="values to unpack"):
            edges_of(3, bad)


@pytest.mark.parametrize("edges_of", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS)
def test_constructor_rejects_out_of_range_endpoints(edges_of):
    for bad in (3, 0), (0, 3), (-1, 0), (0, -1), [0, 7], (True, 5):
        with pytest.raises(GraphError, match="out of range"):
            edges_of(3, [(0, 1), bad])


def test_induced_blocks_match_induced(rng):
    g = DiGraph(12, [(rng.randrange(12), rng.randrange(12)) for _ in range(40)])
    verts = list(range(12))
    rng.shuffle(verts)
    blocks = [verts[:5], verts[5:6], verts[6:11]]
    assert g.induced_blocks(blocks) == [g.induced(b) for b in blocks]
    with pytest.raises(GraphError):
        g.induced_blocks([[0, 1], [1, 2]])
    with pytest.raises(GraphError):
        g.induced([0, 12])


def test_reverse_shares_adjacency_and_reverses_edges():
    g = DiGraph(3, [(0, 1), (1, 2), (1, 2)])
    rev = g.reverse()
    assert rev.out_csr() is g.in_csr() and rev.in_csr() is g.out_csr()
    assert rev.m == 3
    assert rev.edges == ((1, 0), (2, 1), (2, 1))
    assert rev.reverse().edges == g.edges
    assert rev == DiGraph(3, [(1, 0), (2, 1), (2, 1)])


def _pair_ids(g: DiGraph) -> list[int]:
    """The ``_underlying_csr`` id of each edge of ``underlying(g)``: the
    edge id of a lone origin, else -2 - the smallest origin id."""
    view = underlying(g)
    assert type(view) is UGraph and view.n == g.n
    start, dst, ids = _underlying_csr(g)
    return [ids[start[v] + list(dst[start[v] : start[v + 1]]).index(w)] for v, w in view.edges]


def test_underlying_twin_pair_collapses():
    assert underlying(bik2()).edges == ((0, 1),)
    assert _pair_ids(bik2()) == [-2]


def test_underlying_cyc3_triangle():
    assert underlying(cyc3()).edges == ((0, 1), (0, 2), (1, 2))
    assert _pair_ids(cyc3()) == [0, 2, 1]  # one origin each


def test_underlying_parallels_collapse():
    g = DiGraph(3, [(1, 2), (1, 2), (2, 1)])
    assert underlying(g).edges == ((1, 2),)
    assert _pair_ids(g) == [-2]
    # the first edge of a pair reversed, and a pair with one edge between
    g = DiGraph(3, [(2, 1), (1, 2), (0, 2), (2, 1)])
    assert underlying(g).edges == ((0, 2), (1, 2))
    assert _pair_ids(g) == [2, -2]


def test_underlying_ignores_self_loops():
    g = DiGraph(3, [(0, 1), (1, 1), (1, 0)])
    assert underlying(g).edges == ((0, 1),)
    assert _pair_ids(g) == [-2]  # origins 0 and 2, not the loop 1


def test_underlying_invariant_under_edge_permutation(rng):
    edges = [(rng.randrange(6), rng.randrange(6)) for _ in range(12)]
    g = DiGraph(6, edges)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    h = DiGraph(6, shuffled)
    assert underlying(g).edges == underlying(h).edges


def with_twins_and_parallels(g: DiGraph, rng) -> DiGraph:
    """``g`` plus a twin for about a third of its edges, a parallel copy
    for a sixth and a few self-loops, in shuffled edge order."""
    edges = list(g.edges)
    for u, v in g.edges:
        r = rng.random()
        if r < 0.33:
            edges.append((v, u))
        elif r < 0.5:
            edges.append((u, v))
        elif r < 0.53:
            edges.append((u, u))
    rng.shuffle(edges)
    return DiGraph(g.n, edges)


def test_underlying_csr_one_entry_per_pair_and_end(rng):
    for _ in range(300):
        n = rng.randrange(1, 10)
        base = DiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(12))])
        g = with_twins_and_parallels(base, rng)
        start, dst, ids = _underlying_csr(g)
        assert len(start) == n + 1 and start[0] == 0 and start[n] == len(dst) == len(ids)
        origins: dict[frozenset, list[int]] = {}
        for eid, (u, v) in enumerate(g.edges):
            if u != v:  # self-loops are dropped
                origins.setdefault(frozenset((u, v)), []).append(eid)
        entries: dict[frozenset, list[int]] = {}
        for v in range(n):
            row = list(dst[start[v] : start[v + 1]])
            assert v not in row and len(set(row)) == len(row)
            for w, i in zip(row, ids[start[v] : start[v + 1]]):
                entries.setdefault(frozenset((v, w)), []).append(i)
        assert entries.keys() == origins.keys()
        for pair, (a, b) in entries.items():  # once at each end
            o = origins[pair]
            assert a == b != -1
            assert a == (o[0] if len(o) == 1 else -2 - min(o))
            assert (a >= 0) == (len(o) == 1)
        assert len({a for a, _ in entries.values()}) == len(entries)
        # the public graph is these pairs, v < w, in ascending order
        assert underlying(g).edges == tuple(sorted(tuple(sorted(p)) for p in origins))


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


@given(partitions(), partitions())
def test_unchecked_assembly_is_canonical(p, q):
    # refine and _grouped skip the checks and the per-block sorting; their
    # blocks must be exactly what the checked constructor makes of them
    r = p.refine(q)
    assert r.blocks == Partition(r.blocks).blocks
    labels = [p.block_index()[v] * 7 % 5 for v in range(6)]
    g = Partition._grouped(enumerate(labels))
    assert g.blocks == Partition.from_labels(dict(enumerate(labels))).blocks


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


def test_parse_error_messages():
    cases = {
        "": "empty graph text",
        "a b": "bad header 'a b': expected integers",
        "3 1\nD 0 3": "vertex 3 out of range [0, 3)",
        "3 1\nD 5 x": "vertex 5 out of range [0, 3)",  # the first bad end
        "3 1\nD x 5": "unknown vertex label 'x'",
        "3 1\nD 1 x": "unknown vertex label 'x'",
        "3 1\nD 0 1.0": "unknown vertex label '1.0'",
        "3 1\nD -1 0": "vertex -1 out of range [0, 3)",
        "3 2\nV 0 a\nD a 1\nU b 2": "unknown vertex label 'b'",
        "3 1\nV 0\nD 0 1": "bad label line 'V 0': expected 'V idx label'",
        "3 1\nV 9 a\nD 0 1": "label index 9 out of range [0, 3)",
        "3 1\nX 0 1": "bad edge line 'X 0 1': expected 'D u v' or 'U a b'",
        "3 1\nD 0 1 2": "bad edge line 'D 0 1 2': expected 'D u v' or 'U a b'",
        "3 2\nD 0 1": "header declares 2 edges but 1 found",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == message, text


def test_parse_labels_shadow_integers():
    # a label is looked up before the token is read as an integer
    g = parse_graph("3 2\nV 1 5\nV 2 0\nD 5 0\nd 0 +1\n")
    assert g == DiGraph(3, [(1, 2), (2, 1)])
    g = parse_graph("3 2\nU 0 1\nD 2 2\n")
    assert g == MixedGraph(3, [(2, 2)], [(0, 1)])


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
