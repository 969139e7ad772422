"""Core graph data model, canonical text/JSON I/O, and partitions.

Vertices are dense 0-based integers.  Directed and undirected graphs are
multigraphs: parallel edges and twin pairs (x,y)/(y,x) are distinct edges
with stable 0-based ids in input order.  Self-loops are accepted on input
and ignored by every connectivity operation.

All types are immutable after construction and safe to share across
threads.  Adjacency structures are built lazily and cached.
"""

from __future__ import annotations

import json
from array import array
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union


class GraphError(ValueError):
    """Base error for graph construction and analysis failures."""


class ParseError(GraphError):
    """Malformed graph text or JSON."""


class PreconditionError(GraphError):
    """An operation was called on a graph outside its contract."""


def _check_endpoint(v: int, n: int, what: str) -> int:
    v = int(v)
    if not 0 <= v < n:
        raise GraphError(f"{what} {v} out of range [0, {n})")
    return v


def _csr(n: int, triples: Sequence[tuple[int, int, int]]):
    """Compact adjacency from (tail, head, edge id) triples: flat
    (start, dst, eid) arrays with start of length n+1."""
    m = len(triples)
    start = array("l", bytes(8 * (n + 2)))
    for u, _, _ in triples:
        start[u + 2] += 1
    for i in range(2, n + 2):
        start[i] += start[i - 1]
    dst = array("l", bytes(8 * m))
    eid = array("l", bytes(8 * m))
    for u, v, j in triples:
        slot = start[u + 1]
        dst[slot] = v
        eid[slot] = j
        start[u + 1] = slot + 1
    return start[: n + 1], dst, eid


class DiGraph:
    """Directed multigraph with stable integer edge identities.

    ``edges[i]`` is the (tail, head) pair of edge id ``i``.
    """

    __slots__ = ("n", "edges", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = int(n)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (_check_endpoint(u, n, "tail"), _check_endpoint(v, n, "head"))
            for u, v in edges
        )
        self._out = None
        self._in = None

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "DiGraph":
        # internal fast path: endpoints already known to be in range
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g._out = None
        g._in = None
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_csr(self):
        """(start, dst, eid) arrays of outgoing edges."""
        if self._out is None:
            self._out = _csr(
                self.n, [(u, v, j) for j, (u, v) in enumerate(self.edges)]
            )
        return self._out

    def in_csr(self):
        """(start, src, eid) arrays of incoming edges."""
        if self._in is None:
            self._in = _csr(
                self.n, [(v, u, j) for j, (u, v) in enumerate(self.edges)]
            )
        return self._in

    def reverse(self) -> "DiGraph":
        """Reverse digraph; edge ids are preserved."""
        rev = DiGraph._trusted(self.n, tuple((v, u) for (u, v) in self.edges))
        rev._out = self._in  # adjacency swaps roles; arrays are immutable
        rev._in = self._out
        return rev

    def induced(self, vertices: Iterable[int]) -> tuple["DiGraph", list[int], list[int]]:
        """Induced subgraph on ``vertices``, relabelled to 0..k-1.

        Returns (subgraph, orig_vertex_of_local, orig_edge_of_local).
        """
        verts = sorted(set(vertices))
        local = {v: i for i, v in enumerate(verts)}
        sub_edges = []
        orig_eids = []
        for eid, (u, v) in enumerate(self.edges):
            if u in local and v in local:
                sub_edges.append((local[u], local[v]))
                orig_eids.append(eid)
        return DiGraph._trusted(len(verts), tuple(sub_edges)), verts, orig_eids

    def without_edges(self, eids: Iterable[int]) -> "DiGraph":
        """Copy of the graph with the given edge ids removed (ids shift)."""
        drop = set(eids)
        return DiGraph._trusted(
            self.n, tuple(e for i, e in enumerate(self.edges) if i not in drop)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"


class MixedGraph:
    """Graph with both directed and undirected edges over shared vertices.

    The stored endpoint order of an undirected edge is preserved: downstream
    constructions that are not symmetric in the two endpoints use exactly
    this order.
    """

    __slots__ = ("n", "directed", "undirected")

    def __init__(
        self,
        n: int,
        directed: Iterable[tuple[int, int]] = (),
        undirected: Iterable[tuple[int, int]] = (),
    ):
        n = int(n)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self.directed: tuple[tuple[int, int], ...] = tuple(
            (_check_endpoint(u, n, "tail"), _check_endpoint(v, n, "head"))
            for u, v in directed
        )
        self.undirected: tuple[tuple[int, int], ...] = tuple(
            (_check_endpoint(a, n, "endpoint"), _check_endpoint(b, n, "endpoint"))
            for a, b in undirected
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MixedGraph)
            and self.n == other.n
            and self.directed == other.directed
            and self.undirected == other.undirected
        )

    def __hash__(self) -> int:
        return hash((self.n, self.directed, self.undirected))

    def __repr__(self) -> str:
        return f"MixedGraph(n={self.n}, d={len(self.directed)}, u={len(self.undirected)})"


class UGraph:
    """Undirected multigraph; edge ids are 0-based in input order."""

    __slots__ = ("n", "edges", "_adj", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = int(n)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (_check_endpoint(a, n, "endpoint"), _check_endpoint(b, n, "endpoint"))
            for a, b in edges
        )
        self._adj: Optional[list[list[tuple[int, int]]]] = None
        self._csr = None

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "UGraph":
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g._adj = None
        g._csr = None
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def adj(self) -> list[list[tuple[int, int]]]:
        """Per vertex, list of (neighbour, edge id); self-loops are skipped."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for eid, (a, b) in enumerate(self.edges):
                if a == b:
                    continue
                adj[a].append((b, eid))
                adj[b].append((a, eid))
            self._adj = adj
        return self._adj

    def csr(self):
        """(start, dst, eid) arrays; every non-loop edge appears twice."""
        if self._csr is None:
            triples = []
            for eid, (a, b) in enumerate(self.edges):
                if a == b:
                    continue
                triples.append((a, b, eid))
                triples.append((b, a, eid))
            self._csr = _csr(self.n, triples)
        return self._csr

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UGraph(n={self.n}, m={self.m})"


class UGraphView(UGraph):
    """Simple underlying undirected graph of a DiGraph.

    One undirected edge per unordered pair {u, v} that carries at least one
    directed edge; ``origins[i]`` lists the originating directed edge ids of
    undirected edge ``i`` (twins and parallels collapse into one edge).
    """

    __slots__ = ("origins",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], origins: Iterable[Sequence[int]]):
        super().__init__(n, edges)
        self.origins: tuple[tuple[int, ...], ...] = tuple(tuple(o) for o in origins)
        if len(self.origins) != len(self.edges):
            raise GraphError("one origin multiset per undirected edge required")


def underlying(g: DiGraph) -> UGraphView:
    """Simple undirected graph of ``g``; self-loops are dropped."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        buckets.setdefault(key, []).append(eid)
    keys = sorted(buckets)
    return UGraphView(g.n, keys, [buckets[k] for k in keys])


class Partition:
    """Family of disjoint nonempty vertex blocks covering a ground set.

    Canonical form: blocks ordered by minimum member, members ascending.
    Instances compare structurally, so algorithm outputs can be checked
    with plain equality.
    """

    __slots__ = ("blocks", "_index")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        seen: set[int] = set()
        norm: list[tuple[int, ...]] = []
        for b in blocks:
            t = tuple(sorted(set(int(x) for x in b)))
            if not t:
                raise GraphError("partition blocks must be nonempty")
            if len(t) != len(set(t)) or seen & set(t):
                raise GraphError("partition blocks must be disjoint")
            seen.update(t)
            norm.append(t)
        norm.sort(key=lambda t: t[0])
        self.blocks: tuple[tuple[int, ...], ...] = tuple(norm)
        self._index: Optional[dict[int, int]] = None

    @classmethod
    def singletons(cls, ground: Iterable[int]) -> "Partition":
        return cls([[v] for v in ground])

    @classmethod
    def trivial(cls, ground: Iterable[int]) -> "Partition":
        ground = list(ground)
        return cls([ground]) if ground else cls([])

    @classmethod
    def from_labels(cls, labels: Mapping[int, object]) -> "Partition":
        groups: dict[object, list[int]] = {}
        for v, lab in labels.items():
            groups.setdefault(lab, []).append(v)
        return cls(groups.values())

    def ground_set(self) -> frozenset[int]:
        return frozenset(v for b in self.blocks for v in b)

    def block_index(self) -> dict[int, int]:
        if self._index is None:
            self._index = {v: i for i, b in enumerate(self.blocks) for v in b}
        return self._index

    def refine(self, other: "Partition") -> "Partition":
        """Mutual refinement; blocks are the nonempty pairwise intersections.

        Linear in the ground-set size (bucket grouping by label pairs).
        """
        mine = self.block_index()
        theirs = other.block_index()
        if set(mine) != set(theirs):
            raise GraphError("refine requires identical ground sets")
        groups: dict[tuple[int, int], list[int]] = {}
        for v in mine:
            groups.setdefault((mine[v], theirs[v]), []).append(v)
        return Partition(groups.values())

    def restricted(self, keep: Iterable[int]) -> "Partition":
        """Partition induced on a subset of the ground set."""
        keep = set(keep)
        return Partition([b2 for b in self.blocks if (b2 := [v for v in b if v in keep])])

    def to_json(self) -> str:
        return json.dumps([list(b) for b in self.blocks], separators=(",", ":"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({list(self.blocks)!r})"


def refines(finer: Partition, coarser: Partition) -> bool:
    """True iff every block of ``finer`` is contained in a ``coarser`` block."""
    idx = coarser.block_index()
    for b in finer.blocks:
        if any(v not in idx for v in b):
            return False
        if len({idx[v] for v in b}) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Text and JSON formats.
#
# Text: first line "n m"; then m lines "D u v" (directed) or "U a b"
# (undirected); "#" begins a comment line.  A graph containing any U line
# parses as a MixedGraph.  As a documented extension, lines "V idx label"
# may declare vertex labels after the header; subsequent D/U lines may then
# refer to endpoints by label.  Labels are file-level sugar only: parsed
# graphs always use dense integer ids and rendering never emits labels.
# ---------------------------------------------------------------------------

Graph = Union[DiGraph, MixedGraph]


def parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}: expected integers") from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be nonnegative")

    labels: dict[str, int] = {}

    def endpoint(tok: str) -> int:
        if tok in labels:
            return labels[tok]
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"unknown vertex label {tok!r}") from None
        if not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range [0, {n})")
        return v

    directed: list[tuple[int, int]] = []
    undirected: list[tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0].upper()
        if kind == "V":
            if len(parts) != 3:
                raise ParseError(f"bad label line {ln!r}: expected 'V idx label'")
            try:
                idx = int(parts[1])
            except ValueError:
                raise ParseError(f"bad label line {ln!r}") from None
            if not 0 <= idx < n:
                raise ParseError(f"label index {idx} out of range [0, {n})")
            labels[parts[2]] = idx
            continue
        if kind not in ("D", "U") or len(parts) != 3:
            raise ParseError(f"bad edge line {ln!r}: expected 'D u v' or 'U a b'")
        a, b = endpoint(parts[1]), endpoint(parts[2])
        if kind == "D":
            directed.append((a, b))
        else:
            undirected.append((a, b))
    if len(directed) + len(undirected) != m:
        raise ParseError(
            f"header declares {m} edges but {len(directed) + len(undirected)} found"
        )
    if undirected:
        return MixedGraph(n, directed, undirected)
    return DiGraph(n, directed)


def render_graph(g: Graph) -> str:
    if isinstance(g, DiGraph):
        directed: Sequence[tuple[int, int]] = g.edges
        undirected: Sequence[tuple[int, int]] = ()
    else:
        directed = g.directed
        undirected = g.undirected
    out = [f"{g.n} {len(directed) + len(undirected)}"]
    out.extend(f"D {u} {v}" for u, v in directed)
    out.extend(f"U {a} {b}" for a, b in undirected)
    return "\n".join(out) + "\n"


def graph_to_json(g: Graph) -> str:
    if isinstance(g, DiGraph):
        obj = {"n": g.n, "directed": [list(e) for e in g.edges], "undirected": []}
    else:
        obj = {
            "n": g.n,
            "directed": [list(e) for e in g.directed],
            "undirected": [list(e) for e in g.undirected],
        }
    return json.dumps(obj, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad graph JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj:
        raise ParseError("graph JSON must be an object with an 'n' field")
    try:
        n = int(obj["n"])
        directed = [(int(u), int(v)) for u, v in obj.get("directed", [])]
        undirected = [(int(a), int(b)) for a, b in obj.get("undirected", [])]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from None
    try:
        if undirected:
            return MixedGraph(n, directed, undirected)
        return DiGraph(n, directed)
    except GraphError as exc:
        raise ParseError(str(exc)) from None
