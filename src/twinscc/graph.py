"""Core graph data model, canonical text/JSON I/O, and partitions.

Vertices are dense 0-based integers.  Directed and undirected graphs are
multigraphs: parallel edges and twin pairs (x,y)/(y,x) are distinct edges
with stable 0-based ids in input order.  Self-loops are accepted on input
and ignored by every connectivity operation.

All types are immutable after construction and safe to share across
threads.  Adjacency structures are built lazily and cached, as flat CSR
arrays (``_csr``).  The graph kernels every layer shares sit next to them:
one iterative depth-first search over CSR arrays (``_dfs``), which every
graph search runs on except Tarjan's ``scc`` and the SPQR builder's path
finder and path search (its first DFS is the one ``biconnected`` runs),
and one batch union-find (``_roots``).  CSR arrays are built from flat
integer arrays or other CSRs (``_underlying_csr``), never from tuples.

Public constructors check their input: every endpoint must be in range.
An edge that already is a tuple of two ``int``s is stored as it is, so
graphs built from one edge list share its tuples; any other edge is
unpacked and its endpoints converted with ``int``.  Internal graphs whose
endpoints are known to be in range use ``_trusted``.  A reverse graph
shares the adjacency arrays of the graph it reverses and builds its own
edge tuple only when ``edges`` is first read.
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


def _checked_edges(
    edges: Iterable[tuple[int, int]], n: int, what_u: str, what_v: str
) -> tuple[tuple[int, int], ...]:
    """The edges as a tuple of (int, int) pairs with both ends in [0, n).

    An edge that already is such a tuple is kept as it is, not copied;
    any other is unpacked and its ends converted with ``int``.
    """
    out = []
    append = out.append
    for e in edges:
        if type(e) is tuple and len(e) == 2:
            u, v = e
            if type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n:
                append(e)
                continue
        u, v = e
        append((_check_endpoint(u, n, what_u), _check_endpoint(v, n, what_v)))
    return tuple(out)


def _csr(n: int, tails: Sequence[int], heads: Sequence[int], eids: Sequence[int]):
    """Compact adjacency from parallel sequences of tails, heads and edge
    ids: flat (start, dst, eid) arrays with start of length n+1."""
    m = len(tails)
    start = array("l", bytes(8 * (n + 2)))
    for u in tails:
        start[u + 2] += 1
    for i in range(2, n + 2):
        start[i] += start[i - 1]
    dst = array("l", bytes(8 * m))
    eid = array("l", bytes(8 * m))
    for u, v, j in zip(tails, heads, eids):
        slot = start[u + 1]
        dst[slot] = v
        eid[slot] = j
        start[u + 1] = slot + 1
    return start[: n + 1], dst, eid


def _dfs(n: int, start, dst, eid, roots: Iterable[int]):
    """Iterative depth-first search over CSR arrays, one tree per root in
    ``roots`` not reached from an earlier one; neighbours are tried in
    CSR order.  Returns (pre, order, parent, parent_eid): preorder
    numbers (-1: unreached), the vertices in preorder, and each vertex's
    tree parent and tree-edge id (-1 for roots and unreached vertices).
    """
    pre = [-1] * n
    parent = [-1] * n
    parent_eid = [-1] * n
    order: list[int] = []
    ptr = list(start[:n])
    for root in roots:
        if pre[root] != -1:
            continue
        pre[root] = len(order)
        order.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            i = ptr[v]
            end = start[v + 1]
            while i < end:
                w = dst[i]
                i += 1
                if pre[w] == -1:
                    ptr[v] = i
                    pre[w] = len(order)
                    order.append(w)
                    parent[w] = v
                    parent_eid[w] = eid[i - 1]
                    stack.append(w)
                    break
            else:
                stack.pop()
    return pre, order, parent, parent_eid


def _underlying_csr(g: "DiGraph"):
    """CSR of the simple underlying graph of ``g`` from its out- and in-CSR:
    a pair joined by a non-loop edge is one entry in each end's row with one
    id, its edge id if it has one origin, else -2 - its smallest edge id
    (never -1, ``_dfs``'s "no edge")."""
    n = g.n
    both = g.out_csr(), g.in_csr()
    start = array("l", bytes(8 * (n + 1)))
    dst, ids = array("l"), array("l")
    slot = [-1] * n  # w's entry in the current row, if at least its start
    k = 0
    for v in range(n):
        row = k
        for first, ends, eids in both:
            for j in range(first[v], first[v + 1]):
                w = ends[j]
                i = slot[w]
                if i >= row:  # a second origin: keep -2 - the smallest id
                    c, x = ids[i], -2 - eids[j]
                    c = c if c < 0 else -2 - c
                    ids[i] = c if c > x else x
                elif w != v:
                    slot[w] = k
                    k += 1
                    dst.append(w)
                    ids.append(eids[j])
        start[v + 1] = k
    return start, dst, ids


def _roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The root of each of 0..n-1 after joining the sets of x and y for
    each pair (x, y) in turn, in a union-find forest with path halving;
    the root of x's set stays the root of the joined set."""
    parent = list(range(n))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[y] = x
    for v in range(n):
        r = parent[v]
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[v] = r
    return parent


class DiGraph:
    """Directed multigraph with stable integer edge identities.

    ``edges[i]`` is the (tail, head) pair of edge id ``i``.
    """

    __slots__ = ("n", "edges", "_out", "_in", "_reverse_of", "_tails_heads")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = int(n)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self.edges = _checked_edges(edges, n, "tail", "head")
        self._out = self._in = self._reverse_of = self._tails_heads = None

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "DiGraph":
        # internal fast path: endpoints already known to be in range
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g._out = g._in = g._reverse_of = g._tails_heads = None
        return g

    def __getattr__(self, name: str):
        # reached only for an unset slot: a reverse graph's edges, built
        # when first read
        if name != "edges" or self._reverse_of is None:
            raise AttributeError(name)
        self.edges = tuple((v, u) for u, v in self._reverse_of.edges)
        return self.edges

    @property
    def m(self) -> int:
        return len((self._reverse_of or self).edges)

    def _ends(self) -> tuple[array, array]:
        # tails and heads, built for the first CSR and kept until the second
        ends = self._tails_heads or (
            array("l", [u for u, _ in self.edges]),
            array("l", [v for _, v in self.edges]),
        )
        self._tails_heads = ends if self._out is None and self._in is None else None
        return ends

    def out_csr(self):
        """(start, dst, eid) arrays of outgoing edges."""
        if self._out is None:
            tails, heads = self._ends()
            self._out = _csr(self.n, tails, heads, range(self.m))
        return self._out

    def in_csr(self):
        """(start, src, eid) arrays of incoming edges."""
        if self._in is None:
            tails, heads = self._ends()
            self._in = _csr(self.n, heads, tails, range(self.m))
        return self._in

    def reverse(self) -> "DiGraph":
        """Reverse digraph; edge ids are preserved.  It shares this graph's
        adjacency arrays with roles swapped (they are immutable), and builds
        its own edge tuple only when ``edges`` is first read."""
        rev = DiGraph.__new__(DiGraph)
        rev.n = self.n
        rev._out = self.in_csr()
        rev._in = self.out_csr()
        rev._reverse_of = self
        return rev

    def induced(self, vertices: Iterable[int]) -> tuple["DiGraph", list[int], list[int]]:
        """Induced subgraph on ``vertices``, relabelled to 0..k-1.

        Returns (subgraph, orig_vertex_of_local, orig_edge_of_local).
        """
        return self.induced_blocks([vertices])[0]

    def induced_blocks(
        self, blocks: Iterable[Iterable[int]]
    ) -> list[tuple["DiGraph", list[int], list[int]]]:
        """``induced`` of each of the disjoint vertex sets ``blocks``, in
        order, from one pass over the edges for all of them."""
        n = self.n
        block_of = [-1] * n
        local = [0] * n
        verts_of = []
        for i, block in enumerate(blocks):
            verts = sorted(set(block))
            for j, v in enumerate(verts):
                v = _check_endpoint(v, n, "vertex")
                if block_of[v] != -1:
                    raise GraphError(f"vertex {v} is in two blocks")
                block_of[v] = i
                local[v] = j
            verts_of.append(verts)
        sub_edges: list[list[tuple[int, int]]] = [[] for _ in verts_of]
        orig_eids: list[list[int]] = [[] for _ in verts_of]
        for eid, (u, v) in enumerate(self.edges):
            b = block_of[u]
            if b != -1 and b == block_of[v]:
                sub_edges[b].append((local[u], local[v]))
                orig_eids[b].append(eid)
        return [
            (DiGraph._trusted(len(verts), tuple(es)), verts, eids)
            for verts, es, eids in zip(verts_of, sub_edges, orig_eids)
        ]

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
        self.directed = _checked_edges(directed, n, "tail", "head")
        self.undirected = _checked_edges(undirected, n, "endpoint", "endpoint")

    @classmethod
    def _trusted(cls, n: int, directed: tuple, undirected: tuple) -> "MixedGraph":
        g = cls.__new__(cls)  # internal: endpoints known to be in range
        g.n, g.directed, g.undirected = n, directed, undirected
        return g

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

    __slots__ = ("n", "edges", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = int(n)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self.edges = _checked_edges(edges, n, "endpoint", "endpoint")
        self._csr = None

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "UGraph":
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g._csr = None
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def csr(self):
        """(start, dst, eid) arrays; every non-loop edge appears twice."""
        if self._csr is None:
            ends = array("l")  # a, b of each non-loop edge in turn
            eids = array("l")
            for eid, e in enumerate(self.edges):
                if e[0] != e[1]:
                    ends.extend(e)
                    eids.extend((eid, eid))
            others = array("l", ends)
            others[0::2] = ends[1::2]
            others[1::2] = ends[0::2]
            self._csr = _csr(self.n, ends, others, eids)
        return self._csr

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UGraph(n={self.n}, m={self.m})"


def underlying(g: DiGraph) -> UGraph:
    """Simple undirected graph of ``g``: one edge (v, w), v < w, per pair
    joined by a non-loop edge, in ascending order.  These are the entries
    of ``_underlying_csr(g)`` with v < w."""
    start, dst, _ = _underlying_csr(g)
    pairs = [(v, w) for v in range(g.n) for w in dst[start[v] : start[v + 1]] if v < w]
    return UGraph._trusted(g.n, tuple(sorted(pairs)))


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
            if not seen.isdisjoint(t):
                raise GraphError("partition blocks must be disjoint")
            seen.update(t)
            norm.append(t)
        norm.sort(key=lambda t: t[0])
        self.blocks: tuple[tuple[int, ...], ...] = tuple(norm)
        self._index: Optional[dict[int, int]] = None

    @classmethod
    def _trusted(cls, blocks: Iterable[tuple[int, ...]]) -> "Partition":
        # internal fast path: nonempty ascending tuples, pairwise disjoint,
        # already ordered by minimum member
        p = cls.__new__(cls)
        p.blocks = tuple(blocks)
        p._index = None
        return p

    @classmethod
    def _grouped(cls, labelled: Iterable[tuple[int, object]]) -> "Partition":
        """Blocks of equal label from (vertex, label) pairs in ascending
        vertex order: each block ascends and the blocks come out ordered
        by minimum, so no check or sort is needed."""
        groups: dict[object, list[int]] = {}
        for v, lab in labelled:
            groups.setdefault(lab, []).append(v)
        return cls._trusted(map(tuple, groups.values()))

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
        for v in mine:  # block by block, each ascending: so is every group
            groups.setdefault((mine[v], theirs[v]), []).append(v)
        return Partition._trusted(sorted(map(tuple, groups.values())))

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
    directed: list[tuple[int, int]] = []
    undirected: list[tuple[int, int]] = []
    edges_of = {"D": directed, "U": undirected}
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
        out = edges_of.get(kind)
        if out is None or len(parts) != 3:
            raise ParseError(f"bad edge line {ln!r}: expected 'D u v' or 'U a b'")
        _, a, b = parts
        if labels:
            a, b = labels.get(a, a), labels.get(b, b)
        try:
            a, b = int(a), int(b)
        except ValueError:
            a = -1
        if not (0 <= a < n and 0 <= b < n):  # the first bad end's error
            for tok in parts[1:]:
                try:
                    v = labels[tok] if tok in labels else int(tok)
                except ValueError:
                    raise ParseError(f"unknown vertex label {tok!r}") from None
                if not 0 <= v < n:
                    raise ParseError(f"vertex {v} out of range [0, {n})")
        out.append((a, b))
    if len(directed) + len(undirected) != m:
        raise ParseError(
            f"header declares {m} edges but {len(directed) + len(undirected)} found"
        )
    # every endpoint is an int in range: no second check
    if undirected:
        return MixedGraph._trusted(n, tuple(directed), tuple(undirected))
    return DiGraph._trusted(n, tuple(directed))


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
