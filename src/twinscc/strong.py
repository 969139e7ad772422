"""SCCs, twinless SCCs, and twinless strong bridges.

A digraph is twinless strongly connected iff it is strongly connected and
its simple underlying undirected graph is 2-edge-connected; the TSCCs of a
digraph are therefore the 2-edge-connected components of the underlying
graphs of its SCCs, computed per SCC on one CSR read off the induced
subgraph (``graph._underlying_csr``), whose DFS tree the 3ecc sweep reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import DiGraph, Partition, _underlying_csr
from .undirected import _between, _bridges_2ecc, _three_ecc_classes
from .dominators import strong_bridges


@dataclass(frozen=True)
class SccResult:
    """SCC partition with its components in topological order.

    ``comp_of[v]`` is the topological index of v's component: every edge
    (u, v) has comp_of[u] <= comp_of[v].
    """

    partition: Partition
    comp_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def scc(g: DiGraph) -> SccResult:
    """Iterative Tarjan."""
    n = g.n
    ostart, odst, _ = g.out_csr()
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp = [-1] * n
    ptr = list(ostart[:n])
    vstack: list[int] = []
    comps: list[tuple[int, ...]] = []
    timer = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = timer
        timer += 1
        vstack.append(root)
        on_stack[root] = 1
        call = [root]
        while call:
            v = call[-1]
            advanced = False
            end = ostart[v + 1]
            i = ptr[v]
            lv = low[v]
            while i < end:
                w = odst[i]
                i += 1
                if index[w] == -1:
                    ptr[v] = i
                    low[v] = lv
                    index[w] = low[w] = timer
                    timer += 1
                    vstack.append(w)
                    on_stack[w] = 1
                    call.append(w)
                    advanced = True
                    break
                if on_stack[w] and index[w] < lv:
                    lv = index[w]
            if not advanced:
                ptr[v] = i
                low[v] = lv
                call.pop()
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = vstack.pop()
                        on_stack[w] = 0
                        comp[w] = len(comps)
                        members.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(members)))
                if call:
                    p = call[-1]
                    if low[v] < low[p]:
                        low[p] = low[v]
    # Tarjan emits components in reverse topological order
    k = len(comps)
    comp_of = tuple(k - 1 - comp[v] for v in range(n))
    components = tuple(reversed(comps))
    return SccResult(Partition._trusted(sorted(components)), comp_of, components)


def _scc_subgraphs(g: DiGraph, components) -> list:
    """(sub, verts, eids) per component of two or more vertices, in order:
    ``induced`` of each, from one pass over the edges, or ``g`` itself
    with the identity maps ``range(g.n)`` and ``range(g.m)`` when the
    component is all of ``g``."""
    big = [c for c in components if len(c) > 1]
    if len(big) == 1 and len(big[0]) == g.n:
        return [(g, range(g.n), range(g.m))]
    return g.induced_blocks(big)


def _scc_parts(g: DiGraph):
    """Yield (tsccs, sub, verts, eids, under) per SCC of ``g``; the one
    TSCC loop.

    ``sub`` is the SCC's induced subgraph, ``verts`` and ``eids`` map its
    vertices and edges back to ``g`` (see ``_scc_subgraphs``), and
    ``tsccs`` are the SCC's TSCCs in ``sub``'s ids: the 2ecc blocks of its
    underlying CSR.
    ``under`` is (that CSR, its 2ecc sweep's DFS tree) if it is one block,
    else None.  A one-vertex SCC {v} yields (((0,),), None, [v], None, None).
    """
    sr = scc(g)
    subs = iter(_scc_subgraphs(g, sr.components))
    for members in sr.components:
        if len(members) == 1:
            yield ((0,),), None, list(members), None, None
            continue
        sub, verts, eids = next(subs)
        csr = _underlying_csr(sub)
        _, twoecc, dfs = _bridges_2ecc(sub.n, csr)
        under = (csr, dfs) if len(twoecc) == 1 else None
        yield twoecc.blocks, sub, verts, eids, under


def _tscc_graphs(part, min_size: int):
    """Yield (sub, verts, eids, under) per TSCC of at least ``min_size``
    vertices of one ``_scc_parts`` part: its induced subgraph, with the
    maps back to ``g`` as there.  ``under`` is the SCC's when the TSCC is
    its whole SCC, else None; the other TSCCs of an SCC are split off its
    subgraph in one pass over its edges."""
    tsccs, sub, verts, eids, under = part
    if len(tsccs) == 1:
        if len(tsccs[0]) >= min_size:
            yield sub, verts, eids, under
        return
    for tsub, tverts, teids in sub.induced_blocks(
        b for b in tsccs if len(b) >= min_size
    ):
        yield tsub, [verts[i] for i in tverts], [eids[i] for i in teids], None


def tscc(g: DiGraph, _parts: Optional[list] = None) -> Partition:
    """Twinless strongly connected components.

    Per SCC, the blocks are the 2ecc blocks of the underlying undirected
    graph of the induced subgraph.  ``two_etscc`` passes a list as
    ``_parts`` to receive what ``_scc_parts`` yields, so that it reuses
    each SCC's induced subgraph, underlying CSR and DFS tree instead of
    building them again.
    """
    parts = _scc_parts(g)
    if _parts is not None:
        _parts.extend(parts)
        parts = _parts
    # ascending blocks mapped through ascending ``verts`` stay ascending
    return Partition._trusted(sorted(
        tuple(verts[i] for i in b)
        for tsccs, _, verts, _, _ in parts
        for b in tsccs
    ))


def twinless_strong_bridges(g: DiGraph) -> tuple[int, ...]:
    """Edges whose deletion increases the number of TSCCs.

    Computed per TSCC on the induced subgraph: its strong bridges plus the
    edges of multiplicity one in the underlying graph whose endpoints lie in
    different 3-edge-connected classes.
    """
    result: set[int] = set()
    for part in _scc_parts(g):
        for sub, _, eids, under in _tscc_graphs(part, 3):
            for e in strong_bridges(sub):
                result.add(eids[e])
            csr, dfs = under or (_underlying_csr(sub), None)
            cls = _three_ecc_classes(sub.n, *csr, dfs).block_index()
            for _, _, e in _between(*csr, cls):
                if e >= 0:  # one origin
                    result.add(eids[e])
    return tuple(sorted(result))
