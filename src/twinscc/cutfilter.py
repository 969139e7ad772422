"""Vertices of vertex-edge cut pairs in biconnected graphs.

``cut_pair_vertex_candidates(g)`` returns exactly the vertices v for which
g minus v has a bridge (equivalently: v belongs to some vertex-edge cut
pair).  It reads them off the S-nodes of ``spqr(g)`` by the rule that
``marked_veb`` uses: (v, e) is a cut pair iff v and the real edge e lie on
one S-node cycle, with v not an end of e.  It is on no computation path;
the module is kept because the benchmark tracer still counts its calls.
"""

from __future__ import annotations

from collections import Counter

from .graph import UGraph
from .spqr import spqr


def cut_pair_vertex_candidates(g: UGraph) -> set[int]:
    """{v : g minus v has a bridge} for a biconnected g, in O(m).

    A cycle vertex qualifies when fewer than all k real edges of its
    S-node cycle end at it.
    """
    if g.n < 3:
        return set()
    out: set[int] = set()
    for node in spqr(g).nodes:
        if node.kind != "S":
            continue
        real = [(a, b) for a, b, (tag, _) in node.edges if tag == "real"]
        ends = Counter(v for e in real for v in e)
        out.update(v for v in node.vertices() if ends[v] < len(real))
    return out
