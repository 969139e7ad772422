"""Reference for strongly orientable blocks: the reduction the direct
computation replaced.

A parallel undirected class of two or more copies can be oriented both
ways, so it becomes the two directed edges (x, y), (y, x); then every
directed edge is split and every remaining undirected edge becomes a twin
pair (``split_and_twin``).  The blocks are the TSCCs of that digraph on
the original vertices.  It stays usable at 10^2 to 10^4 edges, where the
brute-force oracle does not.
"""

from __future__ import annotations

from collections import Counter

from twinscc.graph import MixedGraph, Partition
from twinscc.orientation import split_and_twin
from twinscc.strong import tscc


def orientable_by_reduction(g: MixedGraph) -> Partition:
    copies = Counter(tuple(sorted(e)) for e in g.undirected)
    directed = list(g.directed)
    for (a, b), c in copies.items():
        if c >= 2:
            directed += [(a, b), (b, a)]
    undirected = [e for e in g.undirected if copies[tuple(sorted(e))] == 1]
    red = split_and_twin(MixedGraph(g.n, directed, undirected))
    return red.ordinary_restriction(tscc(red.graph))
