"""Quadratic reference for edge-resilient blocks with a restricted failure
set.

The definition on the gadget reduction: refine the TSCC partition of the
reduced graph by the TSCCs of the reduced graph minus f for each
designated edge f (split halves for directed failures, critical gadget
edges for undirected ones), then restrict to the ordinary vertices.  One
``tscc`` pass per designated edge, so it stays usable at 10^2 to 10^3
edges, where the brute-force oracle does not.
"""

from __future__ import annotations

from twinscc.graph import MixedGraph, Partition
from twinscc.orientation import split_and_gadget
from twinscc.strong import tscc


def edge_resilient_per_edge(g: MixedGraph, fail: str) -> Partition:
    red = split_and_gadget(g)
    part = tscc(red.graph)
    eids = red.split_edges if fail == "directed" else red.critical_edges
    for e in eids:
        part = part.refine(tscc(red.graph.without_edges([e])))
    return red.ordinary_restriction(part)
