"""Quadratic reference for edge-resilient blocks in every failure mode.

The definition on the gadget reduction: refine the TSCC partition of the
reduced graph by the TSCCs of the reduced graph minus f for each
designated edge f (split halves for directed failures, critical gadget
edges for undirected ones, and both kinds together for "both"), then
restrict to the ordinary vertices.  Deleting either half of a split edge
leaves its fresh vertex alone in an SCC and the rest as deleting the other
half does, so the first half of each stands for both.  Deleting a
non-critical gadget edge only fixes the orientation of its undirected
edge, which deleting the critical edge already covers.  One ``tscc`` pass
per designated edge, so it stays usable at 10^2 to 10^3 edges, where the
brute-force oracle does not.
"""

from __future__ import annotations

from twinscc.graph import MixedGraph, Partition
from twinscc.orientation import split_and_gadget
from twinscc.strong import tscc


def edge_resilient_per_edge(g: MixedGraph, fail: str) -> Partition:
    red = split_and_gadget(g)
    part = tscc(red.graph)
    eids = {
        "directed": red.split_edges[::2],
        "undirected": red.critical_edges,
        "both": red.split_edges[::2] + red.critical_edges,
    }[fail]
    for e in eids:
        part = part.refine(tscc(red.graph.without_edges([e])))
    return red.ordinary_restriction(part)
