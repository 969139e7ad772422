"""The small named graphs used throughout the suite."""

from __future__ import annotations

import random

from twinscc.graph import DiGraph, UGraph


def cyc3() -> DiGraph:
    """Directed triangle 0->1->2->0."""
    return DiGraph(3, [(0, 1), (1, 2), (2, 0)])


def bik2() -> DiGraph:
    """Single twin pair 0<->1."""
    return DiGraph(2, [(0, 1), (1, 0)])


def bik3() -> DiGraph:
    """Bidirected triangle."""
    return DiGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])


def diamond_with_return() -> DiGraph:
    """s=0 -> a=1, s -> b=2, a -> t=3, b -> t, t -> s."""
    return DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])


def two_triangles() -> DiGraph:
    """Bidirected triangles on {0,1,2} and {2,3,4} sharing vertex 2."""
    edges = []
    for a, b in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]:
        edges.append((a, b))
        edges.append((b, a))
    return DiGraph(5, edges)


def c4_ugraph() -> UGraph:
    return UGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def k4_ugraph() -> UGraph:
    return UGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def shared_triangles_ugraph() -> UGraph:
    """Two triangles sharing vertex 2."""
    return UGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def subdivided_wheel(rng: random.Random, k: int, length: int) -> UGraph:
    """The wheel with k rim vertices (3-connected: one R-node) with each
    edge replaced by a path of 1 to ``length`` edges (an S-node under it).
    A tenth of the path edges gain a parallel copy (a P-node), and a tenth
    become an edge of a K4 (an R-node under the S-node)."""
    core = [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]
    n, edges = k + 1, []
    for a, b in core:
        path = [a, *range(n, n + rng.randrange(length)), b]
        n += len(path) - 2
        for x, y in zip(path, path[1:]):
            edges.append((x, y))
            r = rng.random()
            if r < 0.1:
                edges.append((x, y))
            elif r < 0.2:
                edges += [(x, n), (x, n + 1), (n, n + 1), (n, y), (n + 1, y)]
                n += 2
    return UGraph(n, edges)


__all__ = [
    "cyc3",
    "bik2",
    "bik3",
    "diamond_with_return",
    "two_triangles",
    "c4_ugraph",
    "k4_ugraph",
    "shared_triangles_ugraph",
    "subdivided_wheel",
]
