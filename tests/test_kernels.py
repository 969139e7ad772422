"""Shared graph kernels: every module stays iterative, union-find lives in
one place, and the one CSR depth-first search handles deep inputs."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import sys

import twinscc
from twinscc.dominators import dominator_tree
from twinscc.graph import DiGraph, Partition, UGraph
from twinscc.undirected import (
    biconnected,
    bridges_2ecc,
    connected_components,
    three_ecc_cactus,
)

N = 100_000


def _module_trees():
    for info in pkgutil.iter_modules(twinscc.__path__):
        module = importlib.import_module(f"twinscc.{info.name}")
        yield info.name, ast.parse(inspect.getsource(module))


def test_no_module_has_a_recursive_function():
    for name, tree in _module_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                called = {
                    c.func.id
                    for c in ast.walk(fn)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                }
                assert fn.name not in called, (name, fn.name)


def test_no_nested_find_outside_oracles():
    # the fast path shares graph._find; the oracles keep their own code
    for name, tree in _module_trees():
        if name == "oracles":
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                nested = [
                    f.name
                    for f in ast.walk(fn)
                    if f is not fn and isinstance(f, ast.FunctionDef)
                ]
                assert "find" not in nested, (name, fn.name)


def test_no_fast_path_module_imports_random():
    # every result is deterministic: randomness is left to the oracles'
    # generators and `twinscc gen`
    exempt = {"oracles", "cli"}
    for name, tree in _module_trees():
        if name in exempt:
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "random" not in imported, name


def test_every_private_switch_is_set_inside_the_library():
    # a defaulted ``_``-prefixed parameter is an internal switch: some call
    # in the library passes it by keyword to a function of that name (a
    # class's name for its ``__init__``), or it is dead or set only by
    # tests, and goes
    def callee(c: ast.Call):
        f = c.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    trees = dict(_module_trees())
    passed = {
        (callee(c), kw.arg)
        for tree in trees.values()
        for c in ast.walk(tree)
        if isinstance(c, ast.Call)
        for kw in c.keywords
    }
    switches = set()
    for tree in trees.values():
        owner = {
            id(f): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for f in cls.body
            if isinstance(f, ast.FunctionDef) and f.name == "__init__"
        }
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                a = fn.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                name = owner.get(id(fn), fn.name)
                switches.update((name, p.arg) for p in defaulted if p.arg.startswith("_"))
    assert switches  # the walk sees the switches there are
    assert switches - passed == set()


def test_every_public_name_resolves():
    # a name left in __all__ after its object is gone breaks
    # ``from twinscc import *``
    names = twinscc.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(twinscc, n)] == []


def _ladder(k: int) -> list[tuple[int, int]]:
    # top vertex 2i, bottom vertex 2i+1: rungs, then the two rails
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    edges += [(2 * i, 2 * i + 2) for i in range(k - 1)]
    edges += [(2 * i + 1, 2 * i + 3) for i in range(k - 1)]
    return edges


def test_shared_dfs_deep_path():
    limit = sys.getrecursionlimit()
    edges = [(i, i + 1) for i in range(N - 1)]
    g = UGraph(N, edges)
    bridges, twoecc = bridges_2ecc(g)
    assert bridges == tuple(range(N - 1))
    assert twoecc == Partition.singletons(range(N))
    bf = biconnected(g)
    assert bf.blocks == tuple((e,) for e in range(N - 1))
    assert bf.articulation == tuple(range(1, N - 1))
    assert connected_components(g) == Partition.trivial(range(N))
    dt = dominator_tree(DiGraph(N, edges), 0)
    assert dt.idom == (-1,) + tuple(range(N - 1))
    assert sys.getrecursionlimit() == limit


def test_shared_dfs_deep_cycle():
    edges = [(i, (i + 1) % N) for i in range(N)]
    g = UGraph(N, edges)
    assert bridges_2ecc(g) == ((), Partition.trivial(range(N)))
    bf = biconnected(g)
    assert bf.blocks == (tuple(range(N)),) and bf.articulation == ()
    assert connected_components(g) == Partition.trivial(range(N))
    cactus = three_ecc_cactus(g)
    assert cactus.classes == Partition.singletons(range(N))
    assert len(cactus.cycles) == 1 and len(cactus.cycles[0]) == N
    dt = dominator_tree(DiGraph(N, edges), 0)
    assert dt.idom == (-1,) + tuple(range(N - 1))


def test_shared_dfs_deep_ladder():
    k = N // 2
    edges = _ladder(k)
    g = UGraph(N, edges)
    assert bridges_2ecc(g) == ((), Partition.trivial(range(N)))
    bf = biconnected(g)
    assert len(bf.blocks) == 1 and bf.articulation == ()
    assert connected_components(g) == Partition.trivial(range(N))
    # the end vertices have degree 2; each inner rung is one 3ecc class,
    # and the rails between consecutive rungs form a 2-edge cut
    cactus = three_ecc_cactus(g)
    want = [[0], [1], [N - 2], [N - 1]]
    want += [[2 * i, 2 * i + 1] for i in range(1, k - 1)]
    assert cactus.classes == Partition(want)
    assert len(cactus.cycles) == k - 1
    # rails directed forward, rungs both ways: the top-left corner
    # dominates every vertex, and nothing else dominates any vertex
    arcs = [(2 * i + 1, 2 * i) for i in range(k)]
    arcs += edges
    dt = dominator_tree(DiGraph(N, arcs), 0)
    assert dt.idom == (-1,) + (0,) * (N - 1)

