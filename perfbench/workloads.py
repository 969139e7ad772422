"""The benchmark's three workloads: inputs made from the seed, the timed
operations, and the checks of their answers.

One operation is one analysis call on one input.  Every operation gets a
graph object built fresh by ``ops`` (the checked constructor, outside the
timed call), so the lazily built adjacency arrays are paid inside the call
as they are for a user with a new graph.  Checks run after the timed
rounds and never inside them.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from twinscc import DiGraph, cli, oracles, pipeline, render_graph, two_escc, two_etscc

import reference as ref

Blocks = list[tuple[int, ...]]


@dataclass
class Op:
    label: str
    edges: int  # input edges, the unit of edges_per_s
    run: Callable[[], object]  # the timed call
    answer: Callable[[object], Blocks]  # untimed: the blocks of its result


class CliExit(Exception):
    """The CLI returned a nonzero exit code."""


def _blocks(p) -> Blocks:
    return [tuple(b) for b in p.blocks]


def _partition_op(label: str, name: str, n: int, edges) -> Op:
    g = DiGraph(n, edges)
    # looked up at call time, so that a traced run calls the wrapper
    return Op(label, len(edges), lambda: getattr(pipeline, name)(g), _blocks)


def check_directed(
    n: int,
    edges: Sequence[tuple[int, int]],
    etscc: Optional[Blocks],
    escc: Optional[Blocks],
    rng: random.Random,
    samples: int,
) -> list[str]:
    """Properties of full-size 2eTSCC / 2eSCC answers (None = not checked):
    each partitions V and refines the reference TSCC / SCC partition,
    2eTSCC refines 2eSCC, and for ``samples`` seeded edges e every block
    lies inside one reference TSCC / SCC of G minus e.  These catch merged
    blocks; split blocks are caught by ``check_small``."""
    errors = []
    sccs, tsccs = ref.tscc_labels(n, edges)
    cases = [(etscc, 1, "2eTSCC"), (escc, 0, "2eSCC")]
    for answer, _, what in cases:
        if answer is not None and (why := ref.partition_error(answer, n)):
            errors.append(f"{what} is no partition: {why}")
    if etscc is not None and not ref.refines(etscc, tsccs):
        errors.append("2eTSCC does not refine the reference TSCCs")
    if escc is not None and not ref.refines(escc, sccs):
        errors.append("2eSCC does not refine the reference SCCs")
    if etscc is not None and escc is not None:
        label = [0] * n
        for i, block in enumerate(escc):
            for v in block:
                label[v] = i
        if not ref.refines(etscc, label):
            errors.append("2eTSCC does not refine 2eSCC")
    for e in rng.sample(range(len(edges)), min(samples, len(edges))):
        cut = ref.tscc_labels(n, ref.without(edges, e))
        for answer, which, what in cases:
            if answer is not None and not ref.refines(answer, cut[which]):
                errors.append(f"a {what} block spans two reference classes of G minus edge {e}")
    return errors


def compare_full(n: int, edges, etscc: Blocks, escc: Blocks) -> list[str]:
    """Full comparison of 2eTSCC and 2eSCC answers with the quadratic
    reference; catches merged and split blocks alike."""
    errors = []
    if etscc != ref.blocks(ref.two_etscc_labels(n, edges)):
        errors.append(f"two_etscc differs from the reference on a small instance (m={len(edges)})")
    if escc != ref.blocks(ref.two_escc_labels(n, edges)):
        errors.append(f"two_escc differs from the reference on a small instance (m={len(edges)})")
    return errors


def check_small(g: DiGraph) -> list[str]:
    edges = list(g.edges)
    etscc = _blocks(two_etscc(DiGraph(g.n, edges)))
    escc = _blocks(two_escc(DiGraph(g.n, edges)))
    return compare_full(g.n, edges, etscc, escc)


# ---------------------------------------------------------------------------
# core: the linear path on two large families without strong bridges
# ---------------------------------------------------------------------------

CORE_M = 1 << 17
CORE_SAMPLES = 2  # edge deletions per graph; one reference pass is ~1 s here


class Core:
    name = "core"

    def setup(self, seed: int, workdir: str):
        rng = random.Random(f"core-{seed}")
        n = CORE_M // 4
        graphs = [
            oracles.gen_strongly_connected_fast(n, CORE_M, rng),
            oracles.gen_twinless_bridge_rich(n, CORE_M, rng),
        ]
        return [(g.n, g.edges) for g in graphs]

    def ops(self, inputs) -> list[Op]:
        out = []
        for family, (n, edges) in zip(("sc", "tbr"), inputs):
            out.append(_partition_op(f"two_etscc {family}", "two_etscc", n, edges))
            out.append(_partition_op(f"two_escc {family}", "two_escc", n, edges))
        return out

    def check(self, seed: int, inputs, answers: list[Optional[Blocks]]) -> list[str]:
        rng = random.Random(f"core-sample-{seed}")
        errors = []
        for i, (n, edges) in enumerate(inputs):
            errors += check_directed(n, edges, answers[2 * i], answers[2 * i + 1], rng, CORE_SAMPLES)
        return errors

    def check_small(self, seed: int) -> list[str]:
        rng = random.Random(f"core-small-{seed}")
        return check_small(oracles.gen_strongly_connected_fast(128, 512, rng)) + check_small(
            oracles.gen_twinless_bridge_rich(128, 512, rng)
        )


# ---------------------------------------------------------------------------
# bridgey: many TSCCs and strong bridges, so marked_veb dominates
# ---------------------------------------------------------------------------

BRIDGEY_M = 1 << 13
BRIDGEY_GRAPHS = 6
BRIDGEY_SAMPLES = 8


class Bridgey:
    name = "bridgey"

    def setup(self, seed: int, workdir: str):
        rng = random.Random(f"bridgey-{seed}")
        graphs = [
            oracles.gen_digraph(BRIDGEY_M // 4, BRIDGEY_M, rng, "bridgey")
            for _ in range(BRIDGEY_GRAPHS)
        ]
        return [(g.n, g.edges) for g in graphs]

    def ops(self, inputs) -> list[Op]:
        return [
            _partition_op(f"two_etscc bridgey#{i}", "two_etscc", n, edges)
            for i, (n, edges) in enumerate(inputs)
        ]

    def check(self, seed: int, inputs, answers: list[Optional[Blocks]]) -> list[str]:
        rng = random.Random(f"bridgey-sample-{seed}")
        errors = []
        for (n, edges), etscc in zip(inputs, answers):
            escc = _blocks(two_escc(DiGraph(n, edges)))
            errors += check_directed(n, edges, etscc, escc, rng, BRIDGEY_SAMPLES)
        return errors

    def check_small(self, seed: int) -> list[str]:
        # m <= 256: two_etscc on bridgey graphs takes ~2 minutes at m = 1024 (README.md)
        rng = random.Random(f"bridgey-small-{seed}")
        return check_small(oracles.gen_digraph(64, 256, rng, "bridgey"))


# ---------------------------------------------------------------------------
# mixed: the orientation problems through the CLI, on graph files
# ---------------------------------------------------------------------------

# (label, CLI arguments, edges, graphs); n = m/4, as `twinscc gen` makes
# them.  The SPQR path's cost varies several-fold between random graphs of
# one size, so it runs on sixteen 40-edge graphs rather than one larger one.
MIXED_OPS = (
    ("resilient-both-40", ["resilient-blocks", "--fail", "both"], 40, 16),
    ("resilient-directed-300", ["resilient-blocks", "--fail", "directed"], 300, 1),
    ("resilient-undirected-300", ["resilient-blocks", "--fail", "undirected"], 300, 1),
    ("orient-32768", ["orient-blocks"], 32768, 1),
)
# The graph of `twinscc gen --model mixed --n 125 --m 500 --seed 1`, the same
# in every run: the CLI fails on it every time (RecursionError raised by the
# recursion of spqr._decompose), and the operation is counted as failed.
MIXED_FAILING = ("resilient-both-500-gen-seed1", ["resilient-blocks", "--fail", "both"], 500)


class Mixed:
    name = "mixed"

    def setup(self, seed: int, workdir: str):
        graphs = []
        for label, argv, m, count in MIXED_OPS:
            rng = random.Random(f"mixed-{label}-{seed}")
            for k in range(count):
                g = oracles.gen_mixed(m // 4, m - m // 2, m // 2, rng)
                graphs.append((f"{label}#{k}" if count > 1 else label, argv, g))
        label, argv, m = MIXED_FAILING
        graphs.append((label, argv, oracles.gen_mixed(m // 4, m - m // 2, m // 2, random.Random(1))))
        inputs = []
        for label, argv, g in graphs:
            path = os.path.join(workdir, f"{label}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_graph(g))
            inputs.append((label, argv, g.n, g.directed, g.undirected, path))
        return inputs

    def ops(self, inputs) -> list[Op]:
        return [self._op(*spec) for spec in inputs]

    @staticmethod
    def _op(label, argv, n, directed, undirected, path) -> Op:
        out = path[: -len(".txt")] + ".out.json"

        def run():
            code = cli.main([*argv, "--in", path, "--json", "--out", out])
            if code != 0:
                raise CliExit(f"exit code {code}")

        def answer(_):
            with open(out, encoding="utf-8") as fh:
                blocks = [tuple(b) for b in json.load(fh)]
            os.remove(out)  # so a later round cannot read a stale answer
            return blocks

        return Op(label, len(directed) + len(undirected), run, answer)

    def check(self, seed: int, inputs, answers: list[Optional[Blocks]]) -> list[str]:
        errors = []
        for (label, argv, n, d, u, _), answer in zip(inputs, answers):
            if answer is None:
                continue
            if why := ref.partition_error(answer, n):
                errors.append(f"{label}: no partition: {why}")
            orientable = ref.orientable_labels(n, d, u)
            if argv[0] == "resilient-blocks":
                expect = ref.edge_resilient_labels(n, d, u, argv[2])
                if not ref.refines(answer, orientable):
                    errors.append(f"{label}: does not refine the strongly orientable blocks")
            else:
                expect = orientable
            if answer != ref.blocks(expect):
                errors.append(f"{label}: differs from the reference")
        return errors

    def check_small(self, seed: int) -> list[str]:
        return []  # every mixed answer is compared in full


WORKLOADS = {w.name: w for w in (Core(), Bridgey(), Mixed())}
