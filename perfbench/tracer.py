"""Per-layer spans, timed from outside the program.

``Tracer.install`` replaces each traced twinscc function by a wrapper in
every loaded ``twinscc`` module namespace that holds it, so calls from
inside the pipeline are timed as well as calls made by the benchmark.  The
checked ``DiGraph`` constructor is traced by wrapping ``DiGraph.__init__``
(the class itself must stay in place for ``isinstance`` and ``_trusted``).

Spans are recorded only while ``active`` is true, so that graph objects the
benchmark builds between operations are not counted.  A span's self time is
its duration minus the durations of the traced calls nested directly in it,
so the self times of one operation add up to the duration of its outermost
traced call.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable

# (module, function) pairs; "graph.DiGraph" is the checked constructor
TRACED = (
    ("graph", "underlying"),
    ("graph", "parse_graph"),
    ("graph", "DiGraph"),
    ("strong", "scc"),
    ("strong", "tscc"),
    ("dominators", "dominator_tree"),
    ("dominators", "flow_bridges"),
    ("dominators", "strong_bridges"),
    ("undirected", "bridges_2ecc"),
    ("undirected", "biconnected"),
    ("undirected", "three_ecc_cactus"),
    ("auxiliary", "build_final_family"),
    ("auxiliary", "classify_xe"),
    ("spqr", "marked_veb"),
    ("spqr", "spqr"),
    ("cutfilter", "cut_pair_vertex_candidates"),
    ("pipeline", "two_etscc"),
    ("pipeline", "two_escc"),
    ("pipeline", "partition_et_minus_es"),
    ("pipeline", "partition_strong_bridges"),
    ("orientation", "split_and_gadget"),
    ("orientation", "split_and_twin"),
    ("orientation", "edge_resilient_blocks"),
    ("orientation", "strongly_orientable_blocks"),
    ("cli", "main"),
)


# work counts: metric name -> (traced function, reader of (args, result))
WORK_COUNTS: dict[str, tuple[str, Callable]] = {
    "graph.DiGraph.edges_checked": ("graph.DiGraph", lambda a, r: len(a[0].edges)),
    "strong.tscc.blocks": ("strong.tscc", lambda a, r: len(r)),
    "dominators.strong_bridges.found": ("dominators.strong_bridges", lambda a, r: len(r)),
    "auxiliary.build_final_family.members": ("auxiliary.build_final_family", lambda a, r: len(r)),
    "spqr.marked_veb.edges": ("spqr.marked_veb", lambda a, r: a[0].m),
    "spqr.marked_veb.marked": ("spqr.marked_veb", lambda a, r: len(set(a[1]))),
    "cutfilter.cut_pair_vertex_candidates.found": (
        "cutfilter.cut_pair_vertex_candidates",
        lambda a, r: len(r),
    ),
    "undirected.bridges_2ecc.edges": ("undirected.bridges_2ecc", lambda a, r: a[0].m),
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1  # index of the running operation, shared by its spans
        # (span id, parent span id or -1, name, op, start, end, self seconds)
        self.spans: list[tuple[int, int, str, int, float, float, float]] = []
        self._stack: list[list] = []  # [span id, seconds of direct children]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {name: 0 for name in WORK_COUNTS}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        readers = [(metric, read) for metric, (where, read) in WORK_COUNTS.items() if where == name]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(
                    (span, parent, name, tracer.op, start, end, end - start - frame[1])
                )
            for metric, read in readers:
                tracer.counts[metric] += read(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, _ in TRACED:  # cutfilter is otherwise imported on first use
            importlib.import_module(f"twinscc.{mod}")
        mods = {k: v for k, v in sys.modules.items() if k == "twinscc" or k.startswith("twinscc.")}
        for mod, fn in TRACED:
            home = mods[f"twinscc.{mod}"]
            if fn == "DiGraph":
                cls = getattr(home, fn)
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(f"{mod}.{fn}", cls.__init__)
                continue
            orig = getattr(home, fn)
            wrapper = self._wrap(f"{mod}.{fn}", orig)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    @staticmethod
    def metric_units() -> list[tuple[str, str]]:
        """(name, unit) of every metric ``metrics`` reports."""
        names = []
        for mod, fn in TRACED:
            names.append((f"{mod}.{fn}.calls", "count"))
            names.append((f"{mod}.{fn}.self_s", "s"))
        names.extend((name, "count") for name in WORK_COUNTS)
        return names

    def metrics(self) -> dict[str, float]:
        calls = {f"{m}.{f}": 0 for m, f in TRACED}
        self_s = dict.fromkeys(calls, 0.0)
        for _, _, name, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        fields = ("id", "parent", "name", "op", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
