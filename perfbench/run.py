"""Benchmark for twinscc: one workload per process.

    python3 perfbench/run.py --workload core|bridgey|mixed --seed N \
        --seconds S --trace 0|1

Set-up (inputs made from the seed, input files, fresh graph objects) runs
SETUP_REPS times and the import of twinscc IMPORT_REPS times; both report
the median.  Then whole rounds of the workload's operations run, one after
another in this process (a closed loop with one client), until S seconds
have passed; every round attempts the same operations.  Calibration chunks
between the operations measure how fast the machine runs graph code during
the run, and times are scaled to the reference speed (see README.md).
After the last round the answers are checked against the stdlib-only
reference in ``reference.py``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``tracer.py`` with ``--trace 1``.  Results and spans are also written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

# stdlib only, no twinscc at import; run.py's own directory is on sys.path
import reference
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 5
IMPORT_REPS = 5
CAL_SHARE = 0.15  # calibration time per second of operations, roughly
# seconds one calibration chunk takes on the reference machine (2 vCPUs,
# Python 3.11, fast state); it only sets the scale of the calibrated times
CAL_REF_S = 0.0500


def calibration_graph() -> tuple[int, list[tuple[int, int]]]:
    """A fixed random digraph, n = 2^12, m = 2^14 (two random cycles plus
    random edges), independent of the seed."""
    rng = random.Random(0)
    n, m = 1 << 12, 1 << 14
    edges = []
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        edges += zip(perm, perm[1:] + perm[:1])
    edges += ((rng.randrange(n), rng.randrange(n)) for _ in range(m - len(edges)))
    return n, edges


def calibration_chunk(graph) -> float:
    """Seconds of one reference TSCC pass over the calibration graph: graph
    work of the same kind as the program's (lists, dicts, iterative DFS),
    sharing no code with it.  Its mean over a run tracks how fast the
    machine runs such code during that run."""
    t0 = time.perf_counter()
    reference.tscc_labels(*graph)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("core", "bridgey", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twinscc", "__init__.py")):
        print(f"twinscc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import_s = _import_seconds()
    import workloads  # binds to the twinscc imported last

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workload, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _import_seconds() -> float:
    """Median time of IMPORT_REPS fresh imports of twinscc (with its CLI).
    Each repetition drops the twinscc modules first; nothing else holds
    them yet, so every later user binds to the last import."""
    times = []
    for _ in range(IMPORT_REPS):
        for name in [m for m in sys.modules if m == "twinscc" or m.startswith("twinscc.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("twinscc.cli")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run(args, workload, workdir: str, import_s: float) -> int:
    cal_graph = calibration_graph()
    setup_times = []
    setup_cal = []
    inputs = ops = None
    for _ in range(SETUP_REPS):
        inputs = ops = None
        gc.collect()
        setup_cal.append(calibration_chunk(cal_graph))
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, workdir)
        ops = workload.ops(inputs)
        setup_times.append(time.perf_counter() - t0)
    sizes = [op.edges for op in ops]
    labels = [op.label for op in ops]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    first: list = [None] * len(ops)  # answers of the first round
    failures: dict[str, int] = {}
    attempted = failed = 0
    op_time = 0.0
    round_ok: list[list[bool]] = []  # per round, per op: completed
    op_seconds: list[list[float]] = []  # per round, per op
    mismatches = []
    cal = [calibration_chunk(cal_graph)]
    began = time.perf_counter()
    rounds = 0
    while True:
        if rounds:
            ops = workload.ops(inputs)
        completed = []
        op_seconds.append([])
        for i, op in enumerate(ops):
            gc.collect()
            if tracer:
                tracer.op = rounds * len(ops) + i
                tracer.active = True
            t0 = time.perf_counter()
            try:
                raw = op.run()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                raw, error = None, f"{op.label}: {type(exc).__name__}: {str(exc)[:200]}"
            op_seconds[-1].append(time.perf_counter() - t0)
            op_time += op_seconds[-1][-1]
            if tracer:
                tracer.active = False
            for _ in range(max(1, round(CAL_SHARE * op_seconds[-1][-1] / CAL_REF_S))):
                cal.append(calibration_chunk(cal_graph))
            attempted += 1
            if error:
                failed += 1
                failures[error] = failures.get(error, 0) + 1
                completed.append(False)
                continue
            answer = op.answer(raw)
            if rounds == 0:
                first[i] = answer
            elif answer != first[i]:
                mismatches.append(f"{op.label}: round {rounds} differs from round 0")
            completed.append(True)
        round_ok.append(completed)
        ops = None
        rounds += 1
        if time.perf_counter() - began >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    errors = mismatches + workload.check(args.seed, inputs, first) + workload.check_small(args.seed)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for error, count in failures.items():
        print(f"operation failed x{count}: {error}", file=sys.stderr)
    correct = not errors
    # a failed check leaves no operation passed: answers are checked jointly
    passed_edges = sum(
        m for completed in round_ok for m, ok in zip(sizes, completed) if ok and correct
    )
    # times are scaled to the reference machine speed (see README)
    slowdown = statistics.mean(cal) / CAL_REF_S
    edges_per_s = passed_edges / (op_time / slowdown)
    setup_s = (import_s + statistics.median(setup_times)) * CAL_REF_S / statistics.mean(setup_cal)

    if tracer:
        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer.metric_units()}
        metrics["trace.self_sum_s"] = {"value": sum(s[-1] for s in tracer.spans), "unit": "s"}
        metrics["trace.op_s"] = {"value": op_time, "unit": "s"}
        metrics["trace.slowdown"] = {"value": slowdown, "unit": "ratio"}
        metrics["trace.edges_per_s"] = {"value": edges_per_s, "unit": "edges/s"}
    else:
        metrics = {
            "edges_per_s": {"value": edges_per_s, "unit": "edges/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        detail = {
            "labels": labels,
            "op_seconds": op_seconds,
            "raw_edges_per_s": passed_edges / op_time,
            "calibration": cal,
            "import_s": import_s,
            "setup_times": setup_times,
            "setup_calibration": setup_cal,
        }
        json.dump({**result, **detail}, fh)
    if tracer:
        tracer.write(os.path.join(OUT, f"trace-{tag}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
