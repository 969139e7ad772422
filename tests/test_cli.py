"""CLI contract: subcommands, formats, exit codes, byte stability."""

from __future__ import annotations

import argparse
import pathlib
import re
import time

import pytest

from twinscc import dominators
from twinscc.cli import _parser, main


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cyc3_file(tmp_path):
    p = tmp_path / "cyc3.g"
    p.write_text("3 3\nD 0 1\nD 1 2\nD 2 0\n")
    return str(p)


@pytest.fixture
def tri_undirected_file(tmp_path):
    p = tmp_path / "tri.g"
    p.write_text("3 3\nU 0 1\nU 1 2\nU 2 0\n")
    return str(p)


def test_2etscc_plain_and_json(capsys, cyc3_file):
    code, out, _ = _run(capsys, "2etscc", "--in", cyc3_file)
    assert code == 0 and out == "0\n1\n2\n"
    code, out, _ = _run(capsys, "2etscc", "--in", cyc3_file, "--json")
    assert code == 0 and out == "[[0],[1],[2]]\n"


def test_2etscc_check_oracle_ok(capsys, cyc3_file):
    code, out, _ = _run(capsys, "2etscc", "--in", cyc3_file, "--check-oracle")
    assert code == 0


def test_2etscc_baseline_flag(capsys, cyc3_file):
    code, out, _ = _run(capsys, "2etscc", "--in", cyc3_file, "--baseline")
    assert code == 0 and out == "0\n1\n2\n"


def test_resilient_blocks_triangle(capsys, tri_undirected_file):
    code, out, _ = _run(capsys, "resilient-blocks", "--in", tri_undirected_file)
    assert code == 0 and out == "0\n1\n2\n"
    code, out, _ = _run(capsys, "resilient-blocks", "--in", tri_undirected_file, "--json")
    assert out == "[[0],[1],[2]]\n"


def test_orient_blocks_triangle(capsys, tri_undirected_file):
    code, out, _ = _run(capsys, "orient-blocks", "--in", tri_undirected_file)
    assert code == 0 and out == "0 1 2\n"


def test_resilient_blocks_fail_variants(capsys, tri_undirected_file):
    code, out, _ = _run(
        capsys, "resilient-blocks", "--in", tri_undirected_file, "--fail", "directed"
    )
    assert code == 0 and out == "0 1 2\n"  # no directed edges may fail


def test_usage_error_exit_2(capsys):
    assert main(["definitely-not-a-command"]) == 2
    assert main([]) == 2


def test_parse_error_exit_3(capsys, tmp_path):
    p = tmp_path / "bad.g"
    p.write_text("2 1\nD 0 5\n")
    code, _, err = _run(capsys, "scc", "--in", str(p))
    assert code == 3 and "parse error" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["scc", "--in", "{tmp}/missing.g"], 2),
        (["scc", "--in", "{tmp}"], 2),  # a directory
        (["scc", "--in", "{cyc3}", "--out", "{tmp}/no/such/dir/x"], 2),
        (["scc", "--in", "{undecodable}"], 3),
        (["mveb", "--in", "{cyc3}", "--marked", "x"], 2),
        # gen sizes it cannot honour, rather than an empty graph
        (["gen", "--n", "0", "--m", "5"], 2),
        (["gen", "--n", "-2", "--m", "3"], 2),
        (["gen", "--n", "3", "--m", "-1"], 2),
        (["gen", "--n", "1", "--m", "3"], 2),  # only self-loops would fit
        (["gen", "--n", "1", "--m", "2", "--model", "mixed"], 2),
    ],
)
def test_io_and_option_failures_exit_with_one_line(capsys, tmp_path, cyc3_file, argv, code):
    bad = tmp_path / "bad.g"
    bad.write_bytes(b"\xff\xfe")
    paths = {"tmp": str(tmp_path), "cyc3": cyc3_file, "undecodable": str(bad)}
    got, out, err = _run(capsys, *(a.format(**paths) for a in argv))
    assert got == code and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("usage error: " if code == 2 else "parse error: ")


def test_precondition_error_exit_4(capsys, tmp_path):
    p = tmp_path / "dag.g"
    p.write_text("2 1\nD 0 1\n")
    code, _, err = _run(capsys, "strong-bridges", "--in", str(p))
    assert code == 4


def test_oracle_mismatch_exit_5(capsys, cyc3_file, monkeypatch):
    from twinscc import cli as climod

    monkeypatch.setattr(climod.oracles, "oracle_2etscc", lambda g: None)
    code, _, err = _run(capsys, "2etscc", "--in", cyc3_file, "--check-oracle")
    assert code == 5 and "oracle mismatch" in err


@pytest.mark.parametrize("exc", [RecursionError, AssertionError])
def test_internal_error_exit_6(capsys, tri_undirected_file, monkeypatch, exc):
    from twinscc import cli as climod

    def boom(g):
        raise exc("deep inside")

    monkeypatch.setattr(climod, "spqr", boom)
    code, out, err = _run(capsys, "spqr", "--in", tri_undirected_file)
    assert code == 6 and out == ""
    assert err == f"internal error: {exc.__name__}: deep inside\n"


def test_dominators_output(capsys, cyc3_file):
    code, out, _ = _run(capsys, "dominators", "--in", cyc3_file, "--source", "0")
    assert code == 0
    assert "idom 1 0" in out and "idom 2 1" in out
    assert "bridge 0 0 1" in out and "bridge 1 1 2" in out


def test_dominators_builds_one_tree(capsys, calls, cyc3_file):
    # the idoms printed come from the tree flow_bridges builds; counting
    # DomTree also sees a dominator_tree call the CLI makes by its own name
    calls.watch("dominator_tree", dominators)
    calls.watch("DomTree", dominators)
    code, out, _ = _run(capsys, "dominators", "--in", cyc3_file, "--check-oracle")
    assert code == 0 and out == "idom 1 0\nidom 2 1\nbridge 0 0 1\nbridge 1 1 2\n"
    assert calls == {"dominator_tree": 1, "DomTree": 1}


def test_dominators_builds_the_tree_views_once(capsys, calls, cyc3_file):
    calls.watch("_build_views", dominators.DomTree)
    code, _, _ = _run(capsys, "dominators", "--in", cyc3_file, "--check-oracle")
    assert code == 0 and calls == {"_build_views": 1}


def test_scc_tscc_strong_bridges(capsys, cyc3_file):
    code, out, _ = _run(capsys, "scc", "--in", cyc3_file)
    assert code == 0 and out == "0 1 2\n"
    code, out, _ = _run(capsys, "tscc", "--in", cyc3_file, "--json")
    assert out == "[[0,1,2]]\n"
    code, out, _ = _run(capsys, "strong-bridges", "--in", cyc3_file, "--json")
    assert out == "[0,1,2]\n"
    code, out, _ = _run(capsys, "twinless-strong-bridges", "--in", cyc3_file)
    assert out == "0 0 1\n1 1 2\n2 2 0\n"


# a digraph with twins and parallels, and the outputs the CLI gave for it
# when the simple underlying graph was still built as an underlying() view
_TWINNY = (
    "7 14\nD 4 5\nD 4 1\nD 3 1\nD 4 1\nD 2 3\nD 6 5\nD 5 0\nD 5 6\nD 0 6\n"
    "D 4 5\nD 5 4\nD 5 3\nD 6 2\nD 1 4\n"
)
_TWINNY_OUT = {
    ("cactus",): (
        "node 0: 0\nnode 1: 1\nnode 2: 2\nnode 3: 3 5 6\nnode 4: 4\n"
        "cycle 0: (0,3)#0 (0,3)#1\ncycle 1: (1,3)#2 (4,3)#7 (1,4)#3\n"
        "cycle 2: (2,3)#4 (2,3)#5\n"
    ),
    ("cactus", "--json"): (
        '{"phi":[0,1,2,3,4,3,3],"edges":[[0,3,0,0],[0,3,0,1],[1,3,1,2],[1,4,1,3],'
        '[2,3,2,4],[2,3,2,5],[4,3,1,7]],"cycles":[[0,1],[2,6,3],[4,5]]}\n'
    ),
    ("twinless-strong-bridges",): "2 3 1\n4 2 3\n6 5 0\n8 0 6\n12 6 2\n13 1 4\n",
    ("2etscc",): "0\n1\n2\n3\n4\n5 6\n",
}
_TWINNY_AUX_SHA256 = "ec7655fbdc8bb85382974195eb072091f5a72b7fc40d4e1c9b248b783e456e89"


def test_outputs_on_twins_and_parallels_are_pinned(capsys, tmp_path):
    import hashlib

    p = tmp_path / "twinny.g"
    p.write_text(_TWINNY)
    for (cmd, *flags), want in _TWINNY_OUT.items():
        assert _run(capsys, cmd, "--in", str(p), *flags) == (0, want, ""), cmd
    code, out, _ = _run(capsys, "aux", "--in", str(p))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == _TWINNY_AUX_SHA256


def test_cactus_and_spqr(capsys, tri_undirected_file):
    code, out, _ = _run(capsys, "cactus", "--in", tri_undirected_file, "--check-oracle")
    assert code == 0
    code, out, _ = _run(capsys, "spqr", "--in", tri_undirected_file)
    assert code == 0 and out == "S vertices=3 edges=3\n"


def test_spqr_cli_300_rung_ladder(capsys, tmp_path):
    # 600 vertices, 898 edges: a builder that recursed once per split ran
    # for minutes here and then passed the recursion limit (exit 6)
    k = 300
    edges = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    p = tmp_path / "ladder.g"
    p.write_text(f"{2 * k} {len(edges)}\n" + "".join(f"U {a} {b}\n" for a, b in edges))
    t = time.perf_counter()
    code, out, err = _run(capsys, "spqr", "--in", str(p))
    seconds = time.perf_counter() - t
    assert code == 0 and err == ""
    assert seconds < 10, f"twinscc spqr took {seconds:.1f} s on the 300-rung ladder"
    lines = out.splitlines()
    # the end squares hold three real edges, the inner ones two; each inner
    # rung is a P-node of one real and two virtual edges
    assert lines.count("S vertices=4 edges=4") == k - 1
    assert lines.count("P vertices=2 edges=3") == k - 2
    assert len(lines) == 2 * k - 3


def test_mveb_cli(capsys, tmp_path):
    p = tmp_path / "c4.g"
    p.write_text("4 4\nU 0 1\nU 1 2\nU 2 3\nU 3 0\n")
    code, out, _ = _run(capsys, "mveb", "--in", str(p), "--marked", "0", "--check-oracle")
    assert code == 0 and out == "1\n2\n3\n"


def test_aux_dump(capsys, cyc3_file):
    code, out, _ = _run(capsys, "aux", "--in", cyc3_file)
    assert code == 0
    assert "member" in out and "H_ss" in out
    assert ":oo" in out  # per-vertex roles


def test_2escc_baseline_flag(capsys, cyc3_file):
    code, out, _ = _run(capsys, "2escc", "--in", cyc3_file, "--baseline")
    assert code == 0 and out == "0\n1\n2\n"


def test_gen_roundtrip(capsys):
    code, out, _ = _run(capsys, "gen", "--n", "6", "--m", "10", "--model", "er", "--seed", "7")
    assert code == 0
    from twinscc.graph import parse_graph

    g = parse_graph(out)
    assert g.n == 6 and g.m == 10
    code, out2, _ = _run(capsys, "gen", "--n", "6", "--m", "10", "--model", "er", "--seed", "7")
    assert out == out2  # byte stability
    code, out3, _ = _run(capsys, "gen", "--n", "6", "--m", "10", "--model", "mixed", "--seed", "7")
    assert "U " in out3
    code, out4, _ = _run(capsys, "gen", "--n", "0", "--m", "0")
    assert code == 0 and out4 == "0 0\n"


def test_readme_lists_every_subcommand():
    # the README's command list names exactly the parser's subcommands
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = {
        name
        for names in re.findall(r"^twinscc ([\w-]+(?: / [\w-]+)*)", readme, re.M)
        for name in names.split(" / ")
    }
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == set(sub.choices)


def test_output_file(tmp_path, capsys, cyc3_file):
    target = tmp_path / "out.txt"
    code, _, _ = _run(capsys, "2etscc", "--in", cyc3_file, "--out", str(target))
    assert code == 0 and target.read_text() == "0\n1\n2\n"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 2\nD 0 1\nD 1 0\n"))
    code, out, _ = _run(capsys, "2escc", "--in", "-")
    assert code == 0 and out == "0\n1\n"


def test_json_input(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"n":3,"directed":[[0,1],[1,2],[2,0]],"undirected":[]}')
    code, out, _ = _run(capsys, "tscc", "--in", str(p))
    assert code == 0 and out == "0 1 2\n"


def test_repeated_calls_match_a_fresh_process(capsys, monkeypatch, tri_undirected_file):
    # main builds its parser once per process; each later call must still
    # answer exactly as a new process does: output, usage and exit code
    import os
    import subprocess
    import sys

    from twinscc import cli

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(cli.__file__)))
    runs = [
        ["orient-blocks", "--fail", "both"],
        ["orient-blocks", "--in", tri_undirected_file],
        ["--help"],
        ["orient-blocks", "--in", tri_undirected_file, "--json"],
    ]
    for argv in runs:
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from twinscc.cli import main; sys.exit(main())", *argv],
            capture_output=True, text=True, env=os.environ, timeout=60,
        )
        assert _run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [_run(capsys, *argv)[0] for argv in runs] == [2, 0, 0, 0]
