"""CLI contract: subcommands, formats, exit codes, byte stability."""

from __future__ import annotations

import time

import pytest

from twinscc.cli import main


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


def test_scc_tscc_strong_bridges(capsys, cyc3_file):
    code, out, _ = _run(capsys, "scc", "--in", cyc3_file)
    assert code == 0 and out == "0 1 2\n"
    code, out, _ = _run(capsys, "tscc", "--in", cyc3_file, "--json")
    assert out == "[[0,1,2]]\n"
    code, out, _ = _run(capsys, "strong-bridges", "--in", cyc3_file, "--json")
    assert out == "[0,1,2]\n"
    code, out, _ = _run(capsys, "twinless-strong-bridges", "--in", cyc3_file)
    assert out == "0 0 1\n1 1 2\n2 2 0\n"


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
    code, out, _ = _run(capsys, "aux", "--in", cyc3_file, "--dump")
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


def test_bench_smoke(capsys):
    code, out, _ = _run(capsys, "bench", "--sizes", "2^6..2^7", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("m\t")
    assert len(lines) == 3


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
