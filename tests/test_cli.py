import csv
import tracemalloc
from pathlib import Path

import pytest

from cubeperc.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNCONVERGED,
    EXIT_USAGE,
    MAX_N,
    parse_and_dispatch,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_oracle_subcommand(tmp_path, capsys):
    out = tmp_path / "oracle"
    code = parse_and_dispatch(["oracle", "--n", "2", "--p", "0.5",
                               "--replicates", "200", "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "2.5625" in printed
    rows = _read_csv(out / "oracle.csv")
    assert rows[0][:4] == ["n", "p", "chi_exact", "e_cmax_exact"]
    assert rows[1][2] == "2.5625"
    assert (out / "manifest.txt").exists()


def test_invalid_flag_exits_2(capsys):
    assert parse_and_dispatch(["oracle", "--n", "two", "--p", "0.5"]) == EXIT_USAGE
    assert parse_and_dispatch(["oracle", "--p", "0.5"]) == EXIT_USAGE  # missing --n
    assert parse_and_dispatch(["oracle", "--n", "7", "--p", "0.5"]) == EXIT_USAGE  # n > 3
    assert parse_and_dispatch(["no-such-command"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [["pc-solve"], ["sweep", "--eps", "0"], ["sprinkle"],
                                  ["duality"], ["triangle"], ["triangle", "--pc", "0.04"]])
def test_oversized_n_is_refused_before_allocating(tmp_path, capsys, argv):
    # one sample at n = MAX_N + 1 alone takes (MAX_N + 1) 2^MAX_N bytes of planes
    out = tmp_path / "big"
    tracemalloc.start()
    try:
        code = parse_and_dispatch(argv + ["--n", str(MAX_N + 1), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert f"--n {MAX_N + 1} exceeds {MAX_N}" in capsys.readouterr().err
    assert peak < 2**20, peak
    assert not out.exists()
    # a config file is held to the same cap
    config = tmp_path / "big.cfg"
    config.write_text(f"n = {MAX_N + 1}\n")
    assert parse_and_dispatch(argv + ["--config", str(config), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_largest_n_passes_the_cap(tmp_path, capsys):
    # n = MAX_N gets past the cap and fails on the density, still before sampling
    code = parse_and_dispatch(["triangle", "--n", str(MAX_N), "--p", "2.0",
                               "--out", str(tmp_path / "tri")])
    assert code == EXIT_USAGE
    assert "density 2.0 outside [0, 1]" in capsys.readouterr().err


def test_unconverged_solver_exits_3(tmp_path):
    out = tmp_path / "pc"
    code = parse_and_dispatch(["pc-solve", "--n", "6", "--max-bisections", "1",
                               "--replicates-start", "8", "--replicates-cap", "8",
                               "--out", str(out)])
    assert code == EXIT_UNCONVERGED
    # partial trace still emitted
    assert len(_read_csv(out / "pc_trace.csv")) == 2


def test_pc_solve_writes_result_and_trace(tmp_path):
    out = tmp_path / "pc"
    code = parse_and_dispatch(["pc-solve", "--n", "6", "--lambda", "0.8",
                               "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    result = _read_csv(out / "pc_result.csv")
    assert result[0][:3] == ["n", "lambda", "p_hat"]
    assert result[1][0] == "6"
    assert result[1][-1] == "true"
    trace = _read_csv(out / "pc_trace.csv")
    assert trace[0] == ["iteration", "lo", "hi", "midpoint", "chi_mean", "chi_se", "replicates"]
    assert len(trace) > 2


def test_sweep_row_count_and_byte_identical_rerun(tmp_path):
    out = tmp_path / "sweep"
    args = ["sweep", "--n", "6", "--eps", "-0.3,0,0.3", "--replicates", "20",
            "--pc", "0.2", "--seed", "5", "--out", str(out)]
    assert parse_and_dispatch(args) == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 4  # header + one row per grid value
    first = (out / "sweep.csv").read_bytes()
    first_summary = (out / "regime_summary.csv").read_bytes()
    assert parse_and_dispatch(args) == EXIT_OK
    assert (out / "sweep.csv").read_bytes() == first
    assert (out / "regime_summary.csv").read_bytes() == first_summary


def test_sweep_writes_triangle_when_asked(tmp_path):
    base = ["sweep", "--n", "6", "--eps", "-0.3,0,0.3,9", "--replicates", "8",
            "--pc", "0.2", "--seed", "5"]
    plain, tri = tmp_path / "plain", tmp_path / "tri"
    assert parse_and_dispatch(base + ["--out", str(plain)]) == EXIT_OK
    assert not (plain / "triangle.csv").exists()
    assert parse_and_dispatch(base + ["--observables", "chi,cmax,c2,theta,z,triangle",
                                      "--out", str(tri)]) == EXIT_OK
    for name in ("sweep.csv", "regime_summary.csv"):
        assert (tri / name).read_bytes() == (plain / name).read_bytes()
    rows = _read_csv(tri / "triangle.csv")
    assert rows[0] == ["p", "nabla_diag", "nabla_offdiag", "a0", "k1", "k2", "chi_used"]
    # eps = 9 puts p above 1, so only three grid points are evaluated
    assert [float(r[0]) for r in rows[1:]] == [0.2 + eps / 6 for eps in (-0.3, 0.0, 0.3)]
    assert all(float(r[1]) >= 1.0 for r in rows[1:])
    assert "outputs = sweep.csv,regime_summary.csv,triangle.csv" in \
        (tri / "manifest.txt").read_text()


def test_config_file_and_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n = 6\neps = -0.3,0,0.3\nreplicates = 10\npc = 0.2\nseed = 5\n")
    out = tmp_path / "a"
    code = parse_and_dispatch(["sweep", "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 4

    # a flag overrides the config file
    out2 = tmp_path / "b"
    code = parse_and_dispatch(["sweep", "--config", str(config), "--eps", "0.1",
                               "--out", str(out2)])
    assert code == EXIT_OK
    assert len(_read_csv(out2 / "sweep.csv")) == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 3\n")
    assert parse_and_dispatch(["sweep", "--config", str(bad)]) == EXIT_USAGE
    # --threads is gone, from the command line and from config files
    bad.write_text("threads = 2\n")
    assert parse_and_dispatch(["sweep", "--config", str(bad)]) == EXIT_USAGE
    assert parse_and_dispatch(["sweep", "--config", str(config), "--threads", "2",
                               "--out", str(tmp_path / "c")]) == EXIT_USAGE


def test_sprinkle_and_duality_commands(tmp_path):
    out = tmp_path / "spr"
    code = parse_and_dispatch(["sprinkle", "--n", "8", "--eps", "0.5", "--seeds", "5",
                               "--pc", "0.12", "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "sprinkle.csv")
    assert len(rows) == 6
    assert rows[0][0] == "replicate"

    out2 = tmp_path / "dual"
    code = parse_and_dispatch(["duality", "--n", "8", "--eps", "0.5", "--replicates", "6",
                               "--pc", "0.12", "--out", str(out2)])
    assert code == EXIT_OK
    assert len(_read_csv(out2 / "duality.csv")) == 7

    # p_hat + eps/n = 0.12 + 8/8 exceeds 1
    code = parse_and_dispatch(["sprinkle", "--n", "8", "--eps", "8", "--seeds", "1",
                               "--pc", "0.12", "--out", str(tmp_path / "over")])
    assert code == EXIT_USAGE


def test_triangle_command(tmp_path):
    out = tmp_path / "tri"
    code = parse_and_dispatch(["triangle", "--n", "6", "--p", "0.15",
                               "--replicates", "10", "--out", str(out)])
    assert code == EXIT_OK
    profile = _read_csv(out / "two_point.csv")
    assert len(profile) == 8  # header + k = 0..6
    assert profile[1] == ["0", "1.0"]
    report = _read_csv(out / "triangle.csv")
    assert report[0][0] == "p"
    assert float(report[1][1]) >= 1.0  # nabla_diag counts the w = x = y term


def test_lemma_check_small(tmp_path):
    out = tmp_path / "lemma"
    code = parse_and_dispatch(["lemma-check", "--n-max", "5",
                               "--harper-instances", "50", "--overlap-instances", "20",
                               "--paths-instances", "10", "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "lemma_check.csv")
    assert [r[0] for r in rows[1:]] == ["harper-ball-growth", "big-overlap",
                                        "disjoint-short-paths", "tail-symmetry-and-bound"]
    assert all(r[2] == "0" for r in rows[1:])  # zero violations


def test_manifest_records_config(tmp_path):
    out = tmp_path / "oracle"
    parse_and_dispatch(["oracle", "--n", "1", "--p", "0.25", "--replicates", "50",
                        "--out", str(out)])
    manifest = (out / "manifest.txt").read_text()
    assert "subcommand = oracle" in manifest
    assert "p = 0.25" in manifest
    assert "version = " in manifest
    assert "numpy_version = " in manifest
    assert "wall_clock_seconds = " in manifest
