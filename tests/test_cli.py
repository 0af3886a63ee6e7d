import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeperc
from cubeperc import cli, lemmas, reports
from cubeperc.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_N,
    OPTIONS,
    _parse_config_file,
    parse_and_dispatch,
)
from cubeperc.critical import MIN_TOL_P, PcResult, pc_expansion_reference, solve_pc
from cubeperc.cube import CubeDim, PathList
from cubeperc.stats import Estimate


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


def test_oracle_gap_against_one_replicate_reads_infinite_sigmas(tmp_path, capsys):
    # n = 1: chi is 1 or 2 in every replicate against an exact 1.5, and one
    # replicate has se 0
    out = tmp_path / "oracle"
    assert parse_and_dispatch(["oracle", "--n", "1", "--p", "0.5", "--replicates", "1",
                               "--out", str(out)]) == EXIT_OK
    assert "gap       = 0.500000 (inf standard errors)" in capsys.readouterr().out
    rows = _read_csv(out / "oracle.csv")
    assert rows[1][rows[0].index("chi_mc_se")] == "0.0"
    assert rows[1][rows[0].index("gap_sigmas")] == "inf"


@pytest.mark.parametrize("argv, eps", [
    (["triangle", "--eps", "-1e-05"], -1e-05),
    (["triangle", "--eps", "-.5"], -0.5),
    (["sweep", "--eps", "-1E-3,0"], (-1e-3, 0.0)),
    (["sweep", "--eps", "-0.45,0,0.45"], (-0.45, 0.0, 0.45)),
], ids=["exponent", "leading-dot", "grid-exponent", "grid"])
def test_negative_eps_in_any_float_spelling_is_an_option_value(argv, eps):
    assert cli._build_parser().parse_args(argv).eps == eps


def test_invalid_flag_exits_2(capsys):
    assert parse_and_dispatch(["oracle", "--n", "two", "--p", "0.5"]) == EXIT_USAGE
    assert parse_and_dispatch(["oracle", "--p", "0.5"]) == EXIT_USAGE  # missing --n
    assert parse_and_dispatch(["oracle", "--n", "7", "--p", "0.5"]) == EXIT_USAGE  # n > 3
    assert parse_and_dispatch(["no-such-command"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [["pc-solve"], ["sweep", "--eps", "0"], ["sprinkle"],
                                  ["sweep", "--eps", "-0.45,0.45", "--pc", "0.04"],
                                  ["triangle"], ["triangle", "--pc", "0.04"]])
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
    assert f"--n: expected an integer in [1, {MAX_N}], got '{MAX_N + 1}'" in \
        capsys.readouterr().err
    assert peak < 2**20, peak
    assert not out.exists()
    # a config file is held to the same cap
    config = tmp_path / "big.cfg"
    config.write_text(f"n = {MAX_N + 1}\n")
    assert parse_and_dispatch(argv + ["--config", str(config), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_oversized_n_max_is_refused_before_any_suite(tmp_path, capsys):
    # the randomized lemma suites draw sets of 2^n_max vertices at n_max
    out = tmp_path / "lemmas"
    tracemalloc.start()
    try:
        code = parse_and_dispatch(["lemma-check", "--n-max", str(MAX_N + 1), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--n-max: expected an integer in [2, {MAX_N}], got '{MAX_N + 1}'" in err
    assert "violations" not in err  # no suite reported progress
    assert peak < 2**20, peak
    assert not out.exists()
    config = tmp_path / "lemmas.cfg"
    config.write_text(f"n-max = {MAX_N + 1}\n")
    assert parse_and_dispatch(["lemma-check", "--config", str(config), "--out", str(out)]) \
        == EXIT_USAGE
    assert not out.exists()


def test_largest_n_passes_the_cap(tmp_path, capsys):
    # n = MAX_N gets past the cap and fails on the density, still before sampling
    code = parse_and_dispatch(["triangle", "--n", str(MAX_N), "--pc", "2.0",
                               "--out", str(tmp_path / "tri")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--pc: expected a density in [0, 1], got '2.0'" in err
    assert "--n:" not in err


@pytest.mark.parametrize("argv, code, message", [
    (["triangle", "--n", "6", "--pc", "2"], EXIT_USAGE,
     "--pc: expected a density in [0, 1], got '2'"),
    (["oracle", "--n", "2", "--p", "2"], EXIT_USAGE, "--p: expected a density in [0, 1]"),
    (["sprinkle", "--n", "8", "--eps", "8", "--seeds", "1", "--pc", "0.12"], EXIT_USAGE,
     "p_hat = 0.12 puts p_hat + eps/n outside [0, 1] for every eps"),
    (["pc-solve", "--n", "6", "--lambda", "-1"], EXIT_USAGE,
     "--lambda: expected a number > 0, got '-1'"),
    (["pc-solve", "--n", "4", "--lambda", "nan", "--replicates-cap", "64"], EXIT_USAGE,
     "--lambda: expected a number > 0, got 'nan'"),
    (["pc-solve", "--n", "4", "--tol-p", "nan"], EXIT_USAGE,
     "--tol-p: expected a number >= 2^-52, got 'nan'"),
    (["pc-solve", "--n", "0"], EXIT_USAGE, f"--n: expected an integer in [1, {MAX_N}], got '0'"),
    (["pc-solve", "--n", "6", "--replicates-start", "1"], EXIT_USAGE,
     "--replicates-start: expected an integer >= 2, got '1'"),
    (["pc-solve", "--n", "6", "--replicates-start", "8", "--replicates-cap", "4"], EXIT_USAGE,
     "--replicates-cap must be >= --replicates-start"),
    (["pc-solve", "--n", "3", "--lambda", "0.1"], EXIT_USAGE,
     "--lambda 0.1 puts the target lambda 2^(n/3) outside [1, 2^3]"),
    (["lemma-check", "--seed", "-50"], EXIT_USAGE, "--seed: expected an integer >= 0, got '-50'"),
], ids=["triangle", "oracle", "sprinkle", "pc-solve", "pc-solve-nan-lambda",
        "pc-solve-nan-tol", "pc-solve-n0", "pc-solve-start", "pc-solve-cap", "pc-solve-target",
        "lemma-check-seed"])
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, argv, code, message):
    out = tmp_path / "out"
    assert parse_and_dispatch(argv + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_pc_solve_writes_result_and_trace(tmp_path, capsys):
    out = tmp_path / "pc"
    code = parse_and_dispatch(["pc-solve", "--n", "6", "--lambda", "0.8",
                               "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    # the summary line compares p_hat with the expansion
    assert capsys.readouterr().out.rstrip().endswith(f"expansion={pc_expansion_reference(6):.6f}")
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


def test_sweep_with_a_tiny_eps_has_an_infinite_below_scale(tmp_path):
    # eps^2 underflows to 0 although eps itself is not 0
    out = tmp_path / "tiny"
    assert parse_and_dispatch(["sweep", "--n", "6", "--eps", "1e-200", "--pc", "0.2",
                               "--replicates", "2", "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    assert rows[1][rows[0].index("ref_below")] == "inf"


def test_unexpected_driver_error_exits_4(tmp_path, capsys, monkeypatch):
    # a ValueError mid-run is a fault in the program, not a usage error
    for error in (RuntimeError, ValueError):
        def broken(*args, error=error, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "run_sweep", broken)
        out = tmp_path / "sweep"
        code = parse_and_dispatch(["sweep", "--n", "6", "--eps", "0", "--pc", "0.2",
                                   "--out", str(out)])
        assert code == EXIT_INTERNAL
        assert f"internal error: {error.__name__}: boom" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_writes_triangle_when_asked(tmp_path):
    base = ["sweep", "--n", "6", "--eps", "-0.3,0,0.3,9", "--replicates", "8",
            "--pc", "0.2", "--seed", "5"]
    plain, tri = tmp_path / "plain", tmp_path / "tri"
    assert parse_and_dispatch(base + ["--out", str(plain)]) == EXIT_OK
    assert not (plain / "triangle.csv").exists()
    assert parse_and_dispatch(base + ["--triangle", "true", "--out", str(tri)]) == EXIT_OK
    assert (tri / "sweep.csv").read_bytes() == (plain / "sweep.csv").read_bytes()
    # the summary gains the triangle of the eps = 0 row after the plain run's rows
    summary = _read_csv(tri / "regime_summary.csv")
    assert summary[:-2] == _read_csv(plain / "regime_summary.csv")
    assert [row[1] for row in summary[-2:]] == ["triangle nabla_offdiag", "triangle a0"]
    rows = _read_csv(tri / "triangle.csv")
    assert rows[0] == ["p", "nabla_diag", "nabla_offdiag", "a0", "k1", "k2", "chi_used"]
    # eps = 9 puts p above 1, so only three grid points are evaluated
    assert [float(r[0]) for r in rows[1:]] == [0.2 + eps / 6 for eps in (-0.3, 0.0, 0.3)]
    assert all(float(r[1]) >= 1.0 for r in rows[1:])
    assert "outputs = sweep.csv,regime_summary.csv,triangle.csv" in \
        (tri / "manifest.txt").read_text()
    # the same switch from a config file
    config = tmp_path / "tri.cfg"
    config.write_text("triangle = true\n")
    cfg_tri = tmp_path / "cfg_tri"
    assert parse_and_dispatch(base + ["--config", str(config), "--out", str(cfg_tri)]) == EXIT_OK
    assert (cfg_tri / "triangle.csv").read_bytes() == (tri / "triangle.csv").read_bytes()


def test_triangle_sweep_summary_carries_the_triangle(tmp_path, capsys):
    out = tmp_path / "tri"
    assert parse_and_dispatch(["sweep", "--n", "8", "--eps", "-0.3,0,0.3", "--pc", "0.14",
                               "--replicates", "4", "--triangle", "true",
                               "--out", str(out)]) == EXIT_OK
    conjecture = [row for row in _read_csv(out / "regime_summary.csv")
                  if row[0] == "conjecture"]
    assert [row[1] for row in conjecture] == [
        "duality c2(+0.3)/cmax(-0.3)", "triangle nabla_offdiag", "triangle a0"]
    triangle = _read_csv(out / "triangle.csv")
    [at_p_hat] = [row for row in triangle[1:] if float(row[0]) == 0.14]
    assert [row[2] for row in conjecture[1:]] == [
        at_p_hat[triangle[0].index("nabla_offdiag")], at_p_hat[triangle[0].index("a0")]]
    printed = capsys.readouterr().out
    assert "triangle nabla_offdiag" in printed and "triangle a0" in printed


def test_phase_portrait_config_reports_five_duality_ratios(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "phase_portrait.cfg"
    out = tmp_path / "portrait"
    assert parse_and_dispatch(["sweep", "--config", str(config), "--n", "8", "--pc", "0.14",
                               "--replicates", "4", "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out / "regime_summary.csv")
    assert [row[1] for row in rows if row[1].startswith("duality")] == [
        f"duality c2(+{eps!r})/cmax(-{eps!r})" for eps in (0.15, 0.3, 0.45, 0.6, 1.0)]
    assert all(row[3] == "2" for row in rows if row[1].startswith("duality"))


_SWITCH_REFUSALS = {
    "--observables": "unrecognized arguments: --observables",
    "--triangle": "--triangle: expected true or false, got 'maybe'",
    "--k1": "unrecognized arguments: --k1",
    "--config": "unknown config key 'k1'",
}


@pytest.mark.parametrize("flag", [["--observables", "chi"], ["--triangle", "maybe"],
                                  ["--k1", "2"], ["--config", "k1 = 2"]])
def test_sweep_refuses_unknown_observable_switches(tmp_path, capsys, flag):
    message = _SWITCH_REFUSALS[flag[0]]
    if flag[0] == "--config":
        config = tmp_path / "run.cfg"
        config.write_text(flag[1] + "\n")
        flag = ["--config", str(config)]
    out = tmp_path / "sweep"
    code = parse_and_dispatch(["sweep", "--n", "6", "--eps", "0", "--pc", "0.2", *flag,
                               "--out", str(out)])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("line, message", [
    ("n 6", "expected `key = value`"),
    ("n = six", "bad value for 'n'"),
])
def test_malformed_config_line_names_its_line(tmp_path, capsys, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"# a comment\n{line}\n")
    code = parse_and_dispatch(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert f"{config}:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unreadable_config_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such.cfg"
    for path in (missing, tmp_path):  # a missing file, then a directory
        code = parse_and_dispatch(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and str(path) in err
    assert not (tmp_path / "o").exists()


def test_shipped_configs_parse():
    # each config names its subcommand in a `cubeperc <subcommand> --config` comment
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        used = re.search(r"cubeperc (\S+) --config", path.read_text())
        assert used and used.group(1) in OPTIONS, path
        assert _parse_config_file(str(path), OPTIONS[used.group(1)]), path


def test_sprinkle_and_duality_commands(tmp_path, capsys):
    out = tmp_path / "spr"
    code = parse_and_dispatch(["sprinkle", "--n", "8", "--eps", "0.5", "--seeds", "5",
                               "--pc", "0.12", "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "sprinkle.csv")
    assert len(rows) == 6
    assert rows[0][0] == "replicate"

    # duality is a mirrored sweep's summary row now, no subcommand of its own
    out2 = tmp_path / "dual"
    code = parse_and_dispatch(["duality", "--n", "8", "--eps", "0.5", "--replicates", "6",
                               "--pc", "0.12", "--out", str(out2)])
    assert code == EXIT_USAGE
    assert "invalid choice: 'duality'" in capsys.readouterr().err
    assert not out2.exists()

    # p_hat + eps/n = 0.12 + 8/8 exceeds 1
    code = parse_and_dispatch(["sprinkle", "--n", "8", "--eps", "8", "--seeds", "1",
                               "--pc", "0.12", "--out", str(tmp_path / "over")])
    assert code == EXIT_USAGE


def test_sprinkle_reports_progress_every_25_seeds(tmp_path, capsys):
    out = tmp_path / "spr"
    assert parse_and_dispatch(["sprinkle", "--n", "6", "--eps", "0.5", "--seeds", "25",
                               "--pc", "0.2", "--out", str(out)]) == EXIT_OK
    assert "sprinkle replicate 25/25" in capsys.readouterr().err
    assert len(_read_csv(out / "sprinkle.csv")) == 26


@pytest.mark.parametrize("command", [["sweep", "--eps", "0"], ["sprinkle"],
                                     ["sweep", "--eps", "-0.3,0.3"], ["triangle"]])
@pytest.mark.parametrize("pc", ["nan", "2", "-0.1", "inf"])
def test_pc_must_be_a_density(tmp_path, capsys, command, pc):
    out = tmp_path / "out"
    code = parse_and_dispatch(command + ["--n", "6", "--pc", pc, "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()
    assert "--pc" in capsys.readouterr().err


def test_sweep_refuses_an_empty_grid(tmp_path, capsys):
    # refused before the output directory is made or a threshold is solved
    out = tmp_path / "empty"
    code = parse_and_dispatch(["sweep", "--n", "6", "--eps", ",", "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()
    assert "--eps: expected a comma-separated epsilon grid of one or more finite numbers, " \
        "got ','" in capsys.readouterr().err


def test_sweep_refuses_a_grid_with_no_density_in_range(tmp_path, capsys):
    # every row would be skipped, so the run would measure nothing
    out = tmp_path / "outside"
    # each eps lies in [-6, 6], so only the solved threshold rules the grid out
    code = parse_and_dispatch(["sweep", "--n", "6", "--eps", "5,6", "--pc", "0.2",
                               "--replicates", "2", "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()
    assert "p_hat = 0.2 puts p_hat + eps/n outside [0, 1] for every eps" in capsys.readouterr().err
    # one point in range is enough, and the others are written skipped
    code = parse_and_dispatch(["sweep", "--n", "6", "--eps", "100,0", "--pc", "0.2",
                               "--replicates", "2", "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    assert [row[rows[0].index("skipped")] for row in rows[1:]] == ["true", "false"]


@pytest.mark.parametrize("argv", [
    ["triangle", "--n", "12", "--replicates", "0"],
    ["sweep", "--n", "12", "--eps", "0", "--replicates", "-1"],
    ["oracle", "--n", "2", "--p", "0.3", "--replicates", "0"],
    ["sprinkle", "--n", "8", "--seeds", "0"],
], ids=["triangle", "sweep", "oracle", "sprinkle"])
def test_counts_below_one_are_refused_before_solving(tmp_path, capsys, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a threshold for a run with no replicates")

    monkeypatch.setattr(cli, "solve_pc", no_solve)
    out = tmp_path / "none"
    assert parse_and_dispatch(argv + ["--out", str(out)]) == EXIT_USAGE
    count = argv[-2]  # the count option is the last one given
    assert f"{count}: expected an integer >= 1, got '{argv[-1]}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sprinkle", "--n", "12", "--eps", "-0.3", "--seeds", "1"], "--eps: expected a number > 0"),
    (["sprinkle", "--n", "12", "--eps", "0", "--seeds", "1"], "--eps: expected a number > 0"),
    (["sprinkle", "--n", "12", "--eps", "nan", "--seeds", "1"], "--eps: expected a number > 0"),
    (["sprinkle", "--n", "12", "--alpha", "2", "--seeds", "1"],
     "--alpha: expected a number in (0, 1)"),
    (["sprinkle", "--n", "12", "--alpha", "0", "--seeds", "1"],
     "--alpha: expected a number in (0, 1)"),
    (["sprinkle", "--n", "10", "--eps", "50"], "--eps 50.0 lies outside [-10, 10]"),
    (["triangle", "--n", "8", "--eps", "100"], "--eps 100.0 lies outside [-8, 8]"),
    (["sweep", "--n", "6", "--eps", "100,-200"], "--eps 100.0,-200.0 lies outside [-6, 6]"),
    (["sweep", "--n", "8", "--eps", "0.1,nan"], "--eps: expected a comma-separated epsilon grid"),
    (["sweep", "--n", "8", "--eps", "inf"], "--eps: expected a comma-separated epsilon grid"),
], ids=["sprinkle-eps", "sprinkle-eps0", "sprinkle-eps-nan", "sprinkle-alpha",
        "sprinkle-alpha0", "sprinkle-eps-above-n", "triangle-eps-above-n",
        "sweep-grid-above-n", "sweep-grid-nan",
        "sweep-grid-inf"])
def test_eps_and_alpha_are_refused_before_solving(tmp_path, capsys, monkeypatch, argv, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a threshold for a run that is refused")

    monkeypatch.setattr(cli, "solve_pc", no_solve)
    out = tmp_path / "none"
    assert parse_and_dispatch(argv + ["--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


class _Solved(Exception):
    """Raised by a patched threshold solver: a solve was started."""


@pytest.mark.parametrize("argv, message", [
    (["--eps=nan"], "--eps: expected a finite number, got 'nan'"),
    (["--eps=inf"], "--eps: expected a finite number, got 'inf'"),
    (["--eps=-inf"], "--eps: expected a finite number, got '-inf'"),
    (["--pc=nan"], "--pc: expected a density in [0, 1], got 'nan'"),
    (["--pc=inf"], "--pc: expected a density in [0, 1], got 'inf'"),
    (["--pc=-inf"], "--pc: expected a density in [0, 1], got '-inf'"),
], ids=["eps-nan", "eps-inf", "eps-neg-inf", "pc-nan", "pc-inf", "pc-neg-inf"])
def test_triangle_refuses_a_non_finite_density_before_solving(tmp_path, capsys, monkeypatch,
                                                               argv, message):
    def solve(*args, **kwargs):
        raise _Solved

    monkeypatch.setattr(cli, "solve_pc", solve)
    out = tmp_path / "none"
    assert parse_and_dispatch(["triangle", "--n", "8", *argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "solving" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--max-bisections", "1"], None, "unrecognized arguments: --max-bisections 1"),
    ([], "max-bisections = 1", "unknown config key 'max-bisections'"),
    (["--tol-p", "1e-17"], None, "--tol-p: expected a number >= 2^-52, got '1e-17'"),
], ids=["max-bisections", "max-bisections-config", "tol-p-below-2^-52"])
def test_bisection_budget_and_too_fine_tolerance_are_refused_before_solving(
        tmp_path, capsys, monkeypatch, argv, config, message):
    # every tol_p >= 2^-52 is met within 52 bisections, so no budget is needed
    def solve(*args, **kwargs):
        raise _Solved

    monkeypatch.setattr(cli, "solve_pc", solve)
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        argv = ["--config", str(path)]
    out = tmp_path / "pc"
    assert parse_and_dispatch(["pc-solve", "--n", "6", *argv, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_triangle_command(tmp_path, capsys):
    out = tmp_path / "tri"
    # --p is gone: the density is --pc plus the default --eps 0, and no
    # option is reached by a prefix
    assert parse_and_dispatch(["triangle", "--n", "6", "--p", "0.15",
                               "--out", str(out)]) == EXIT_USAGE
    assert "unrecognized arguments: --p 0.15" in capsys.readouterr().err
    code = parse_and_dispatch(["triangle", "--n", "6", "--pc", "0.15",
                               "--replicates", "10", "--out", str(out)])
    assert code == EXIT_OK
    profile = _read_csv(out / "two_point.csv")
    assert len(profile) == 8  # header + k = 0..6
    assert profile[1] == ["0", "1.0"]
    report = _read_csv(out / "triangle.csv")
    assert report[0][0] == "p"
    assert float(report[1][1]) >= 1.0  # nabla_diag counts the w = x = y term


def test_driver_solves_its_own_threshold(tmp_path, capsys):
    # without --pc the triangle runs at the threshold it solves, eps = 0 by default
    out = tmp_path / "tri"
    assert parse_and_dispatch(["triangle", "--n", "6", "--replicates", "4",
                               "--out", str(out)]) == EXIT_OK
    assert "solving threshold for n=6" in capsys.readouterr().err
    p_hat = solve_pc(CubeDim(6), 1.0, master_seed=1).p_hat
    assert float(_read_csv(out / "triangle.csv")[1][0]) == p_hat


def test_lemma_check_small(tmp_path):
    out = tmp_path / "lemma"
    code = parse_and_dispatch(["lemma-check", "--n-max", "5",
                               "--harper-instances", "50", "--overlap-instances", "20",
                               "--paths-instances", "10", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "lemma_check.csv").read_text().splitlines() == [
        "suite,instances,violations,first_failure",
        "harper-ball-growth,250,0,",
        "big-overlap,100,0,",
        "disjoint-short-paths,40,0,",
        "tail-symmetry-and-bound,434,0,",
    ]


@pytest.mark.parametrize("argv, message", [
    (["--n-max", "0"], f"--n-max: expected an integer in [2, {MAX_N}], got '0'"),
    (["--n-max", "1"], f"--n-max: expected an integer in [2, {MAX_N}], got '1'"),
    (["--harper-instances", "0"], "--harper-instances: expected an integer >= 1, got '0'"),
    (["--overlap-instances", "0"], "--overlap-instances: expected an integer >= 1, got '0'"),
    (["--paths-instances", "-1"], "--paths-instances: expected an integer >= 1, got '-1'"),
], ids=["n-max-0", "n-max-1", "harper-0", "overlap-0", "paths-neg"])
def test_lemma_check_refuses_an_empty_suite_before_any_suite(tmp_path, capsys, argv, message):
    # a suite with no instances would report "ok" having checked nothing
    out = tmp_path / "lemmas"
    assert parse_and_dispatch(["lemma-check", *argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "violations" not in err  # no suite reported progress
    assert not out.exists()


class _Reached(BaseException):
    """Raised by a patched solver or driver: the run got past every input check."""


_DRAWN_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", str(MAX_N),
                     str(MAX_N + 1), "x", "", ",", "1,nan", "-0.3,0,0.3", "true", "false"]),
    st.integers(-3, MAX_N + 2).map(str),
    st.floats(-2.0, 2.0).map(repr),
)
def _suite_input(n_max, count, seed):
    return 2 <= n_max <= MAX_N and count >= 1 and seed >= 0


# what each driver must be handed once the CLI has checked its input
_DRIVER_INPUTS = {
    "run_sweep": lambda cfg, p_hat: 0.0 <= p_hat <= 1.0 and cfg.master_seed >= 0
        and any(0.0 <= p_hat + eps / cfg.n <= 1.0 for eps in cfg.epsilon_grid),
    "sprinkling_experiment": lambda n, eps, alpha, seed, p_hat: 0.0 <= p_hat + eps / n <= 1.0,
    "replicate_stats": lambda dim, ps, seed, replicates, census=False:
        all(0.0 <= p <= 1.0 for p in ps) and replicates.stop > replicates.start and seed >= 0,
    "exact_enumerate": lambda n, p: n in (1, 2, 3) and 0.0 <= p <= 1.0,
    "run_harper_suite": _suite_input,
    "run_overlap_suite": _suite_input,
    "run_paths_suite": _suite_input,
}


def _reached(check):
    def driver(*args, **kwargs):
        assert check(*args, **kwargs), (args, kwargs)
        raise _Reached
    return driver


@st.composite
def _drawn_options(draw):
    subcommand = draw(st.sampled_from(sorted(OPTIONS)))
    names = [opt.name for opt in OPTIONS[subcommand] if opt.name not in ("out", "config")]
    # every required option and a few others, so that most draws get past argparse
    chosen = {opt.name for opt in OPTIONS[subcommand] if opt.required}
    chosen.update(draw(st.lists(st.sampled_from(names), max_size=3)))
    return subcommand, [(name, draw(_DRAWN_VALUES)) for name in sorted(chosen)]


@settings(deadline=None, max_examples=500)
@given(drawn=_drawn_options(), via_config=st.booleans(), p_hat=st.floats(0.0, 1.0))
def test_every_drawn_input_is_refused_before_solving_or_runs(tmp_path_factory, drawn,
                                                             via_config, p_hat):
    subcommand, options = drawn
    solved = []

    def solve(dim, lam, tol_p, schedule, master_seed):
        assert 1.0 <= lam * 2.0 ** (dim.n / 3.0) <= dim.volume and master_seed >= 0
        assert dim.n <= MAX_N and (tol_p is None or tol_p >= MIN_TOL_P)
        solved.append(dim.n)
        if subcommand == "pc-solve":
            raise _Reached
        return PcResult(dim.n, lam, p_hat, 0.0, 0, Estimate(1.0, 0.0, 1), True)

    base = tmp_path_factory.getbasetemp()
    argv = [subcommand, "--out", str(base / "drawn")]
    if via_config:  # a config file holds every option to the same rules
        config = base / "drawn.cfg"
        config.write_text("".join(f"{name} = {value}\n" for name, value in options))
        argv += ["--config", str(config)]
    else:
        argv += [f"--{name}={value}" for name, value in options]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(cli, "solve_pc", solve)
        for name, check in _DRIVER_INPUTS.items():
            mp.setattr(cli, name, _reached(check))
        try:
            code = parse_and_dispatch(argv)
        except _Reached:
            return
    assert code == EXIT_USAGE, err.getvalue()
    if solved:  # only the refusal that depends on p_hat waits
        assert subcommand in ("sweep", "sprinkle", "triangle")
        refusal = r"error: p_hat = \S+ puts p_hat \+ eps/n outside \[0, 1\] for every eps\n$"
        assert re.search(refusal, err.getvalue()), err.getvalue()
    assert not (base / "drawn").exists()


def test_lemma_check_violation_exits_4_and_keeps_its_row(tmp_path, capsys, monkeypatch):
    # a path list built for radius 0 holding an edge: every paths instance fails
    monkeypatch.setattr(lemmas, "disjoint_short_paths",
                        lambda dim, s, t, delta: PathList(dim, 0, ((0, 1),)))
    out = tmp_path / "lemma"
    code = parse_and_dispatch(["lemma-check", "--n-max", "3", "--harper-instances", "2",
                               "--overlap-instances", "2", "--paths-instances", "2",
                               "--out", str(out)])
    assert code == EXIT_INTERNAL
    assert "violations found in: disjoint-short-paths" in capsys.readouterr().err
    rows = _read_csv(out / "lemma_check.csv")
    assert rows[3][:3] == ["disjoint-short-paths", "4", "4"]
    assert rows[3][3].endswith("path longer than the bound it was built for")


def test_manifest_records_config(tmp_path):
    out = tmp_path / "oracle"
    parse_and_dispatch(["oracle", "--n", "1", "--p", "0.25", "--replicates", "50",
                        "--out", str(out)])
    replay, *lines = (out / "manifest.txt").read_text().splitlines()
    assert replay == f"# cubeperc oracle --config {out / 'manifest.txt'} --out <new>"
    facts = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    assert list(facts) == ["version", "numpy_version", "subcommand", "outputs", "output_dir",
                           "started_utc", "wall_clock_seconds", "minor_page_faults",
                           "peak_rss_mb"]
    assert facts["version"] == cubeperc.__version__
    assert facts["subcommand"] == "oracle" and facts["outputs"] == "oracle.csv"
    assert facts["output_dir"] == str(out)
    assert float(facts["wall_clock_seconds"]) > 0.0
    assert int(facts["minor_page_faults"]) > 0
    assert float(facts["peak_rss_mb"]) > 0.0
    # the options follow the comments, by their long names; --config is not one of them
    assert [line for line in lines if not line.startswith("# ")] == [
        f"out = {out}", "seed = 1", "n = 1", "p = 0.25", "replicates = 50"]


_REPLAYED = {
    "pc-solve": ["pc-solve", "--n", "6", "--lambda", "0.8", "--seed", "3"],
    "pc-solve-tol": ["pc-solve", "--n", "6", "--tol-p", "0.01", "--replicates-cap", "256"],
    "sweep-triangle": ["sweep", "--n", "6", "--eps", "-0.3,0,0.3", "--replicates", "4",
                       "--pc", "0.2", "--seed", "5", "--triangle", "true"],
    "sweep-config": ["sweep", "--config", "n = 6\neps = -0.3,0,0.3\nreplicates = 4\npc = 0.2",
                     "--eps", "0.1,-1e-05"],
    "sprinkle": ["sprinkle", "--n", "6", "--eps", "0.5", "--seeds", "3", "--pc", "0.2"],
    "triangle": ["triangle", "--n", "6", "--replicates", "4", "--seed", "2"],
    "oracle": ["oracle", "--n", "2", "--p", "0.3", "--replicates", "20"],
    "lemma-check": ["lemma-check", "--n-max", "4", "--harper-instances", "20",
                    "--overlap-instances", "5", "--paths-instances", "5", "--seed", "9"],
}

# SHA-256 of each case's CSVs, hashed as perfbench/run._digest_files does; a change
# that moves one on purpose re-records it and names the old and new digests
_REPLAYED_DIGESTS = {
    "lemma-check": "1b0fed4f250c217b53d66e05c86b488b52a37752240a1cb9fe7eb2b3a9a5f8d2",
    "oracle": "64bb981a8111b764404a7ef2603baa17bfd7bbae07417aaaa1559d8a79019f66",
    "pc-solve": "cfbdc19576055e7fdddb794e27fa245b585183c1243a29165b80ffbe23b3bf84",
    "pc-solve-tol": "16290f31a642a5dde740cb21d60b4aaaf7d68bf7b91cd30ddd26e099e5791ff1",
    "sprinkle": "b3233fe8aea51098759762c548ccaf4a34d86f8c6939df08d178f30a7f236d8e",
    "sweep-config": "a3432394cf71a64063fb92320536b0a2ee7c6f189f4a03e1c35afd59db83a797",
    "sweep-triangle": "9e2f70e6b4578df2c8cf9b29f859eb878edf4d1688700da7383fa4bf516d3a89",
    "triangle": "59ac85fe412901c5216deaff1bd9a46912271e18dfd17525ef932964d9db2ce9",
}


@pytest.mark.parametrize("case", sorted(_REPLAYED))
def test_every_run_directory_replays_itself(tmp_path, capsys, case):
    argv = list(_REPLAYED[case])
    if "--config" in argv:  # a config file and a flag that overrides it
        config = tmp_path / "run.cfg"
        config.write_text(argv[argv.index("--config") + 1] + "\n")
        argv[argv.index("--config") + 1] = str(config)
    first, again = tmp_path / "first", tmp_path / "again"
    assert parse_and_dispatch(argv + ["--out", str(first)]) == EXIT_OK
    manifest = first / "manifest.txt"
    replay = manifest.read_text().splitlines()[0].split()
    assert replay[:5] == ["#", "cubeperc", argv[0], "--config", str(manifest)]
    assert parse_and_dispatch(replay[2:5] + ["--out", str(again)]) == EXIT_OK
    tables = sorted(path.name for path in first.glob("*.csv"))
    assert tables and tables == sorted(path.name for path in again.glob("*.csv"))
    digest = hashlib.sha256()
    for name in tables:
        body = (first / name).read_bytes()
        assert (again / name).read_bytes() == body, name
        digest.update(name.encode() + b"\0" + body + b"\0")
    assert digest.hexdigest() == _REPLAYED_DIGESTS[case]


@settings(deadline=None, max_examples=500)
@given(drawn=_drawn_options())
def test_manifest_round_trips_the_configuration(tmp_path_factory, drawn):
    subcommand, options = drawn
    try:
        flags = cli._build_parser().parse_args(
            [subcommand, *(f"--{name}={value}" for name, value in options)])
        cfg = cli._merge_config(subcommand, flags)
    except (SystemExit, cli.UsageError):
        return  # a refused input writes no manifest
    path = tmp_path_factory.getbasetemp() / "manifest.txt"
    reports.write_manifest(path, cli._manifest(subcommand, cfg, path.parent, 0.0, []))
    assert _parse_config_file(str(path), OPTIONS[subcommand]) == {
        name: value for name, value in cfg.items() if value is not None and name != "config"}


def test_out_with_a_hash_is_refused_and_a_config_comment_still_ends_the_value(tmp_path, capsys):
    # `#` starts a comment, so a manifest holding `out = .../h#x` would replay into .../h
    argv = ["oracle", "--n", "1", "--p", "0.3", "--replicates", "5"]
    out = tmp_path / "h#x"
    assert parse_and_dispatch(argv + ["--out", str(out)]) == EXIT_USAGE
    assert f"--out: expected a path without '#', got '{out}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {tmp_path / 'h'}  # note\n")
    assert _parse_config_file(str(config), OPTIONS["oracle"]) == {"out": str(tmp_path / "h")}
    assert parse_and_dispatch(argv + ["--config", str(config)]) == EXIT_OK
    assert (tmp_path / "h" / "oracle.csv").is_file()


def test_reused_parser_keeps_no_values(tmp_path, capsys):
    # the parser is built once per process; a value given to one call must
    # not carry over to the next
    out = str(tmp_path / "oracle")
    assert parse_and_dispatch(["oracle", "--n", "2", "--p", "0.3", "--replicates", "20",
                               "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert parse_and_dispatch(["oracle", "--n", "2", "--out", out]) == EXIT_USAGE
    assert "--p is required" in capsys.readouterr().err


_FAULTS_PER_RUN = """
import contextlib, io, json, resource, sys
from cubeperc.cli import parse_and_dispatch
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = parse_and_dispatch(sys.argv[1:])
    if code:
        sys.exit(code)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the CLI tunes glibc's allocator only")
def test_repeated_cli_runs_reuse_freed_arrays(tmp_path):
    # with glibc's default thresholds each n = 16 sprinkle run takes about
    # 1,600 minor faults, re-faulting the arrays the previous run freed
    argv = ["sprinkle", "--n", "16", "--seeds", "1", "--pc", repr(pc_expansion_reference(16)),
            "--out", str(tmp_path / "spr")]
    src = str(Path(cubeperc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert len(faults) == 3
    assert max(faults) < 100, faults
