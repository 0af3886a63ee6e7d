"""Command-line front end.

Subcommands: pc-solve, sweep, sprinkle, duality, triangle, oracle,
lemma-check.  Each writes fixed-schema CSV files plus a manifest that
records the full effective configuration, seed, code version and wall
clock.  Option precedence is command line > config file > defaults; the
config file is flat `key = value` text using the long option names, and
unknown keys are rejected.

Exit codes: 0 success, 2 usage or validation error, 3 unconverged solver,
4 internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__, reports
from .critical import DEFAULT_LAMBDA, PcResult, ReplicateSchedule, solve_pc
from .cube import CubeDim
from .experiments import (
    DEFAULT_ALPHA,
    ObservableFlags,
    SweepConfig,
    duality_experiment,
    exact_enumerate,
    regime_summary,
    run_sweep,
    sprinkling_experiment,
)
from .gen import SeedSpec
from .lemmas import run_harper_suite, run_overlap_suite, run_paths_suite, run_tail_suite
from .stats import Estimate, replicate_stats, triangle_diagram_hat, two_point_profile

__all__ = ["main", "parse_and_dispatch"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNCONVERGED = 3
EXIT_INTERNAL = 4

# Largest --n the CLI accepts.  At n = 22 one sprinkle replicate peaks at
# 378 MB RSS and one triangle replicate at 307 MB, 3.2x their n = 20 peaks.
MAX_N = 22


@dataclass(frozen=True)
class Option:
    name: str
    typ: Callable[[str], Any]
    default: Any
    help: str
    required: bool = False


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_COMMON = [
    Option("out", str, None, "output directory (default runs/<subcommand>)"),
    Option("seed", int, 1, "master seed"),
    Option("config", str, None, "flat key = value config file"),
]

_SOLVER = [
    Option("lambda", float, DEFAULT_LAMBDA, "susceptibility target multiplier"),
    Option("tol-p", float, None, "bisection tolerance in p (default window/4)"),
    Option("replicates-start", int, 64, "replicates at the first schedule level"),
    Option("replicates-cap", int, 8192, "replicate cap per midpoint"),
    Option("max-bisections", int, 80, "bisection iteration budget"),
]
_PC = [Option("pc", float, None, "threshold override; skips solving")]
_N = Option("n", int, None, "cube dimension", required=True)

OPTIONS: dict[str, list[Option]] = {
    "pc-solve": _COMMON + [_N] + _SOLVER,
    "sweep": _COMMON + _SOLVER + _PC + [
        _N,
        Option("alpha", float, DEFAULT_ALPHA, "percolation-probability exponent"),
        Option("eps", _float_list, None, "comma-separated epsilon grid", required=True),
        Option("replicates", int, 200, "replicates per grid point"),
        Option("observables", _str_list, ("chi", "cmax", "c2", "theta", "z"),
               "comma-separated subset of chi,cmax,c2,theta,z,triangle"),
        Option("k1", float, 1.0, "triangle bound constant K1"),
        Option("k2", float, 1.0, "triangle bound constant K2"),
    ],
    "sprinkle": _COMMON + _SOLVER + _PC + [
        _N,
        Option("eps", float, 0.3, "distance above the threshold in window units"),
        Option("alpha", float, DEFAULT_ALPHA, "component-size exponent"),
        Option("seeds", int, 100, "number of independent repetitions"),
    ],
    "duality": _COMMON + _SOLVER + _PC + [
        _N,
        Option("eps", float, 0.3, "mirror distance from the threshold"),
        Option("replicates", int, 100, "matched replicates per side"),
    ],
    "triangle": _COMMON + _SOLVER + _PC + [
        _N,
        Option("p", float, None, "density (overrides eps)"),
        Option("eps", float, 0.0, "density offset from the solved threshold"),
        Option("replicates", int, 50, "replicates for the two-point profile"),
        Option("k1", float, 1.0, "triangle bound constant K1"),
        Option("k2", float, 1.0, "triangle bound constant K2"),
    ],
    "oracle": _COMMON + [
        Option("n", int, None, "cube dimension (1..3)", required=True),
        Option("p", float, None, "bond density", required=True),
        Option("replicates", int, 2000, "Monte Carlo replicates for the cross-check"),
    ],
    "lemma-check": _COMMON + [
        Option("n-max", int, 12, "largest dimension for the randomized suites"),
        Option("harper-instances", int, 10_000, "ball-growth instances per dimension"),
        Option("overlap-instances", int, 1_000, "big-overlap instances per dimension"),
        Option("paths-instances", int, 100, "path-construction instances per dimension"),
    ],
}

class UsageError(Exception):
    pass


def _key(name: str) -> str:
    return name.replace("-", "_")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeperc",
        description="Bond percolation laboratory on the hypercube.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in OPTIONS.items():
        sp = sub.add_parser(name)
        for opt in options:
            sp.add_argument(f"--{opt.name}", dest=_key(opt.name), type=opt.typ,
                            default=None, help=opt.help)
        try:
            # let grid values like `--eps -0.3,0,0.3` pass as option values
            sp._negative_number_matcher = re.compile(r"^-\d+\.?\d*(,.*)?$")
        except AttributeError:  # pragma: no cover - `--eps=-0.3,...` still works
            pass
    return parser


def _parse_config_file(path: str, options: list[Option]) -> dict[str, Any]:
    by_name = {opt.name: opt for opt in options}
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in by_name:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[_key(key)] = by_name[key].typ(text.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _merge_config(subcommand: str, flags: argparse.Namespace) -> dict[str, Any]:
    options = OPTIONS[subcommand]
    merged = {_key(opt.name): opt.default for opt in options}
    config_path = getattr(flags, "config", None)
    if config_path:
        merged.update(_parse_config_file(config_path, options))
    for opt in options:
        value = getattr(flags, _key(opt.name))
        if value is not None:
            merged[_key(opt.name)] = value
    for opt in options:
        if opt.required and merged[_key(opt.name)] is None:
            raise UsageError(f"--{opt.name} is required for {subcommand}")
    if (merged.get("n") or 0) > MAX_N:
        raise UsageError(f"--n {merged['n']} exceeds {MAX_N}, the largest cube the CLI runs")
    merged["subcommand"] = subcommand
    return merged


def _out_dir(cfg: dict[str, Any]) -> Path:
    path = Path(cfg.get("out") or f"runs/{cfg['subcommand']}")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(cfg: dict[str, Any], started: float, outputs: list[str]) -> dict[str, Any]:
    entries: dict[str, Any] = {"version": __version__, "numpy_version": np.__version__}
    for key in sorted(cfg):
        if key == "config":
            continue
        value = cfg[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        entries[key] = value
    entries["outputs"] = ",".join(outputs)
    entries["started_utc"] = datetime.now(timezone.utc).isoformat()
    entries["wall_clock_seconds"] = time.perf_counter() - started
    return entries


def _solve(cfg: dict[str, Any]) -> PcResult:
    schedule = ReplicateSchedule(initial=cfg["replicates_start"], cap=cfg["replicates_cap"],
                                 max_bisections=cfg["max_bisections"])
    return solve_pc(CubeDim(cfg["n"]), cfg["lambda"], cfg["tol_p"], schedule,
                    master_seed=cfg["seed"])


def _p_hat(cfg: dict[str, Any]) -> float:
    if cfg.get("pc") is not None:
        return float(cfg["pc"])
    print(f"solving threshold for n={cfg['n']} lambda={cfg['lambda']} ...", file=sys.stderr)
    result = _solve(cfg)
    if not result.converged:
        raise UsageError("threshold solver did not converge; rerun with a larger budget")
    return result.p_hat


def _cmd_pc_solve(cfg: dict[str, Any]) -> int:
    out = _out_dir(cfg)
    started = time.perf_counter()
    result = _solve(cfg)
    reports.write_csv(out / "pc_trace.csv", reports.PC_TRACE_HEADER,
                      reports.pc_trace_rows(result))
    reports.write_csv(out / "pc_result.csv", reports.PC_RESULT_HEADER,
                      reports.pc_result_rows(result))
    reports.write_manifest(out / "manifest.txt",
                           _manifest(cfg, started, ["pc_result.csv", "pc_trace.csv"]))
    print(f"n={result.n} lambda={result.lam} p_hat={result.p_hat:.8f} "
          f"+-{result.ci_half_width:.2e} n*p_hat={result.n * result.p_hat:.4f} "
          f"chi={result.chi_at_p_hat.mean:.4f} converged={result.converged}")
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def _cmd_sweep(cfg: dict[str, Any]) -> int:
    out = _out_dir(cfg)
    started = time.perf_counter()
    p_hat = _p_hat(cfg)
    names = set(cfg["observables"])
    known = [f.name for f in fields(ObservableFlags)]
    if names - set(known):
        raise UsageError(f"unknown observables: {sorted(names - set(known))}")
    flags = ObservableFlags(**{name: name in names for name in known})
    sweep_cfg = SweepConfig(n=cfg["n"], alpha=cfg["alpha"], epsilon_grid=cfg["eps"],
                            replicates=cfg["replicates"], master_seed=cfg["seed"],
                            observables=flags, k1=cfg["k1"], k2=cfg["k2"])
    records = run_sweep(sweep_cfg, p_hat)
    summary = regime_summary(records)
    reports.write_csv(out / "sweep.csv", reports.SWEEP_HEADER, reports.sweep_rows(records))
    reports.write_csv(out / "regime_summary.csv", reports.SUMMARY_HEADER,
                      reports.summary_rows(summary))
    outputs = ["sweep.csv", "regime_summary.csv"] + ["triangle.csv"] * flags.triangle
    if flags.triangle:
        reports.write_csv(out / "triangle.csv", reports.TRIANGLE_HEADER,
                          reports.triangle_rows([r.triangle for r in records if r.triangle]))
    reports.write_manifest(out / "manifest.txt", _manifest(cfg, started, outputs))
    for line in summary.lines():
        print(line)
    return EXIT_OK


def _cmd_sprinkle(cfg: dict[str, Any]) -> int:
    out = _out_dir(cfg)
    started = time.perf_counter()
    p_hat = _p_hat(cfg)
    runs = []
    for r in range(cfg["seeds"]):
        runs.append(sprinkling_experiment(cfg["n"], cfg["eps"], cfg["alpha"],
                                          SeedSpec(cfg["seed"], r), p_hat))
        if (r + 1) % 25 == 0:
            print(f"sprinkle replicate {r + 1}/{cfg['seeds']}", file=sys.stderr)
    reports.write_csv(out / "sprinkle.csv", reports.SPRINKLE_HEADER, reports.sprinkle_rows(runs))
    reports.write_manifest(out / "manifest.txt", _manifest(cfg, started, ["sprinkle.csv"]))
    merged_ok = sum(1 for r in runs if r.M > 0 and r.cmax_after * 3 >= r.M)
    print(f"{len(runs)} runs; union cluster >= M/3 in {merged_ok}/{len(runs)}")
    return EXIT_OK


def _cmd_duality(cfg: dict[str, Any]) -> int:
    out = _out_dir(cfg)
    started = time.perf_counter()
    report = duality_experiment(cfg["n"], cfg["eps"], cfg["replicates"], cfg["seed"],
                                _p_hat(cfg))
    reports.write_csv(out / "duality.csv", reports.DUALITY_HEADER, reports.duality_rows(report))
    reports.write_manifest(out / "manifest.txt", _manifest(cfg, started, ["duality.csv"]))
    print(f"duality ratio mean|C2|({report.p_above:.5f}) / mean|Cmax|({report.p_below:.5f})"
          f" = {report.ratio_of_means:.4f}")
    return EXIT_OK


def _cmd_triangle(cfg: dict[str, Any]) -> int:
    out = _out_dir(cfg)
    started = time.perf_counter()
    p = cfg["p"] if cfg["p"] is not None else _p_hat(cfg) + cfg["eps"] / cfg["n"]
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"density {p} outside [0, 1]")
    dim = CubeDim(cfg["n"])
    st = replicate_stats(dim, p, cfg["seed"], range(cfg["replicates"]), chi=True, census=True)
    profile = two_point_profile(dim, st.census)
    report = triangle_diagram_hat(profile, float(st.chi.mean()), cfg["k1"], cfg["k2"], p=p)
    reports.write_csv(out / "two_point.csv", reports.PROFILE_HEADER,
                      reports.profile_rows(profile))
    reports.write_csv(out / "triangle.csv", reports.TRIANGLE_HEADER,
                      reports.triangle_rows([report]))
    reports.write_manifest(out / "manifest.txt",
                           _manifest(cfg, started, ["two_point.csv", "triangle.csv"]))
    print(f"p={p:.6f} nabla_diag={report.nabla_diag:.6f} "
          f"nabla_offdiag={report.nabla_offdiag:.6f} a0={report.a0:.6f}")
    return EXIT_OK


def _cmd_oracle(cfg: dict[str, Any]) -> int:
    out = _out_dir(cfg)
    started = time.perf_counter()
    oracle = exact_enumerate(cfg["n"], cfg["p"])
    mc = Estimate.from_samples(replicate_stats(CubeDim(cfg["n"]), cfg["p"], cfg["seed"],
                                               range(cfg["replicates"]), chi=True).chi)
    gap = abs(mc.mean - oracle.chi_exact)
    sigmas = gap / mc.std_error if mc.std_error > 0 else 0.0
    reports.write_csv(out / "oracle.csv",
                      ["n", "p", "chi_exact", "e_cmax_exact", "chi_mc_mean", "chi_mc_se",
                       "replicates", "abs_gap", "gap_sigmas"],
                      [[oracle.n, oracle.p, oracle.chi_exact, oracle.e_cmax_exact,
                        mc.mean, mc.std_error, mc.replicates, gap, sigmas]])
    reports.write_manifest(out / "manifest.txt", _manifest(cfg, started, ["oracle.csv"]))
    print(f"chi_exact = {oracle.chi_exact!r}")
    print(f"chi_mc    = {mc.mean!r} +- {mc.std_error!r} ({mc.replicates} replicates)")
    print(f"gap       = {gap:.6f} ({sigmas:.2f} standard errors)")
    return EXIT_OK


def _cmd_lemma_check(cfg: dict[str, Any]) -> int:
    out = _out_dir(cfg)
    started = time.perf_counter()
    results = []
    for runner, count_key in ((run_harper_suite, "harper_instances"),
                              (run_overlap_suite, "overlap_instances"),
                              (run_paths_suite, "paths_instances")):
        results.append(runner(cfg["n_max"], cfg[count_key], seed=cfg["seed"]))
        print(f"{results[-1].name}: {results[-1].instances} instances, "
              f"{results[-1].violations} violations", file=sys.stderr)
    results.append(run_tail_suite(30))
    reports.write_csv(out / "lemma_check.csv", reports.SUITE_HEADER, reports.suite_rows(results))
    reports.write_manifest(out / "manifest.txt", _manifest(cfg, started, ["lemma_check.csv"]))
    bad = [r for r in results if not r.passed]
    for r in results:
        print(f"{r.name}: {'ok' if r.passed else 'VIOLATED'} ({r.instances} instances)")
    if bad:
        print(f"violations found in: {', '.join(r.name for r in bad)}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


_DISPATCH = {
    "pc-solve": _cmd_pc_solve,
    "sweep": _cmd_sweep,
    "sprinkle": _cmd_sprinkle,
    "duality": _cmd_duality,
    "triangle": _cmd_triangle,
    "oracle": _cmd_oracle,
    "lemma-check": _cmd_lemma_check,
}


def parse_and_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        flags = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(flags.subcommand, flags)
        return _DISPATCH[flags.subcommand](cfg)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
