"""Command-line front end.

Subcommands: pc-solve, sweep, sprinkle, triangle, oracle, lemma-check.
Option precedence is command line > config file > defaults; a config file is
flat `key = value` text by the long option names, `#` starts a comment, and
unknown keys are rejected.  Each run writes fixed-schema CSV files and
`manifest.txt`, the config file that replays it: the replay command and the
run facts (versions, outputs, times, minor page faults, peak RSS) as comments.

Every input is checked before any threshold is solved: an option's type
holds its own rule, `_merge_config` the rules that span options.  One refusal
waits for the pinned or solved threshold p_hat (`_p_hat`): p_hat + eps/n must
lie in [0, 1] for at least one eps of the run, any sweep grid point or the
one sprinkle or triangle eps.  `--out` holds no `#`, which would start a
comment in the manifest that replays the run.
The exit code follows the exception type: 0 success, 2 `UsageError` or a
value argparse refuses, 4 a lemma-suite violation or any other exception.  A
threshold solve always converges, since `--tol-p` is at least 2^-52.  A
subcommand returns its tables and the dispatcher writes them with the
manifest, so a run that fails before returning writes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import re
import resource
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__, reports
from .critical import (DEFAULT_LAMBDA, MIN_TOL_P, PcResult, ReplicateSchedule,
                       pc_expansion_reference, solve_pc)
from .cube import CubeDim
from .experiments import (
    DEFAULT_ALPHA,
    ObservableFlags,
    SweepConfig,
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
EXIT_INTERNAL = 4

# Largest --n the CLI accepts.  At n = 22 one replicate peaks at 277 MB RSS
# for sprinkle, 220 MB for triangle and 245 MB for a 4-density sweep,
# 2.5-2.9x their n = 20 peaks.
MAX_N = 22


@dataclass(frozen=True)
class Option:
    name: str
    typ: Callable[[str], Any]
    default: Any
    help: str
    required: bool = False


def _checked(parse: Callable[[str], Any], rule: str,
             ok: Callable[[Any], bool]) -> Callable[[str], Any]:
    """An option type: parse the text, then refuse a value that breaks `rule`."""
    def typ(text: str) -> Any:
        try:
            if ok(value := parse(text)):
                return value
        except (LookupError, ValueError):
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
    return typ


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    rule = f"an integer >= {low}" if high is None else f"an integer in [{low}, {high}]"
    return _checked(int, rule, lambda v: low <= v and (high is None or v <= high))


_COUNT = _int_in(1)
_POSITIVE = _checked(float, "a number > 0", lambda v: v > 0.0)  # NaN fails
_TOL_P = _checked(float, "a number >= 2^-52", lambda v: v >= MIN_TOL_P)
_DENSITY = _checked(float, "a density in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_UNIT = _checked(float, "a number in (0, 1)", lambda v: 0.0 < v < 1.0)
_FINITE = _checked(float, "a finite number", math.isfinite)
_GRID = _checked(lambda text: tuple(float(tok) for tok in text.split(",") if tok.strip()),
                 "a comma-separated epsilon grid of one or more finite numbers",
                 lambda grid: bool(grid) and all(map(math.isfinite, grid)))
_BOOL = _checked({"true": True, "false": False}.__getitem__, "true or false", lambda v: True)

_COMMON = [
    Option("out", _checked(str, "a path without '#'", lambda v: "#" not in v), None,
           "output directory (default runs/<subcommand>)"),
    Option("seed", _int_in(0), 1, "master seed"),
    Option("config", str, None, "flat key = value config file"),
]

_SOLVER = [
    Option("lambda", _POSITIVE, DEFAULT_LAMBDA, "susceptibility target multiplier"),
    Option("tol-p", _TOL_P, None, "bisection tolerance in p (default window/4); at least "
           "2^-52, as a double halves [0, 1] no finer"),
    Option("replicates-start", _int_in(2), 64, "replicates at the first schedule level"),
    Option("replicates-cap", int, 8192, "replicate cap per midpoint"),
]
_PC = [Option("pc", _DENSITY, None, "threshold override; skips solving")]
_N = Option("n", _int_in(1, MAX_N), None, "cube dimension", required=True)

OPTIONS: dict[str, list[Option]] = {
    "pc-solve": _COMMON + [_N] + _SOLVER,
    "sweep": _COMMON + _SOLVER + _PC + [
        _N,
        Option("alpha", _UNIT, DEFAULT_ALPHA, "percolation-probability exponent"),
        Option("eps", _GRID, None, "comma-separated epsilon grid", required=True),
        Option("replicates", _COUNT, 200, "replicates per grid point"),
        Option("triangle", _BOOL, False, "also write triangle.csv: true or false"),
    ],
    "sprinkle": _COMMON + _SOLVER + _PC + [
        _N,
        Option("eps", _POSITIVE, 0.3, "eps = n(p - p_hat) of the merged density, > 0"),
        Option("alpha", _UNIT, DEFAULT_ALPHA, "component-size exponent"),
        Option("seeds", _COUNT, 100, "number of independent repetitions"),
    ],
    "triangle": _COMMON + _SOLVER + _PC + [
        _N,
        Option("eps", _FINITE, 0.0, "eps = n(p - p_hat), the density's offset"),
        Option("replicates", _COUNT, 50, "replicates for the two-point profile"),
    ],
    "oracle": _COMMON + [
        Option("n", _int_in(1, 3), None, "cube dimension (1..3)", required=True),
        Option("p", _DENSITY, None, "bond density", required=True),
        Option("replicates", _COUNT, 2000, "Monte Carlo replicates for the cross-check"),
    ],
    "lemma-check": _COMMON + [
        Option("n-max", _int_in(2, MAX_N), 12, "largest dimension for the randomized suites"),
        Option("harper-instances", _COUNT, 10_000, "ball-growth instances per dimension"),
        Option("overlap-instances", _COUNT, 1_000, "big-overlap instances per dimension"),
        Option("paths-instances", _COUNT, 100, "path-construction instances per dimension"),
    ],
}

class UsageError(Exception):
    """Input the CLI refuses; exits 2."""


Table = tuple[Sequence[str], Iterable[Sequence[Any]]]


@dataclass(frozen=True)
class Run:
    """A subcommand's result: CSV tables by file name, in manifest order, and stdout lines."""

    tables: dict[str, Table]
    lines: list[str]
    code: int = EXIT_OK


@functools.cache
def _keep_freed_arrays() -> None:
    """Have glibc keep freed arrays of up to 32 MiB for reuse, once per process.

    By default glibc serves each multi-MB numpy temporary with its own mmap and
    hands it, or the top of the heap, back to the kernel on release, so the next
    replicate faults the same pages in again: about 6,000 minor faults per
    n = 18 sprinkle replicate.  Only the CLI, which owns its process, does this;
    without glibc's mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: keep the heap top
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's largest on 64-bit hosts


# built once per process: every option defaults to None, so a reused parser
# carries no value from one call to the next
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeperc", description="Bond percolation laboratory on the hypercube.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in OPTIONS.items():
        # no abbreviations: a prefix such as `--p` would stand for `--pc`
        sp = sub.add_parser(name, allow_abbrev=False)
        for opt in options:
            sp.add_argument(f"--{opt.name}", dest=opt.name, type=opt.typ, default=None,
                            help=opt.help)
        # let values like `--eps -1e-05`, `-.5` or `-0.3,0,0.3` pass as option
        # values; no option name starts with a digit or a dot
        sp._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _parse_config_file(path: str, options: list[Option]) -> dict[str, Any]:
    by_name = {opt.name: opt for opt in options}
    values: dict[str, Any] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in by_name:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = by_name[key].typ(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _merge_config(subcommand: str, flags: argparse.Namespace) -> dict[str, Any]:
    options = OPTIONS[subcommand]
    merged = {opt.name: opt.default for opt in options}
    if flags.config:
        merged.update(_parse_config_file(flags.config, options))
    for opt in options:
        if (value := getattr(flags, opt.name)) is not None:
            merged[opt.name] = value
        if opt.required and merged[opt.name] is None:
            raise UsageError(f"--{opt.name} is required for {subcommand}")
    # each option's own rule is on its type; these rules span options
    n, eps, lam = merged.get("n"), merged.get("eps"), merged.get("lambda")
    if lam is not None and merged["replicates-cap"] < merged["replicates-start"]:
        raise UsageError("--replicates-cap must be >= --replicates-start")
    if lam is not None and not 1.0 <= lam * 2.0 ** (n / 3.0) <= 2.0 ** n:
        raise UsageError(f"--lambda {lam} puts the target lambda 2^(n/3) outside [1, 2^{n}]")
    # p_hat + eps/n leaves [0, 1] for every p_hat once |eps| > n (a sweep skips such points)
    if eps is not None and np.abs(eps).min() > n:
        raise UsageError(f"--eps {reports.fmt(eps)} lies outside [-{n}, {n}]: "
                         "no threshold gives a density")
    return merged


def _manifest(subcommand: str, cfg: dict[str, Any], out: Path, started: float,
              outputs: Iterable[str]) -> list[str]:
    # a config file: the replay command and run facts as comments, then the options set
    usage = resource.getrusage(resource.RUSAGE_SELF)  # ru_maxrss counts KiB (bytes on macOS)
    facts = {"version": __version__, "numpy_version": np.__version__, "subcommand": subcommand,
             "outputs": tuple(outputs), "output_dir": out,
             "started_utc": datetime.now(timezone.utc).isoformat(),
             "wall_clock_seconds": time.perf_counter() - started,
             "minor_page_faults": usage.ru_minflt,  # process totals so far
             "peak_rss_mb": usage.ru_maxrss / (1 << (20 if sys.platform == "darwin" else 10))}
    return ([f"# cubeperc {subcommand} --config {out / 'manifest.txt'} --out <new>"]
            + [f"# {key} = {reports.fmt(value)}" for key, value in facts.items()]
            + [f"{name} = {reports.fmt(value)}" for name, value in cfg.items()
               if name != "config" and value is not None])


def _solve(cfg: dict[str, Any]) -> PcResult:
    schedule = ReplicateSchedule(initial=cfg["replicates-start"], cap=cfg["replicates-cap"])
    return solve_pc(CubeDim(cfg["n"]), cfg["lambda"], cfg["tol-p"], schedule,
                    master_seed=cfg["seed"])


def _p_hat(cfg: dict[str, Any], grid: Sequence[float]) -> float:
    """The pinned or solved threshold, refused unless some eps of `grid` gives a density."""
    if cfg["pc"] is not None:
        p_hat = float(cfg["pc"])
    else:
        print(f"solving threshold for n={cfg['n']} lambda={cfg['lambda']} ...", file=sys.stderr)
        p_hat = _solve(cfg).p_hat
    # run_sweep's own test of each grid point; a run with no density in range measures nothing
    if not any(0.0 <= p_hat + eps / cfg["n"] <= 1.0 for eps in grid):
        raise UsageError(f"p_hat = {p_hat} puts p_hat + eps/n outside [0, 1] for every eps")
    return p_hat


def _cmd_pc_solve(cfg: dict[str, Any]) -> Run:
    result = _solve(cfg)
    line = (f"n={result.n} lambda={result.lam} p_hat={result.p_hat:.8f} "
            f"+-{result.ci_half_width:.2e} n*p_hat={result.n * result.p_hat:.4f} "
            f"chi={result.chi_at_p_hat.mean:.4f} converged={result.converged} "
            f"expansion={pc_expansion_reference(result.n):.6f}")
    return Run({"pc_result.csv": (reports.PC_RESULT_HEADER, reports.pc_result_rows(result)),
                "pc_trace.csv": (reports.PC_TRACE_HEADER, reports.pc_trace_rows(result))},
               [line])


def _cmd_sweep(cfg: dict[str, Any]) -> Run:
    sweep_cfg = SweepConfig(n=cfg["n"], alpha=cfg["alpha"], epsilon_grid=cfg["eps"],
                            replicates=cfg["replicates"], master_seed=cfg["seed"],
                            observables=ObservableFlags(triangle=cfg["triangle"]))
    records = run_sweep(sweep_cfg, _p_hat(cfg, cfg["eps"]))
    summary = regime_summary(records)
    tables = {"sweep.csv": (reports.SWEEP_HEADER, reports.sweep_rows(records)),
              "regime_summary.csv": (reports.SUMMARY_HEADER, reports.summary_rows(summary))}
    if cfg["triangle"]:
        tables["triangle.csv"] = (reports.TRIANGLE_HEADER, reports.triangle_rows(
            [r.triangle for r in records if r.triangle]))
    return Run(tables, summary.lines())


def _cmd_sprinkle(cfg: dict[str, Any]) -> Run:
    p_hat = _p_hat(cfg, (cfg["eps"],))
    runs = []
    for r in range(cfg["seeds"]):
        runs.append(sprinkling_experiment(cfg["n"], cfg["eps"], cfg["alpha"],
                                          SeedSpec(cfg["seed"], r), p_hat))
        if (r + 1) % 25 == 0:
            print(f"sprinkle replicate {r + 1}/{cfg['seeds']}", file=sys.stderr)
    merged_ok = sum(1 for r in runs if r.M > 0 and r.cmax_after * 3 >= r.M)
    return Run({"sprinkle.csv": (reports.SPRINKLE_HEADER, reports.sprinkle_rows(runs))},
               [f"{len(runs)} runs; union cluster >= M/3 in {merged_ok}/{len(runs)}"])


def _cmd_triangle(cfg: dict[str, Any]) -> Run:
    p = _p_hat(cfg, (cfg["eps"],)) + cfg["eps"] / cfg["n"]
    dim = CubeDim(cfg["n"])
    (st,) = replicate_stats(dim, (p,), cfg["seed"], range(cfg["replicates"]), census=True)
    profile = two_point_profile(dim, st.census)
    report = triangle_diagram_hat(profile, float(st.chi.mean()), p=p)
    return Run({"two_point.csv": (reports.PROFILE_HEADER, reports.profile_rows(profile)),
                "triangle.csv": (reports.TRIANGLE_HEADER, reports.triangle_rows([report]))},
               [f"p={p:.6f} nabla_diag={report.nabla_diag:.6f} "
                f"nabla_offdiag={report.nabla_offdiag:.6f} a0={report.a0:.6f}"])


def _cmd_oracle(cfg: dict[str, Any]) -> Run:
    oracle = exact_enumerate(cfg["n"], cfg["p"])
    (st,) = replicate_stats(CubeDim(cfg["n"]), (cfg["p"],), cfg["seed"], range(cfg["replicates"]))
    mc = Estimate.from_samples(st.chi)
    gap = abs(mc.mean - oracle.chi_exact)
    # one replicate has se 0: a nonzero gap is then infinitely many se, a zero gap none
    sigmas = gap / mc.std_error if mc.std_error > 0 else (np.inf if gap else 0.0)
    header = ["n", "p", "chi_exact", "e_cmax_exact", "chi_mc_mean", "chi_mc_se",
              "replicates", "abs_gap", "gap_sigmas"]
    row = [oracle.n, oracle.p, oracle.chi_exact, oracle.e_cmax_exact,
           mc.mean, mc.std_error, mc.replicates, gap, sigmas]
    return Run({"oracle.csv": (header, [row])},
               [f"chi_exact = {oracle.chi_exact!r}",
                f"chi_mc    = {mc.mean!r} +- {mc.std_error!r} ({mc.replicates} replicates)",
                f"gap       = {gap:.6f} ({sigmas:.2f} standard errors)"])


def _cmd_lemma_check(cfg: dict[str, Any]) -> Run:
    results = []
    for runner, count_key in ((run_harper_suite, "harper-instances"),
                              (run_overlap_suite, "overlap-instances"),
                              (run_paths_suite, "paths-instances")):
        results.append(runner(cfg["n-max"], cfg[count_key], seed=cfg["seed"]))
        print(f"{results[-1].name}: {results[-1].instances} instances, "
              f"{results[-1].violations} violations", file=sys.stderr)
    results.append(run_tail_suite())
    bad = [r for r in results if not r.passed]
    if bad:
        print(f"violations found in: {', '.join(r.name for r in bad)}", file=sys.stderr)
    return Run({"lemma_check.csv": (reports.SUITE_HEADER, reports.suite_rows(results))},
               [f"{r.name}: {'ok' if r.passed else 'VIOLATED'} ({r.instances} instances)"
                for r in results], EXIT_INTERNAL if bad else EXIT_OK)


_DISPATCH = {
    "pc-solve": _cmd_pc_solve,
    "sweep": _cmd_sweep,
    "sprinkle": _cmd_sprinkle,
    "triangle": _cmd_triangle,
    "oracle": _cmd_oracle,
    "lemma-check": _cmd_lemma_check,
}


def parse_and_dispatch(argv: list[str]) -> int:
    _keep_freed_arrays()
    try:
        flags = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(flags.subcommand, flags)
        started = time.perf_counter()
        run = _DISPATCH[flags.subcommand](cfg)
        out = Path(cfg["out"] or f"runs/{flags.subcommand}")
        for name, (header, rows) in run.tables.items():
            reports.write_csv(out / name, header, rows)
        manifest = _manifest(flags.subcommand, cfg, out, started, run.tables)
        reports.write_manifest(out / "manifest.txt", manifest)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for line in run.lines:
        print(line)
    return run.code


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
