"""cubeperc benchmark: three paper workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload solve12 --seed 1 --seconds 30 --trace 0

Workloads (see `_workloads` for the exact inputs; a unit is one timed pass):

  solve12           `cubeperc pc-solve --n 12 --lambda 1`, default replicate
                    schedule.  Labeling-bound near criticality, no census.
  sweep14_triangle  `run_sweep` at n = 14, eps = -0.45, 0, +0.45, every
                    observable including the triangle, threshold pinned to
                    `pc_expansion_reference(14)`, 2 replicates per unit.
                    Census-bound above the window.
  sprinkle18        `cubeperc sprinkle --n 18 --eps 0.3 --seeds 1`, threshold
                    pinned to `pc_expansion_reference(18)`.  Large n: the
                    per-edge hash array outgrows L2, so sampling has its
                    largest share here.

The timed inputs are pinned: a workload's replicate seed is part of its
definition.  The solver's cost depends on it (2,688 replicates at seed 2026,
9,280 at seed 1), and golden.json holds the SHA-256 of each workload's output
at those inputs: the CSV bodies for the CLI workloads, the returned
`SweepRecord`s (triangle included) for the sweep.  `--seed` draws one more
configuration at the workload's n and density, outside the timed region, and
checks the labeler on it against an independent hook-and-jump labeler.

A run first launches SETUP_REPEATS fresh interpreters that import the package
and label one configuration at the workload's n; the median of their wall
times is `setup_s`.  It then repeats units until `--seconds` is spent (at
least one unit).  `wall_s` is the fastest untraced unit: on a shared 2-core
host the same unit's time swings by 20-40% over tens of seconds, and the
fastest of many short units moves least from run to run.  The median and the
slowest unit are printed beside it.  With `--trace 1` untraced and traced
units alternate (at least one of each): the traced ones give the per-layer
metrics (medians over traced units), and the two medians give the tracing
overhead.

Every unit's output must match its golden digest, and its exact counts
(calls per layer, census pair operations, bisections, replicates, unresolved
midpoints) must match every other unit's and the counts stored by the first
run in this directory under .perfbench_state/.  The last line of standard
output is a JSON object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from probe import EXACT_COUNTS, Probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"

SETUP_REPEATS = 5
WORKLOAD_SEED = 2026


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    `argv` runs a CLI subcommand (an `--out` directory is appended); without
    it the unit calls `run_sweep`.  `pinned` marks a threshold pinned to
    `pc_expansion_reference(n)`.  `check_eps` places the seeded labeler check
    at p = pc_expansion_reference(n) + check_eps / n.
    """

    n: int
    check_eps: float
    argv: tuple[str, ...] = ()
    eps: tuple[float, ...] = ()
    replicates: int = 0
    pinned: bool = True


def _workloads(smoke: bool) -> dict[str, Workload]:
    seed = str(WORKLOAD_SEED)
    n_solve, n_sweep, n_sprinkle = (6, 8, 10) if smoke else (12, 14, 18)
    return {
        "solve12": Workload(
            n_solve, 0.0, ("pc-solve", "--n", str(n_solve), "--lambda", "1", "--seed", seed),
            pinned=False),
        "sweep14_triangle": Workload(
            n_sweep, 0.45, eps=(-0.45, 0.0, 0.45), replicates=2),
        "sprinkle18": Workload(
            n_sprinkle, 0.3, ("sprinkle", "--n", str(n_sprinkle), "--eps", "0.3",
                              "--seeds", "2" if smoke else "1", "--seed", seed)),
    }


WORKLOADS = tuple(_workloads(False))


def _import_package():
    if not (SRC / "cubeperc" / "__init__.py").is_file():
        raise SystemExit(f"error: no cubeperc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubeperc.cli  # noqa: F401 - loads every layer module

    return sys.modules["cubeperc"]


def _pinned_pc(pkg, wl: Workload) -> float | None:
    return pkg.critical.pc_expansion_reference(wl.n) if wl.pinned else None


def _check_graph(pkg, wl: Workload, seed: int):
    p = pkg.critical.pc_expansion_reference(wl.n) + wl.check_eps / wl.n
    return pkg.gen.sample_subgraph(pkg.cube.CubeDim(wl.n), p, pkg.gen.SeedSpec(seed, 0))


def warm_up(name: str, smoke: bool) -> None:
    """Import the package and label one configuration at the workload's n."""
    pkg = _import_package()
    wl = _workloads(smoke)[name]
    pkg.clusters.label_components(_check_graph(pkg, wl, 0))


def _measure_setup(name: str, smoke: bool) -> float:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.warm_up(sys.argv[2], sys.argv[3] == '1')")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR), name, str(int(smoke))],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr.strip()}")
    return statistics.median(times)


def reference_sizes(planes: np.ndarray) -> np.ndarray:
    """Component sizes, largest first, by hook-and-jump over all edges at once."""
    n = planes.shape[0]
    us = []
    for d in range(n):
        idx = np.flatnonzero(planes[d]).astype(np.int64)
        us.append(((idx >> d) << (d + 1)) | (idx & ((1 << d) - 1)))
    dirs = np.repeat(np.arange(n, dtype=np.int64), [u.size for u in us])
    u = np.concatenate(us)
    v = u | (np.int64(1) << dirs)
    parent = np.arange(1 << n, dtype=np.int64)
    while not np.array_equal(parent[u], parent[v]):
        ru, rv = parent[u], parent[v]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
    sizes = np.bincount(parent)
    return np.sort(sizes[sizes > 0])[::-1]


def _digest_files(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _digest_records(records) -> str:
    payload = json.dumps([dataclasses.asdict(r) for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _run_unit(pkg, wl: Workload, out_dir: Path) -> str:
    """One pass of the workload; returns the digest of its output."""
    if not wl.argv:
        cfg = pkg.experiments.SweepConfig(
            n=wl.n, epsilon_grid=wl.eps, replicates=wl.replicates, master_seed=WORKLOAD_SEED,
            observables=pkg.experiments.ObservableFlags(triangle=True))
        return _digest_records(pkg.experiments.run_sweep(cfg, _pinned_pc(pkg, wl)))
    argv = list(wl.argv) + ["--out", str(out_dir)]
    if wl.pinned:
        argv += ["--pc", repr(_pinned_pc(pkg, wl))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = pkg.cli.parse_and_dispatch(argv)
    if code != 0:
        raise RuntimeError(f"cubeperc exited {code}: {err.getvalue().strip()}")
    return _digest_files(out_dir)


@dataclass
class Unit:
    wall: float
    traced: bool
    digest: str | None
    error: str | None
    counts: dict
    self_s: dict


def _run_units(pkg, wl: Workload, probe: Probe, seconds: float, out_dir: Path,
               trace: bool) -> list[Unit]:
    """Repeat the workload until `seconds` is spent; with `trace`, every other unit is traced."""
    units: list[Unit] = []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        probe.reset()
        probe.timing = trace and len(units) % 2 == 1
        t0 = time.perf_counter()
        digest = error = None
        try:
            digest = _run_unit(pkg, wl, out_dir)
        except Exception as exc:  # noqa: BLE001 - a failing unit is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        units.append(Unit(wall, probe.timing, digest, error, dict(probe.counts), dict(probe.self_s)))
        typical = statistics.median(u.wall for u in units)
        if time.perf_counter() - start + typical > seconds and len(units) >= 1 + trace:
            return units


def _exact(unit: Unit) -> dict:
    return {key: int(unit.counts.get(key, 0)) for key in EXACT_COUNTS}


def _failures(units: list[Unit], golden: str | None, state_file: Path) -> list[str]:
    """Reasons each unit is invalid, one entry per failed unit."""
    stored = json.loads(state_file.read_text()) if state_file.is_file() else None
    reference = stored or _exact(next((u for u in units if u.error is None), units[0]))
    problems = []
    for unit in units:
        if unit.error is not None:
            problems.append(unit.error)
        elif unit.digest != golden:
            problems.append(f"output digest {unit.digest} differs from golden {golden}")
        elif _exact(unit) != reference:
            diff = {k: (v, reference.get(k)) for k, v in _exact(unit).items() if reference.get(k) != v}
            problems.append(f"exact counts differ (this run, reference): {diff}")
    if stored is None and not problems:
        state_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = state_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference, indent=1, sort_keys=True))
        os.replace(tmp, state_file)
    return problems


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cubeperc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _layer_metrics(units: list[Unit], untraced: list[Unit]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the traced units of each unit's value.

    Self times are given as shares of the traced unit's wall time, so they add
    up to 1 with the driver share, and a layer a workload never calls reads 0
    as a share rather than as a time; `trace.wall_s` turns shares into seconds.
    """
    def med(fn) -> float:
        return float(statistics.median(fn(u) for u in units))

    def calls(layer):
        return med(lambda u: u.counts.get(f"{layer}.calls", 0))

    def share(layer):
        return med(lambda u: u.self_s.get(layer, 0.0) / u.wall)

    def rate(work, layer):
        return med(lambda u: u.counts.get(work, 0) / u.self_s[layer] if u.self_s.get(layer) else 0.0)

    def count(key):
        return med(lambda u: u.counts.get(key, 0))

    def driver_share(u: Unit) -> float:
        return 1.0 - sum(s for layer, s in u.self_s.items() if layer != "experiments") / u.wall

    def useful(u: Unit) -> float:  # 0 when the workload runs no solve
        drawn = u.counts.get("critical.replicates", 0)
        return 1.0 - u.counts.get("critical.wasted_replicates", 0) / drawn if drawn else 0.0

    traced_wall = med(lambda u: u.wall)
    untraced_wall = float(statistics.median(u.wall for u in untraced))
    return {
        "gen.sample.calls": (calls("gen.sample"), "count"),
        "gen.sample.share": (share("gen.sample"), "ratio"),
        "gen.sample.edges_per_s": (rate("gen.sample.edges", "gen.sample"), "1/s"),
        "gen.union.calls": (calls("gen.union"), "count"),
        "gen.union.share": (share("gen.union"), "ratio"),
        "clusters.label.calls": (calls("clusters.label"), "count"),
        "clusters.label.share": (share("clusters.label"), "ratio"),
        "clusters.label.vertices_per_s": (rate("clusters.label.vertices", "clusters.label"), "1/s"),
        "clusters.reduce.share": (share("clusters.reduce"), "ratio"),
        "stats.chi.share": (share("stats.chi"), "ratio"),
        "stats.census.calls": (calls("stats.census"), "count"),
        "stats.census.share": (share("stats.census"), "ratio"),
        "stats.census.pair_ops": (count("stats.census.pair_ops"), "count"),
        "stats.census.block_bytes_max": (count("stats.census.block_bytes_max"), "B"),
        "stats.triangle.share": (share("stats.triangle"), "ratio"),
        "critical.share": (share("critical"), "ratio"),
        "critical.bisections": (count("critical.bisections"), "count"),
        "critical.replicates": (count("critical.replicates"), "count"),
        "critical.unresolved_midpoints": (count("critical.unresolved_midpoints"), "count"),
        "critical.useful_replicate_frac": (med(useful), "ratio"),
        "reports.io.share": (share("reports.io"), "ratio"),
        "reports.io.bytes": (count("reports.io.bytes"), "B"),
        "cli.share": (share("cli"), "ratio"),
        "experiments.driver.share": (med(driver_share), "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the extra configuration the labeler is checked on")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="same workloads at small n, for the benchmark's own tests")
    args = parser.parse_args(argv)

    name = args.workload
    key = f"smoke-{name}" if args.smoke else name
    wl = _workloads(args.smoke)[name]
    pkg = _import_package()
    golden = json.loads(GOLDEN.read_text()).get(key)

    setup_s = _measure_setup(name, args.smoke)
    warm_up(name, args.smoke)
    graph = _check_graph(pkg, wl, args.seed)
    check_ok = np.array_equal(pkg.clusters.label_components(graph).sizes_desc,
                              reference_sizes(graph.planes))

    out_dir = Path.cwd() / ".perfbench_out" / key
    probe = Probe()
    probe.install(pkg)
    try:
        units = _run_units(pkg, wl, probe, args.seconds, out_dir, bool(args.trace))
    finally:
        probe.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [u for u in units if not u.traced]
    traced = [u for u in units if u.traced]

    problems = _failures(units, golden, Path.cwd() / ".perfbench_state" / f"{key}.json")
    if not check_ok:
        problems.append(f"labeler disagrees with the reference on seed {args.seed}")
    for u in traced:
        if sum(u.self_s.values()) > 1.01 * u.wall:
            problems.append("layer self times exceed the unit's wall time")

    walls = [u.wall for u in untraced]
    wall_s = min(walls)
    labelings = untraced[0].counts.get("clusters.label.calls", 0)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "replicates_per_s": (labelings / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = _layer_metrics(traced, untraced) if args.trace else {}

    env = {
        "workload": key, "workload_seed": WORKLOAD_SEED, "pinned_pc": _pinned_pc(pkg, wl),
        "check_seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "unit_walls_s": [round(u.wall, 4) for u in untraced],
        "traced_unit_walls_s": [round(u.wall, 4) for u in traced],
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "numba": importlib.util.find_spec("numba") is not None,
        "commit": _commit(), "source_sha256": _source_digest(),
        "exact_counts": _exact(units[0]),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for problem, times in Counter(problems).items():
        print(f"FAILED {key} ({times}x): {problem}", file=sys.stderr)
    attempted = len(units) + 1  # every unit and the seeded labeler check
    failed = len(problems)
    print(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted})")
    print(f"unit wall over {len(walls)} untraced units: median = {statistics.median(walls)!r} s, "
          f"max = {max(walls)!r} s")
    shown = {**end_to_end, **per_layer}
    for metric, (value, unit) in shown.items():
        print(f"{metric} = {value!r} {unit}")
    chosen = per_layer if args.trace else end_to_end
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
