"""Layer probes for the benchmark: call counters and, when timing, span self times.

A probe replaces each layer entry point at every module attribute that binds
it.  The drivers import `sample_subgraph`, `label_components`, `pair_census`
and friends by name, so patching only the defining module would record
nothing.  Counting is always on: it costs one dict update per call, about a
microsecond against kernels of milliseconds.  Span timing is switched on
only for traced runs.

A span's self time is its duration minus the time covered by the layer
spans it encloses.  Time inside no span, or inside a driver span
(`experiments`), is the driver self time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable

import numpy as np

# layer -> public functions that form its entry points
LAYERS: dict[str, tuple[str, ...]] = {
    "gen.sample": ("sample_subgraph",),
    "gen.union": ("union_graphs",),
    "clusters.label": ("label_components",),
    "clusters.reduce": ("top_two", "count_z_geq"),
    "stats.chi": ("chi_sample",),
    "stats.census": ("pair_census",),
    "stats.triangle": ("triangle_diagram_hat",),
    "critical": ("solve_pc",),
    "experiments": ("run_sweep", "sprinkling_experiment", "duality_experiment",
                    "regime_summary"),
    "reports.io": ("write_csv", "write_manifest"),
    "cli": ("parse_and_dispatch",),
}

MODULES = ("gen", "clusters", "stats", "critical", "experiments", "reports", "cli")

# the pair census XORs a block of at most this many rows against a component
CENSUS_BLOCK_ROWS = 2048


def _on_sample(probe: "Probe", args: tuple, result: Any) -> None:
    probe.counts["gen.sample.edges"] += int(result.planes.size)


def _on_label(probe: "Probe", args: tuple, result: Any) -> None:
    probe.counts["clusters.label.vertices"] += int(result.root_of.size)


def _on_census(probe: "Probe", args: tuple, result: Any) -> None:
    """pair_ops: vertex pairs XORed, sum of |C|^2 over components of 2+ vertices."""
    sizes = args[0].sizes_desc
    sizes = sizes[sizes >= 2].astype(np.int64)
    probe.counts["stats.census.pair_ops"] += int((sizes * sizes).sum())
    if sizes.size:
        big = int(sizes[0])
        block = min(CENSUS_BLOCK_ROWS, big) * big * np.dtype(np.int64).itemsize
        probe.counts["stats.census.block_bytes_max"] = max(
            probe.counts["stats.census.block_bytes_max"], block)


def _on_solve(probe: "Probe", args: tuple, result: Any) -> None:
    probe.counts["critical.bisections"] += len(result.trace)
    probe.counts["critical.replicates"] += int(result.replicates_used)
    wasted = [t.replicates for t in result.trace if not t.resolved]
    probe.counts["critical.unresolved_midpoints"] += len(wasted)
    probe.counts["critical.wasted_replicates"] += sum(wasted)


def _on_write(probe: "Probe", args: tuple, result: Any) -> None:
    probe.counts["reports.io.bytes"] += os.path.getsize(args[0])


HOOKS: dict[str, Callable[["Probe", tuple, Any], None]] = {
    "gen.sample": _on_sample,
    "clusters.label": _on_label,
    "stats.census": _on_census,
    "critical": _on_solve,
    "reports.io": _on_write,
}

# counts that depend only on the program's inputs, so they repeat exactly
EXACT_COUNTS = (
    "gen.sample.calls", "gen.union.calls", "clusters.label.calls",
    "clusters.reduce.calls", "stats.chi.calls", "stats.census.calls",
    "stats.triangle.calls", "stats.census.pair_ops", "stats.census.block_bytes_max",
    "critical.bisections", "critical.replicates", "critical.unresolved_midpoints",
)


class Probe:
    """Counts calls per layer and, with `timing`, accumulates span self times."""

    def __init__(self) -> None:
        self.timing = False
        self._patched: list[tuple[Any, str, Any]] = []
        self._open: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        hook = HOOKS.get(layer)
        calls = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.timing:
                result = fn(*args, **kwargs)
            else:
                self._open.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = time.perf_counter() - t0
                    inner = self._open.pop()
                    if self._open:
                        self._open[-1] += span
                    self.self_s[layer] += span - inner
            self.counts[calls] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self, package: Any) -> None:
        """Patch every binding of every layer entry point in the package's modules."""
        modules = [getattr(package, name) for name in MODULES]
        for layer, names in LAYERS.items():
            for name in names:
                wrappers: dict[int, Callable] = {}
                for module in modules:
                    fn = getattr(module, name, None)
                    if fn is None:
                        continue
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(layer, fn)
                    self._patched.append((module, name, fn))
                    setattr(module, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()
