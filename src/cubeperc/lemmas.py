"""Randomized property suites for the geometry inequalities.

Each suite samples random instances, checks an exact inequality, and
reports a violation count (which should always be zero: these are theorems,
so a nonzero count means the implementation is broken).  Every suite yields
one outcome per instance, None or the failure text, and `_tally` counts them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .cube import (
    CubeDim,
    ball_volume_exact,
    disjoint_short_paths,
    hamming_ball,
    large_deviation_bound,
    min_overlap_delta,
    tail_sum_exact,
)

__all__ = [
    "SuiteResult",
    "run_harper_suite",
    "run_tail_suite",
    "run_overlap_suite",
    "run_paths_suite",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    violations: int
    first_failure: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_subset(rng: np.random.Generator, dim: CubeDim, size: int) -> np.ndarray:
    mask = np.zeros(dim.volume, dtype=bool)
    mask[rng.choice(dim.volume, size=size, replace=False)] = True
    return mask


def _tally(name: str, outcomes: Iterable[str | None]) -> SuiteResult:
    instances = violations = 0
    first = ""
    for failure in outcomes:
        instances += 1
        if failure is not None:
            violations += 1
            first = first or failure
    return SuiteResult(name, instances, violations, first)


def run_harper_suite(n_max: int = 12, instances_per_n: int = 10_000, seed: int = 0) -> SuiteResult:
    """Ball-growth isoperimetry: sets at least as big as a radius-u ball grow,
    under a radius-d expansion, to at least the volume of a radius-(u+d) ball."""
    def outcomes() -> Iterator[str | None]:
        for n in range(1, n_max + 1):
            dim = CubeDim(n)
            rng = np.random.default_rng(seed + n)
            for _ in range(instances_per_n):
                u = int(rng.integers(0, n + 1))
                d = int(rng.integers(0, n + 1))
                x = _random_subset(rng, dim, ball_volume_exact(dim, u))
                grown = hamming_ball(dim, x, d).sum()
                yield (f"n={n} u={u} d={d} |X|={x.sum()} |B|={grown}"
                       if grown < ball_volume_exact(dim, u + d) else None)
    return _tally("harper-ball-growth", outcomes())


def run_tail_suite(n_max: int = 30, seed: int = 0) -> SuiteResult:
    """Binomial tail symmetry and its large-deviation bound, exact for every
    integer offset up to each dimension."""
    def outcomes() -> Iterator[str | None]:
        for n in range(1, n_max + 1):
            dim = CubeDim(n) if n <= 28 else None
            for delta in range(0, n + 1):
                lower = sum(math.comb(n, i) for i in range((n - delta) // 2 + 1))
                if dim is None:
                    upper = sum(math.comb(n, i) for i in range((n + delta + 1) // 2, n + 1))
                    bound = 2.0**n * math.exp(-(delta * delta) / (2.0 * n))
                else:
                    upper = tail_sum_exact(dim, delta)
                    bound = large_deviation_bound(dim, delta)
                yield (f"n={n} delta={delta} upper={upper} lower={lower} bound={bound}"
                       if upper != lower or upper > bound else None)
    return _tally("tail-symmetry-and-bound", outcomes())


def run_overlap_suite(n_max: int = 12, instances_per_n: int = 1_000, seed: int = 0) -> SuiteResult:
    """Big overlap: two density-eps sets, one grown by the minimal radius,
    must overlap in at least half of the other."""
    def outcomes() -> Iterator[str | None]:
        for n in range(1, n_max + 1):
            dim = CubeDim(n)
            rng = np.random.default_rng(seed + 1009 * n)
            for _ in range(instances_per_n):
                eps = float(rng.uniform(0.05, 1.0))
                size = math.ceil(eps * dim.volume)
                s = _random_subset(rng, dim, size)
                t = _random_subset(rng, dim, size)
                delta = min_overlap_delta(dim, eps)
                overlap = int((hamming_ball(dim, s, delta) & t).sum())
                yield (f"n={n} eps={eps:.4f} delta={delta} overlap={overlap} |T|={size}"
                       if 2 * overlap < size else None)
    return _tally("big-overlap", outcomes())


def run_paths_suite(n_max: int = 10, instances_per_n: int = 100, seed: int = 0) -> SuiteResult:
    """Disjoint short paths: endpoints in the right sets, and the guaranteed
    count (eps 2^n / 2) * n^(-2 delta) whenever the density precondition holds.
    Length, adjacency and disjointness are checked by the PathList constructor,
    whose ValueError counts as a violation."""
    def outcomes() -> Iterator[str | None]:
        for n in range(2, n_max + 1):
            dim = CubeDim(n)
            rng = np.random.default_rng(seed + 2003 * n)
            for _ in range(instances_per_n):
                size_s = int(rng.integers(1, dim.volume + 1))
                size_t = int(rng.integers(1, dim.volume + 1))
                s = _random_subset(rng, dim, size_s)
                t = _random_subset(rng, dim, size_t)
                delta = int(rng.integers(0, n + 1))
                problem = _paths_problem(dim, s, t, delta, min(size_s, size_t) / dim.volume)
                yield None if problem is None else f"n={n} delta={delta}: {problem}"
    return _tally("disjoint-short-paths", outcomes())


def _paths_problem(dim: CubeDim, s: np.ndarray, t: np.ndarray, delta: int, eps: float) -> str | None:
    try:
        paths = disjoint_short_paths(dim, s, t, delta).paths
    except ValueError as exc:
        return str(exc)
    if any(not t[path[0]] or not s[path[-1]] for path in paths):
        return "path endpoints not in the required sets"
    if math.exp(-(delta * delta) / (2.0 * dim.n)) < eps / 2.0:
        guaranteed = 0.5 * eps * dim.volume * float(dim.n) ** (-2 * delta)
        if len(paths) < guaranteed:
            return f"count {len(paths)} below guarantee {guaranteed:.3f}"
    return None
