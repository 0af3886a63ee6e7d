"""Randomized property suites for the geometry inequalities.

Each suite samples random instances, checks an exact inequality, and
reports a violation count (which should always be zero: these are theorems,
so a nonzero count means the implementation is broken).  Every suite yields
one outcome per instance, None or the failure text, and `_tally` counts them.
`_random_subsets` draws vertex sets as the rows of a boolean matrix.  The
Harper suite draws a dimension's (u, d) pairs first, then grows the sets of each
distinct pair in stacks of at most 2^22 mask entries, one `hamming_ball` call
per stack.  The overlap and path suites vary their sizes, so draw per instance.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .cube import (
    MAX_DIMENSION,
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


_BATCH_ENTRIES = 1 << 22  # mask entries per Harper stack: one row at n = 22


def _random_subsets(rng: np.random.Generator, dim: CubeDim, count: int, size: int) -> np.ndarray:
    """`count` uniform random `size`-vertex sets, the rows of a (count, 2^n) mask:
    each row keeps the vertices holding its `size` smallest uniform keys."""
    smallest = np.argpartition(rng.random((count, dim.volume)), size - 1, axis=1)[:, :size]
    masks = np.zeros((count, dim.volume), dtype=bool)
    np.put_along_axis(masks, smallest, True, axis=1)
    return masks


def _tally(name: str, outcomes: Iterable[str | None]) -> SuiteResult:
    results = list(outcomes)
    failures = [failure for failure in results if failure is not None]
    return SuiteResult(name, len(results), len(failures), failures[0] if failures else "")


def run_harper_suite(n_max: int = 12, instances_per_n: int = 10_000, seed: int = 0) -> SuiteResult:
    """Ball-growth isoperimetry: sets at least as big as a radius-u ball grow,
    under a radius-d expansion, to at least the volume of a radius-(u+d) ball."""
    def outcomes() -> Iterator[str | None]:
        for n in range(1, n_max + 1):
            dim = CubeDim(n)
            rng = np.random.default_rng(seed + n)
            rows = _BATCH_ENTRIES >> n
            pairs, counts = np.unique(rng.integers(0, n + 1, size=(2, instances_per_n)),
                                      axis=1, return_counts=True)
            for (u, d), count in zip(pairs.T.tolist(), counts.tolist()):
                size, bound = ball_volume_exact(dim, u), ball_volume_exact(dim, u + d)
                for start in range(0, count, rows):
                    x = _random_subsets(rng, dim, min(count - start, rows), size)
                    for grown in hamming_ball(dim, x, d).sum(axis=1).tolist():
                        yield f"n={n} u={u} d={d} |X|={size} |B|={grown}" if grown < bound else None
    return _tally("harper-ball-growth", outcomes())


def run_tail_suite(n_max: int = MAX_DIMENSION) -> SuiteResult:
    """Binomial tail symmetry and its large-deviation bound, exact for every
    integer offset up to each dimension."""
    def outcomes() -> Iterator[str | None]:
        for n in range(1, n_max + 1):
            dim = CubeDim(n)
            for delta in range(0, n + 1):
                lower = sum(math.comb(n, i) for i in range((n - delta) // 2 + 1))
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
                s, t = _random_subsets(rng, dim, 2, size)
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
                s = _random_subsets(rng, dim, 1, size_s)[0]
                t = _random_subsets(rng, dim, 1, size_t)[0]
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
    if delta >= min_overlap_delta(dim, eps):
        guaranteed = 0.5 * eps * dim.volume * float(dim.n) ** (-2 * delta)
        if len(paths) < guaranteed:
            return f"count {len(paths)} below guarantee {guaranteed:.3f}"
    return None
