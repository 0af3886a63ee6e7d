"""Deterministic geometry and combinatorics of the n-dimensional hypercube.

Vertices are the integers 0..2^n-1.  Flipping coordinate i is XOR with
1 << i, so graph distance is the popcount of the XOR of two vertices and
no adjacency structure is ever stored.  A vertex set is a boolean mask of
shape (2^n,).  Everything in this module is exact
and pure: no randomness, no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

MAX_DIMENSION = 28

__all__ = [
    "MAX_DIMENSION",
    "CubeDim",
    "PathList",
    "hamming_distance",
    "ball_volume_exact",
    "hamming_ball",
    "tail_sum_exact",
    "large_deviation_bound",
    "min_overlap_delta",
    "disjoint_short_paths",
]


@dataclass(frozen=True)
class CubeDim:
    """Cube dimension n; the vertex count 2^n stays an exact integer."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be an integer in [1, {MAX_DIMENSION}], got {self.n!r}")

    @property
    def volume(self) -> int:
        return 1 << self.n

    @property
    def edge_count(self) -> int:
        return self.n << (self.n - 1)


def hamming_distance(u: int, v: int) -> int:
    return (u ^ v).bit_count()


@dataclass(frozen=True)
class PathList:
    """Vertex-disjoint cube paths, each of length (edge count) <= max_length."""

    dim: CubeDim
    max_length: int
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for path in self.paths:
            if len(path) - 1 > self.max_length:
                raise ValueError("path longer than the bound it was built for")
            for a, b in zip(path, path[1:]):
                if hamming_distance(a, b) != 1:
                    raise ValueError("consecutive path vertices are not adjacent")
            for v in path:
                if v in seen:
                    raise ValueError("paths share a vertex")
                seen.add(v)

    def __len__(self) -> int:
        return len(self.paths)


def ball_volume_exact(dim: CubeDim, u: int) -> int:
    """Exact number of vertices within distance u of a point: sum of C(n,i), i <= u.

    u beyond n saturates to the full volume 2^n.
    """
    if u < 0:
        raise ValueError("radius must be nonnegative")
    return sum(math.comb(dim.n, i) for i in range(min(u, dim.n) + 1))


def _flip(x: np.ndarray, i: int) -> np.ndarray:
    """x read at v ^ (1 << i) for every vertex v: the neighbours across coordinate i."""
    # reshaping to (..., 2, 2^i) and flipping the middle axis maps v -> v ^ (1 << i)
    return x.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1)


def _check_set(dim: CubeDim, x: np.ndarray) -> None:
    if not isinstance(x, np.ndarray) or x.shape != (dim.volume,) or x.dtype != bool:
        raise ValueError(f"a vertex set must be a boolean mask of shape ({dim.volume},)")


def hamming_ball(dim: CubeDim, x: np.ndarray, d: int) -> np.ndarray:
    """All vertices within distance d of the vertex set x, by breadth-first expansion."""
    _check_set(dim, x)
    if not x.any():
        raise ValueError("ball around an empty set is undefined")
    if d < 0:
        raise ValueError("radius must be nonnegative")
    reached = x.copy()
    for _ in range(min(d, dim.n)):
        if reached.all():
            break
        grown = reached.copy()  # one breadth-first shell
        for i in range(dim.n):
            grown |= _flip(reached, i)
        reached = grown
    return reached


def _ceil_half(n: int, delta: float) -> int:
    """Smallest integer >= (n + delta)/2, exact when delta is integral."""
    if float(delta).is_integer():
        return (n + int(delta) + 1) // 2
    return math.ceil((n + delta) / 2)


def tail_sum_exact(dim: CubeDim, delta: float) -> int:
    """Exact binomial tail: sum of C(n,i) over i >= (n + delta)/2."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    start = _ceil_half(dim.n, delta)
    if start > dim.n:
        return 0
    return sum(math.comb(dim.n, i) for i in range(start, dim.n + 1))


def large_deviation_bound(dim: CubeDim, delta: float) -> float:
    """Upper bound 2^n * exp(-delta^2 / 2n) on the binomial tail above."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return float(1 << dim.n) * math.exp(-(delta * delta) / (2.0 * dim.n))


def min_overlap_delta(dim: CubeDim, eps: float) -> int:
    """Smallest integer radius with exp(-delta^2 / 2n) < eps / 2.

    This is the radius at which a set of density eps, grown by delta, must
    cover at least half of any other density-eps set.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    target = eps / 2.0
    delta = 0
    while not math.exp(-(delta * delta) / (2.0 * dim.n)) < target:
        delta += 1
    return delta


def _bfs_forest(dim: CubeDim, sources: np.ndarray, max_depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous multi-source BFS up to max_depth: (dist, pred) arrays.

    Each newly reached vertex records its smallest neighbour on the previous
    level as predecessor, so the forest is deterministic.
    """
    volume = dim.volume
    pred = np.full(volume, -1, dtype=np.int64)
    dist = np.full(volume, -1, dtype=np.int64)
    dist[sources] = 0
    pred[sources] = sources
    all_v = np.arange(volume, dtype=np.int64)
    frontier = dist == 0
    for depth in range(1, max_depth + 1):
        # frontier vertices carry their own id, the rest the sentinel `volume`
        ids = np.where(frontier, all_v, volume)
        smallest = np.full(volume, volume, dtype=np.int64)
        for i in range(dim.n):
            np.minimum(smallest, _flip(ids, i), out=smallest)
        frontier = (smallest < volume) & (dist == -1)
        if not frontier.any():
            break
        dist[frontier] = depth
        pred[frontier] = smallest[frontier]
    return dist, pred


def disjoint_short_paths(dim: CubeDim, s: np.ndarray, t: np.ndarray, delta: int) -> PathList:
    """Vertex-disjoint paths of length <= delta from members of t back into s.

    Construction: restrict t to the ball of radius delta around s, thin the
    restriction to a maximal subset with pairwise distance > 2*delta (greedy
    scan in ascending vertex order), then extract one shortest path per kept
    vertex by successive breadth-first searches that mark every used vertex.
    The achieved path count is reported as-is.
    """
    _check_set(dim, s)
    _check_set(dim, t)
    if not s.any() or not t.any():
        raise ValueError("both endpoint sets must be nonempty")
    if delta < 0:
        raise ValueError("delta must be nonnegative")

    t1_mask = hamming_ball(dim, s, delta) & t
    if not t1_mask.any():
        return PathList(dim, delta, ())

    if delta == 0:
        # distinct vertices are automatically > 0 apart; every path is a single vertex
        kept = [int(v) for v in np.flatnonzero(t1_mask)]
        return PathList(dim, 0, tuple((v,) for v in kept))

    all_v = np.arange(dim.volume, dtype=np.int64)
    candidates = t1_mask.copy()
    kept = []
    while candidates.any():
        v = int(candidates.argmax())
        kept.append(v)
        candidates &= np.bitwise_count(all_v ^ v) > 2 * delta

    # One BFS forest serves every kept vertex: each path stays within delta
    # of its own head, and heads are more than 2*delta apart, so path vertex
    # sets cannot meet.  The used-set guard enforces disjointness anyway and
    # the achieved count is whatever survives it.
    dist, pred = _bfs_forest(dim, np.flatnonzero(s), delta)
    used = np.zeros(dim.volume, dtype=bool)
    paths: list[tuple[int, ...]] = []
    for v in kept:
        if dist[v] == -1:
            continue
        path = [v]
        while dist[path[-1]] != 0:
            path.append(int(pred[path[-1]]))
        if used[path].any():
            continue
        used[path] = True
        paths.append(tuple(path))
    return PathList(dim, delta, tuple(paths))
