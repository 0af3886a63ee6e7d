"""Deterministic geometry and combinatorics of the n-dimensional hypercube.

Vertices are the integers 0..2^n-1.  Flipping coordinate i is XOR with
1 << i, so graph distance is the popcount of the XOR of two vertices and
no adjacency structure is ever stored.  Everything in this module is exact
and pure: no randomness, no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_DIMENSION = 28

__all__ = [
    "MAX_DIMENSION",
    "CubeDim",
    "VertexSet",
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


class VertexSet:
    """A set of cube vertices: O(1) membership, cached cardinality.

    Backed by a boolean mask over all 2^n vertices, so it is meant for the
    small dimensions (n <= ~16) where explicit sets fit comfortably.
    """

    __slots__ = ("dim", "_mask", "_size")

    def __init__(self, dim: CubeDim, members: Iterable[int]) -> None:
        mask = np.zeros(dim.volume, dtype=bool)
        idx = np.asarray(list(members), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= dim.volume:
                raise ValueError("vertex out of range")
            mask[idx] = True
        self.dim = dim
        self._mask = mask
        self._mask.setflags(write=False)
        self._size = int(mask.sum())

    @classmethod
    def from_mask(cls, dim: CubeDim, mask: np.ndarray) -> "VertexSet":
        if mask.shape != (dim.volume,) or mask.dtype != bool:
            raise ValueError("mask must be a boolean array over all vertices")
        obj = cls.__new__(cls)
        obj.dim = dim
        obj._mask = mask.copy()
        obj._mask.setflags(write=False)
        obj._size = int(mask.sum())
        return obj

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    def members(self) -> np.ndarray:
        """Member vertices in ascending order."""
        return np.flatnonzero(self._mask)

    def intersect(self, other: "VertexSet") -> "VertexSet":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return VertexSet.from_mask(self.dim, self._mask & other._mask)

    def __contains__(self, v: int) -> bool:
        return bool(self._mask[v])

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.dim == other.dim and bool((self._mask == other._mask).all())

    def __repr__(self) -> str:
        return f"VertexSet(n={self.dim.n}, size={self._size})"


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


def _grow_once(dim: CubeDim, reached: np.ndarray) -> np.ndarray:
    """One breadth-first shell: reached plus all neighbors of reached."""
    grown = reached.copy()
    for i in range(dim.n):
        # reshaping to (..., 2, 2^i) and flipping the middle axis maps v -> v ^ (1 << i)
        grown |= reached.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1)
    return grown


def hamming_ball(dim: CubeDim, x: VertexSet, d: int) -> VertexSet:
    """All vertices within distance d of the set x, by breadth-first expansion."""
    if x.dim != dim:
        raise ValueError("dimension mismatch")
    if len(x) == 0:
        raise ValueError("ball around an empty set is undefined")
    if d < 0:
        raise ValueError("radius must be nonnegative")
    reached = x.mask.copy()
    for _ in range(min(d, dim.n)):
        if reached.all():
            break
        reached = _grow_once(dim, reached)
    return VertexSet.from_mask(dim, reached)


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

    Frontiers are scanned in ascending vertex order and the first assignment
    wins, so every vertex records its lexicographically smallest predecessor
    and the forest is deterministic.
    """
    pred = np.full(dim.volume, -1, dtype=np.int64)
    dist = np.full(dim.volume, -1, dtype=np.int64)
    dist[sources] = 0
    pred[sources] = sources
    frontier = [int(s) for s in sources]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        nxt: list[int] = []
        for v in frontier:
            for i in range(dim.n):
                w = v ^ (1 << i)
                if dist[w] == -1:
                    dist[w] = depth
                    pred[w] = v
                    nxt.append(w)
        frontier = sorted(nxt)
    return dist, pred


def disjoint_short_paths(dim: CubeDim, s: VertexSet, t: VertexSet, delta: int) -> PathList:
    """Vertex-disjoint paths of length <= delta from members of t back into s.

    Construction: restrict t to the ball of radius delta around s, thin the
    restriction to a maximal subset with pairwise distance > 2*delta (greedy
    scan in ascending vertex order), then extract one shortest path per kept
    vertex by successive breadth-first searches that mark every used vertex.
    The achieved path count is reported as-is.
    """
    if len(s) == 0 or len(t) == 0:
        raise ValueError("both endpoint sets must be nonempty")
    if delta < 0:
        raise ValueError("delta must be nonnegative")

    t1_mask = hamming_ball(dim, s, delta).mask & t.mask
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
    dist, pred = _bfs_forest(dim, s.members(), delta)
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
