"""Reproducible Bernoulli bond configurations on the hypercube.

Every edge gets its uniform from a counter-based hash of
(master_seed, replicate_index, edge id), not from a sequential stream.
Samples are therefore bit-identical regardless of evaluation order, any
single edge can be re-derived in O(1), and thresholding one shared uniform
vector at several densities yields monotone-coupled graphs for free:
`sample_layers` splits one pass of the hash into the edges each density of
an ascending ladder adds to the one below it.

Edges are kept canonical: the edge along direction i at vertex v (bit i of
v clear) lives at plane index v-with-bit-i-removed, so plane i is a bit
vector of length 2^(n-1) and the flat edge id is i * 2^(n-1) + plane index.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .cube import CubeDim

__all__ = [
    "SeedSpec",
    "OccupiedGraph",
    "sample_layers",
    "sample_subgraph",
    "sprinkle_split",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_REPLICATE_SALT = 0xD2B74407B1CE6E93
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# edges hashed per block: two uint64 buffers of 256 KiB stay in L2
_BLOCK = 1 << 15
_BLOCK_STRIDES = np.arange(_BLOCK, dtype=np.uint64)
_BLOCK_STRIDES *= np.uint64(_GOLDEN)  # in place: no second 256 KiB array at import
_BLOCK_STRIDES.setflags(write=False)
# allocated once: per-sample buffers went back to the OS and faulted in again
_HASH_BUFFERS = np.empty((2, _BLOCK), dtype=np.uint64)


def _mix64_scalar(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one replicate's random stream."""

    master_seed: int
    replicate_index: int = 0

    def stream_key(self) -> int:
        k = _mix64_scalar(self.master_seed ^ _GOLDEN)
        return _mix64_scalar(k ^ ((self.replicate_index * _REPLICATE_SALT) & _MASK64))


def _mix(x: np.ndarray, y: np.ndarray) -> None:
    """SplitMix64 finalizer on the uint64 array x in place; y is scratch of its shape."""
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, np.uint64(shift), out=y)
        x ^= y
        x *= np.uint64(mul)
    np.right_shift(x, np.uint64(31), out=y)
    x ^= y


def _threshold(p: float) -> np.uint64 | None:
    """The bound an edge's hash h must stay below to be occupied at density p.

    u < p for u = (h >> 11) * 2^-53 is h < ceil(p * 2^53) << 11, tested on
    the integer hash; at p = 1 that shift overflows and every edge is kept
    (None).
    """
    return np.uint64(math.ceil(p * 2.0**53) << 11) if p < 1.0 else None


def _edge_hashes(dim: CubeDim, seed: SeedSpec):
    """Yield (lo, hi, h): h holds the 64-bit hashes of flat edge ids lo..hi-1.

    Blocks of _BLOCK edges are mixed in place in _HASH_BUFFERS (SplitMix64 of id
    * golden + stream key, wrapping): consume h before the next block or call.
    """
    key = seed.stream_key()
    total = dim.edge_count
    h, t = _HASH_BUFFERS
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        x, y = h[:hi - lo], t[:hi - lo]
        np.add(_BLOCK_STRIDES[:hi - lo], np.uint64((lo * _GOLDEN + key) & _MASK64), out=x)
        _mix(x, y)
        yield lo, hi, x


def split_edges(ids: np.ndarray, p: float, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split the flat edge ids `ids` into those occupied at density p and the rest.

    Only these ids are hashed, by the mixing `_edge_hashes` applies to whole
    blocks, so an id lands where sample_subgraph(dim, p, seed) puts it.  Each
    part keeps the order and dtype of ids.
    """
    t = _threshold(p)
    if t is None:
        return ids, ids[:0]
    x = ids.astype(np.uint64)
    x *= np.uint64(_GOLDEN)
    x += np.uint64(seed.stream_key())
    _mix(x, np.empty_like(x))
    occupied = x < t
    return ids[occupied], ids[~occupied]


@dataclass(frozen=True)
class OccupiedGraph:
    """One bond configuration: a boolean occupancy plane per direction."""

    dim: CubeDim
    planes: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.dim.n, 1 << (self.dim.n - 1))
        if self.planes.shape != expected or self.planes.dtype != bool:
            raise ValueError(f"occupancy must be boolean with shape {expected}")
        self.planes.setflags(write=False)


def sample_layers(dim: CubeDim, ps: Sequence[float], seed: SeedSpec) -> Iterator[OccupiedGraph]:
    """Yield, for ascending densities ps, the edges each one adds to the one before.

    One pass of the hash kernel serves every density: each block is compared
    against every threshold and the results are summed into a level per
    edge, the number of the densities that occupy it, in the smallest
    unsigned type that holds len(ps).  Layer k holds the edges of level
    len(ps) - k, so layers 0..k together are sample_subgraph(dim, ps[k], seed)
    bit for bit, and a repeated density adds an empty layer.  A single
    density is compared straight into its bool occupancy, with no level pass.
    """
    if not ps:
        raise ValueError("at least one density required")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
    if any(a > b for a, b in zip(ps, ps[1:])):
        raise ValueError("densities must be ascending")
    count = len(ps)
    thresholds = [t for t in map(_threshold, ps) if t is not None]
    dtype = bool if count == 1 else np.min_scalar_type(count)
    if not thresholds:
        levels = np.full(dim.edge_count, count, dtype=dtype)
    else:
        levels = np.empty(dim.edge_count, dtype=dtype)
        for lo, hi, h in _edge_hashes(dim, seed):
            block = levels[lo:hi]
            np.less(h, thresholds[0], out=block)
            for t in thresholds[1:]:
                block += h < t
        del block  # a view: it would keep the levels alive past the top layer
        if len(thresholds) < count:
            levels += count - len(thresholds)
    for k in range(count - 1):
        yield OccupiedGraph(dim, (levels == count - k).reshape(dim.n, -1))
    # the top layer is handed over whole: the suspended generator keeps no
    # array alive, so the caller can free the layer as soon as it is labeled
    top = [levels if count == 1 else levels == 1]
    del levels
    yield OccupiedGraph(dim, top.pop().reshape(dim.n, -1))


def sample_subgraph(dim: CubeDim, p: float, seed: SeedSpec) -> OccupiedGraph:
    """Sample each canonical edge independently with probability p.

    An edge's uniform depends only on the seed and its id, so samples of one
    SeedSpec are nested in p: a cluster at p lies inside its cluster at any
    larger p.
    """
    (graph,) = sample_layers(dim, (p,), seed)
    return graph


def sprinkle_split(n: int, p: float, eps: float) -> float:
    """Base density p_minus whose union with an eps/(2n) layer has density p.

    Solves p_minus + q - q*p_minus = p for q = eps/(2n), i.e. the two-layer
    decomposition of a density-p configuration into independent base and
    sprinkling layers.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    q = eps / (2.0 * n)
    if q >= 1.0:
        raise ValueError("sprinkling layer density must be below 1")
    if p < q:
        raise ValueError(f"cannot split: p={p} is below the sprinkling density {q}")
    if p > 1.0:
        raise ValueError("p must lie in [0, 1]")
    # exactly p_minus <= p; as p nears 1 the rounded quotient can exceed it
    return min((p - q) / (1.0 - q), p)

