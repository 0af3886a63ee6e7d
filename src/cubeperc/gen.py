"""Reproducible Bernoulli bond configurations on the hypercube.

Every edge gets its uniform from a counter-based hash of
(master_seed, replicate_index, edge id), not from a sequential stream.
Samples are therefore bit-identical regardless of evaluation order, any
single edge can be re-derived in O(1), and thresholding one shared uniform
vector at several densities yields monotone-coupled graphs for free.

Edges are kept canonical: the edge along direction i at vertex v (bit i of
v clear) lives at plane index v-with-bit-i-removed, so plane i is a bit
vector of length 2^(n-1) and the flat edge id is i * 2^(n-1) + plane index.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .cube import CubeDim

__all__ = [
    "SeedSpec",
    "EdgeId",
    "OccupiedGraph",
    "sample_subgraph",
    "union_graphs",
    "sprinkle_split",
    "save_occupancy",
    "load_occupancy",
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


@dataclass(frozen=True)
class EdgeId:
    """Canonical undirected edge: bit `direction` of `vertex` must be clear."""

    vertex: int
    direction: int

    def __post_init__(self) -> None:
        if self.direction < 0:
            raise ValueError("direction must be nonnegative")
        if (self.vertex >> self.direction) & 1:
            raise ValueError("canonical edge requires bit `direction` of `vertex` to be 0")

    def other_endpoint(self) -> int:
        return self.vertex | (1 << self.direction)

    def flat_index(self, dim: CubeDim) -> int:
        d = self.direction
        plane_idx = ((self.vertex >> (d + 1)) << d) | (self.vertex & ((1 << d) - 1))
        return d * (1 << (dim.n - 1)) + plane_idx


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
        for shift, mul in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(x, np.uint64(shift), out=y)
            x ^= y
            x *= np.uint64(mul)
        np.right_shift(x, np.uint64(31), out=y)
        x ^= y
        yield lo, hi, x


@dataclass(frozen=True)
class OccupiedGraph:
    """One bond configuration: a boolean occupancy plane per direction.

    `p` records the density the graph was sampled at; it is metadata only
    and no operation branches on it.
    """

    dim: CubeDim
    planes: np.ndarray
    p: float
    seed: SeedSpec | None = None

    def __post_init__(self) -> None:
        expected = (self.dim.n, 1 << (self.dim.n - 1))
        if self.planes.shape != expected or self.planes.dtype != bool:
            raise ValueError(f"occupancy must be boolean with shape {expected}")
        self.planes.setflags(write=False)

    def occupied_count(self) -> int:
        return int(self.planes.sum())


def sample_subgraph(dim: CubeDim, p: float, seed: SeedSpec) -> OccupiedGraph:
    """Sample each canonical edge independently with probability p.

    An edge's uniform depends only on the seed and its id, so samples of one
    SeedSpec are nested in p: a cluster at p lies inside its cluster at any
    larger p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    planes = np.ones(dim.edge_count, dtype=bool)
    if p < 1.0:
        # u < p for u = (h >> 11) * 2^-53 is h < ceil(p * 2^53) << 11, tested on
        # the integer hash; at p = 1 that shift overflows and every edge is kept
        threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
        for lo, hi, h in _edge_hashes(dim, seed):
            np.less(h, threshold, out=planes[lo:hi])
    return OccupiedGraph(dim, planes.reshape(dim.n, -1), p, seed)


def union_graphs(a: OccupiedGraph, b: OccupiedGraph) -> OccupiedGraph:
    """Edgewise union; metadata density composes as p_a + p_b - p_a*p_b."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return OccupiedGraph(a.dim, a.planes | b.planes, a.p + b.p - a.p * b.p, None)


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
    return (p - q) / (1.0 - q)


_MAGIC = b"QOCC"
_HEADER = struct.Struct("<4sIIdQQ")
_FORMAT_VERSION = 1


def save_occupancy(graph: OccupiedGraph, path) -> None:
    """Raw occupancy dump: little-endian header, then one packed plane per direction."""
    seed = graph.seed or SeedSpec(0, 0)
    header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, graph.dim.n, graph.p,
                          seed.master_seed & _MASK64, seed.replicate_index & _MASK64)
    with open(path, "wb") as fh:
        fh.write(header)
        for d in range(graph.dim.n):
            fh.write(np.packbits(graph.planes[d], bitorder="little").tobytes())


def load_occupancy(path) -> OccupiedGraph:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ValueError(f"truncated occupancy dump: header needs {_HEADER.size} bytes, "
                         f"got {len(data)}")
    magic, version, n, p, master_seed, replicate_index = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not an occupancy dump")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    dim = CubeDim(n)
    half = 1 << (n - 1)
    plane_bytes = (half + 7) // 8
    size = _HEADER.size + n * plane_bytes
    if len(data) < size:
        raise ValueError(f"truncated occupancy dump: n = {n} needs {size} bytes, got {len(data)}")
    raw = np.frombuffer(data, dtype=np.uint8, count=n * plane_bytes, offset=_HEADER.size)
    planes = np.unpackbits(raw.reshape(n, plane_bytes), axis=1, bitorder="little")[:, :half]
    return OccupiedGraph(dim, planes.astype(bool), p, SeedSpec(master_seed, replicate_index))
