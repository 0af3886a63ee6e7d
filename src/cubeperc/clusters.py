"""Connected-component labeling of bond configurations and the component census.

Labeling is the hook-and-jump method of Shiloach and Vishkin (J. Algorithms
3 (1982) 57-67), vectorized over all occupied edges at once.  Each round
drops the edges whose endpoints already share a root, hooks the larger root
of every remaining edge onto the smallest root it meets, and then jumps
pointers until the endpoints of those edges point at roots; only the first
round and a last pass jump every vertex.  A parent never exceeds its
vertex, so each component ends up represented by its smallest vertex, the
same canonical label whatever order the edges come in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import CubeDim
from .gen import OccupiedGraph

__all__ = [
    "ClusterLabeling",
    "label_components",
    "cluster_size_of",
    "count_z_geq",
    "top_two",
]


@dataclass(frozen=True)
class ClusterLabeling:
    """Component partition of one graph.

    root_of maps every vertex to its representative, the smallest vertex of
    its component; size_by_root gives the component size at each
    representative index; sizes_desc is the multiset of component sizes,
    largest first.
    """

    dim: CubeDim
    root_of: np.ndarray
    size_by_root: np.ndarray
    sizes_desc: np.ndarray

    def __post_init__(self) -> None:
        self.root_of.setflags(write=False)
        self.size_by_root.setflags(write=False)
        self.sizes_desc.setflags(write=False)


def _jump_all(parent: np.ndarray) -> np.ndarray:
    """Jump every vertex to its root; take writes into two ping-pong buffers."""
    buf = np.empty_like(parent)
    # mode="clip": with out= and the default mode="raise", take buffers a copy
    while not np.array_equal(np.take(parent, parent, out=buf, mode="clip"), parent):
        parent, buf = buf, parent
    return buf


def label_components(graph: OccupiedGraph, start: ClusterLabeling | None = None) -> ClusterLabeling:
    """Hook-and-jump labeling over all occupied edges of one configuration.

    `start`, the labeling of a subgraph of `graph`, stands in for the first
    round: its roots are the initial parents.  The result is the same.
    """
    if start is not None and start.dim != graph.dim:
        raise ValueError("start labeling is for a different dimension")
    shift = graph.dim.n - 1
    # flat edge id -> direction d = id >> (n-1) and plane index i; the lower
    # endpoint inserts a zero bit at d into i: lo = i + (i & -(1 << d))
    lo = np.flatnonzero(graph.planes)
    hi = lo >> shift
    np.left_shift(1, hi, out=hi)
    lo &= (1 << shift) - 1
    lo += lo & -hi
    hi += lo
    if start is None:
        parent = np.arange(graph.dim.volume)
        np.minimum.at(parent, hi, lo)
        parent = _jump_all(parent)
    else:
        parent = start.root_of.astype(np.intp)
    while True:
        # every endpoint in lo and hi points at its root here
        a, b = parent[lo], parent[hi]
        live = np.flatnonzero(a != b)  # indexing by a boolean mask compresses slower
        if not live.size:
            break
        a, b = a[live], b[live]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        np.minimum.at(parent, hi, lo)
        # a hooked root points at another live endpoint, so pointer doubling
        # over the live endpoints alone takes each of them to its root
        s = np.concatenate((lo, hi))
        ps = parent[s]
        while not np.array_equal(pps := parent[ps], ps):
            parent[s] = ps = pps
    # a vertex off the live edges can sit a few hooks below its root
    root_of = _jump_all(parent).astype(np.int32)
    size_by_root = np.bincount(root_of, minlength=graph.dim.volume)
    by_size = np.bincount(size_by_root)  # entry 0 counts the non-root vertices
    sizes_desc = np.repeat(np.arange(by_size.size)[:0:-1], by_size[:0:-1])
    return ClusterLabeling(graph.dim, root_of, size_by_root, sizes_desc)


def cluster_size_of(labeling: ClusterLabeling, vertex: int) -> int:
    """Size of the component containing `vertex`."""
    return int(labeling.size_by_root[labeling.root_of[vertex]])


def count_z_geq(labeling: ClusterLabeling, k: int) -> int:
    """Number of vertices whose component has at least k members."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    sizes = labeling.sizes_desc
    return int(sizes[sizes >= k].sum())


def top_two(labeling: ClusterLabeling) -> tuple[int, int]:
    """Sizes of the largest and second-largest components (0 when absent)."""
    sizes = labeling.sizes_desc
    second = int(sizes[1]) if sizes.shape[0] > 1 else 0
    return int(sizes[0]), second
