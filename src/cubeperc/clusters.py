"""Connected-component labeling of bond configurations and the component census.

Labeling is the hook-and-jump method of Shiloach and Vishkin (J. Algorithms
3 (1982) 57-67), vectorized over all occupied edges at once.  Each round
maps every live pair of edge endpoints to their parents, drops the pairs
that agree, hooks the larger parent of each other pair onto the smallest one
paired with it, and doubles pointers over the hooked vertices until each
points at a root.  Before the rounds, a dense batch (an edge per eight
vertices or more) is hooked whole and every vertex jumped to its root,
which leaves the rounds few live pairs; a join's edges are first mapped to
pairs of start roots.  Parents never exceed their vertex, and each
component is labeled by its smallest vertex.  The doubling saves rounds, not correctness.
After a first round that reads every endpoint's parent as a root (so a start
must be resolved), each entry v of a live pair has p[v] among the entries
and a path of live pairs to it; a round keeps this, as each new entry is
p[c] for an old entry c, and mapping the path from c to p[c] onto parents
gives one from p[c] to p[p[c]].  A hook points x at a vertex paired with x
and a jump points v at p[p[v]], so no link is cut that the pairs do not
hold, and once no pair is live every tree is a component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import CubeDim
from .gen import OccupiedGraph

__all__ = [
    "ClusterLabeling",
    "label_components",
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
    """Jump every vertex to its root; take writes into two ping-pong buffers.

    parent[v] <= v, so a jump only lowers entries and changed nothing exactly
    when their sum, below 2^56 for n <= 28, is unchanged.
    """
    buf = np.empty_like(parent)
    total = np.add.reduce(parent)
    # mode="clip": with out= and the default mode="raise", take buffers a copy;
    # the comparison reads the old total before the walrus rebinds it
    while total != (total := np.add.reduce(parent.take(parent, out=buf, mode="clip"))):
        parent, buf = buf, parent
    return buf


def label_components(graph: OccupiedGraph, start: np.ndarray | None = None) -> ClusterLabeling:
    """Hook-and-jump labeling of `graph`'s occupied edges, joined onto `start`.

    `start`, if given, is the root array of any partition of the cube that
    labels each block by its smallest vertex (start[v] <= v,
    start[start] == start), such as one layer's `root_of` when the graph is
    the other.
    """
    if start is not None:
        if start.shape != (graph.dim.volume,):
            raise ValueError(f"start must be a root array of shape ({graph.dim.volume},)")
        if (start > np.arange(graph.dim.volume, dtype=np.int32)).any():
            raise ValueError("start has a root above its vertex")
        if (start.take(start) != start).any():
            raise ValueError("start has a root that is not its own root")
    shift = graph.dim.n - 1
    # flat edge id -> direction d = id >> (n-1) and plane index i; the lower
    # endpoint inserts a zero bit at d into i: lo = i + (i & -(1 << d))
    lo = graph.planes.ravel().nonzero()[0]
    hi = lo >> shift
    np.left_shift(1, hi, out=hi)
    lo &= (1 << shift) - 1
    lo += lo & -hi
    hi += lo
    if start is None:
        parent = np.arange(graph.dim.volume)
    else:
        # the edges as pairs of start roots, the smaller first
        parent = start.astype(np.intp)
        a = parent[lo]
        del lo
        b = parent[hi]
        del hi
        hi = np.maximum(a, b)
        lo = np.minimum(a, b, out=a)
        del a, b
    if 8 * lo.size >= graph.dim.volume:
        # a dense batch is hooked whole and every vertex jumped to its root;
        # a sparse one goes straight to the rounds, whose doubling reads only
        # the roots it hooked instead of every vertex
        np.minimum.at(parent, hi, lo)
        parent = _jump_all(parent)
    while True:
        # every endpoint in lo and hi points at its root here; each pair array
        # is freed as soon as it is read, so at most four live at once
        a = parent[lo]
        del lo
        b = parent[hi]
        del hi
        live = (a != b).nonzero()[0]  # indexing by a boolean mask compresses slower
        if not live.size:
            break
        a = a[live]
        b = b[live]
        del live
        hi = np.maximum(a, b)
        lo = np.minimum(a, b, out=a)
        del a, b
        np.minimum.at(parent, hi, lo)
        # only the roots in hi moved, each onto a smaller root that is either
        # still a root or in hi itself, so doubling over hi alone takes every
        # endpoint to its root; as in _jump_all, equal sums mean a fixed point
        ph = parent[hi]
        total = np.add.reduce(ph)
        while total != (total := np.add.reduce(pph := parent[ph])):
            parent[hi] = ph = pph
    # a vertex off the live edges can sit a few hooks below its root; bincount
    # takes intp parents without a copy, and they are freed before the census
    parent = _jump_all(parent)
    size_by_root = np.bincount(parent, minlength=graph.dim.volume)
    root_of = parent.astype(np.int32)
    del parent
    by_size = np.bincount(size_by_root)  # entry 0 counts the non-root vertices
    sizes_desc = np.arange(by_size.size - 1, 0, -1).repeat(by_size[:0:-1])
    return ClusterLabeling(graph.dim, root_of, size_by_root, sizes_desc)


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
