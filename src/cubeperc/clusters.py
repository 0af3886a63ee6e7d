"""Connected-component labeling of bond configurations and the component census.

Labeling is the hook-and-jump method of Shiloach and Vishkin (J. Algorithms 3
(1982) 57-67), vectorized over all occupied edges at once.  Each round maps
every live pair of edge endpoints to their parents, drops the pairs that agree,
hooks the larger parent of each other pair onto the smallest one paired with
it, and jumps each hooked vertex once, p[v] <- p[p[v]].  Before the rounds, a
dense batch (an edge per eight vertices or more) is hooked whole and every
vertex jumped to its root, which leaves the rounds few live pairs; a join's
edges are first mapped to pairs of start roots.  Parents never exceed their
vertex, and each component is labeled by its smallest vertex.  The jumps save
rounds, not correctness.  After a first round that reads every endpoint's
parent as a root (so a start must be resolved), each entry v of a live pair has
p[v] among the entries and a path of live pairs to it; a round keeps this, as
each new entry is p[c] for an old entry c, and mapping the path from c to p[c]
onto parents gives one from p[c] to p[p[c]].  A hook points x at a vertex
paired with x and a jump points v at p[p[v]], so no link is cut that the pairs
do not hold, and once no pair is live every tree is a component.
When the rounds begin, every vertex points at a root (itself, its start root,
or its root after the dense batch's jumps); call these roots R.  The first
entries lie in R, and a round writes only at entries, and only entries or
parents of parents of entries, so every entry, and every parent of a vertex of
R, stays in R.  A vertex no round wrote thus points at a vertex of R that is a
final root or written, and jumping the written vertices to their roots, then
p[v] <- p[p[v]] over all v, ends the labeling whatever the rounds did.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cube import CubeDim
from .gen import OccupiedGraph

__all__ = ["ClusterLabeling", "label_components", "count_z_geq", "top_two"]


@dataclass(frozen=True)
class ClusterLabeling:
    """Component partition of one graph.

    root_of maps every vertex to its representative, the smallest vertex of
    its component; size_by_root gives the component size at each
    representative index and 0 at every other vertex; sizes_desc, built on
    first read, is the multiset of component sizes, largest first.
    """

    dim: CubeDim
    root_of: np.ndarray
    size_by_root: np.ndarray

    def __post_init__(self) -> None:
        self.root_of.setflags(write=False)
        self.size_by_root.setflags(write=False)

    @cached_property
    def sizes_desc(self) -> np.ndarray:
        by_size = np.bincount(self.size_by_root)  # entry 0 counts the non-root vertices
        sizes = np.arange(by_size.size - 1, 0, -1).repeat(by_size[:0:-1])
        sizes.setflags(write=False)
        return sizes


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


# plain `nonzero` is faster below this size: over distinct arrays near
# p = 1/n it won at n = 10 (5,120 slots) and lost at n = 11 (11,264)
_WORD_SLOTS = 1 << 13


def _edge_ids(flat: np.ndarray) -> np.ndarray:
    """Ascending indices of the set entries of the flat bool array `flat`.

    At or below 10% density numpy's bool `nonzero` branches on every entry,
    2-3 ns each when the arrays differ from call to call.  A large sparse
    array is cheaper read as uint64 words: the nonzero words (about half
    near p_c) and then their bytes (over 10% set) are found branch-free.
    Plain against words near p = 1/n: 64 against 44 us per call at n = 12,
    280 against 159 at n = 14.
    """
    if flat.size < _WORD_SLOTS or flat.size % 8 or 10 * np.count_nonzero(flat) > flat.size:
        return flat.nonzero()[0]
    words = flat.view(np.uint64)
    word = (words != 0).nonzero()[0]  # nonzero on uint64 takes a slower path than on bool
    bit = words.take(word).view(bool).nonzero()[0]
    ids = word[bit >> 3]
    ids <<= 3
    bit &= 7
    ids |= bit
    return ids


def label_components(graph: OccupiedGraph, start: np.ndarray | None = None) -> ClusterLabeling:
    """Hook-and-jump labeling of `graph`'s occupied edges, joined onto `start`.

    `start`, if given, is the root array of any partition of the cube that
    labels each block by its smallest vertex (non-negative integers with
    start[v] <= v and start[start] == start), such as one layer's `root_of`
    when the graph is the other.
    """
    if start is not None:
        if start.shape != (graph.dim.volume,):
            raise ValueError(f"start must be a root array of shape ({graph.dim.volume},)")
        if start.dtype.kind not in "iu":
            raise ValueError(f"start must hold integer roots, not {start.dtype}")
        if start.dtype.kind == "i" and (start < 0).any():
            # a negative root would index from the end in the checks below
            raise ValueError("start has a negative root")
        if (start > np.arange(graph.dim.volume, dtype=np.int32)).any():
            raise ValueError("start has a root above its vertex")
        if (start.take(start) != start).any():
            raise ValueError("start has a root that is not its own root")
    shift = graph.dim.n - 1
    # flat edge id -> direction d = id >> (n-1) and plane index i; the lower
    # endpoint inserts a zero bit at d into i: lo = i + (i & -(1 << d))
    lo = _edge_ids(graph.planes.ravel())
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
        # a sparse one goes straight to the rounds, whose jumps read only the
        # vertices they hook instead of every vertex
        np.minimum.at(parent, hi, lo)
        parent = _jump_all(parent)
    hooked = []
    while True:
        # each pair array but the hooked vertices is freed as soon as it is
        # read, so at most four live at once besides them
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
        parent[hi] = parent[parent[hi]]
        hooked.append(hi)
    del a, b, live
    if hooked:
        # each unwritten vertex points at a root or a written one; as in
        # _jump_all, equal sums mean a fixed point, and with entries below 2^n
        # the sum nears 2^63 only past 2^(63-n) of them (256 GiB at n = 28)
        moved = np.concatenate(hooked)
        del hooked
        pm = parent[moved]
        total = np.add.reduce(pm)
        while total != (total := np.add.reduce(ppm := parent[pm])):
            parent[moved] = pm = ppm
        del moved, pm, ppm
        parent = parent.take(parent)
    # bincount takes intp parents without a copy, and they are freed before the census
    size_by_root = np.bincount(parent, minlength=graph.dim.volume)
    root_of = parent.astype(np.int32)
    del parent
    return ClusterLabeling(graph.dim, root_of, size_by_root)


def count_z_geq(labeling: ClusterLabeling, k: int) -> int:
    """Number of vertices whose component has at least k members."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    sizes = labeling.size_by_root  # a non-root vertex reads 0 and adds nothing
    return int(sizes[sizes >= k].sum())


def top_two(labeling: ClusterLabeling) -> tuple[int, int]:
    """Sizes of the largest and second-largest components (0 when absent)."""
    sizes = labeling.size_by_root
    i = int(sizes.argmax())
    # a component tied for the largest sits on one side of the first; the
    # non-root vertices read 0, as does a missing second component
    second = max(sizes[:i].max(initial=0), sizes[i + 1:].max(initial=0))
    return int(sizes[i]), int(second)
