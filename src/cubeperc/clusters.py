"""Connected-component labeling of bond configurations and the component census.

Labeling is the hook-and-jump method of Shiloach and Vishkin (J. Algorithms
3 (1982) 57-67), vectorized over all occupied edges at once.  Each round
drops the edges whose endpoints already share a root, hooks the larger root
of every remaining edge onto the smallest root it meets, and then jumps
pointers until every vertex points at a root.  A parent never exceeds its
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


def label_components(graph: OccupiedGraph) -> ClusterLabeling:
    """Hook-and-jump labeling over all occupied edges of one configuration."""
    v_count = graph.dim.volume
    ends = [graph.edge_endpoints(d) for d in range(graph.dim.n)]
    u = np.concatenate([e[0] for e in ends])
    v = np.concatenate([e[1] for e in ends])
    parent = np.arange(v_count)
    while u.size:
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        # each edge now joins two roots; drop those already in one tree
        u, v = parent[u], parent[v]
        live = u != v
        u, v = u[live], v[live]
    root_of = parent.astype(np.int32)
    size_by_root = np.bincount(root_of, minlength=v_count).astype(np.int64)
    sizes = size_by_root[size_by_root > 0]
    sizes_desc = np.sort(sizes)[::-1].copy()
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
