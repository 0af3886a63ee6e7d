"""Independent reference implementations used only as test oracles.

Deliberately written with different algorithms from the package: labeling
goes through explicit breadth-first search, convolution through the raw
vertex double sum, the pair census through every vertex pair of the BFS
labels, and the small-cube enumeration through the BFS labeler, which
reads the occupied edges one direction at a time.  The float uniforms are
the oracle for the sampler's integer threshold test.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from cubeperc.cube import CubeDim
from cubeperc.gen import OccupiedGraph, SeedSpec, _edge_hashes


def edge_uniforms(dim: CubeDim, seed: SeedSpec) -> np.ndarray:
    """Per-edge uniforms (h >> 11) 2^-53 in [0, 1), shape (n, 2^(n-1)), one row per direction."""
    u = np.empty(dim.edge_count, dtype=np.float64)
    for lo, hi, h in _edge_hashes(dim, seed):
        np.multiply(h >> np.uint64(11), 2.0**-53, out=u[lo:hi])
    return u.reshape(dim.n, -1)


def edge_endpoints(graph: OccupiedGraph, direction: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (u, v) of the occupied edges along one direction."""
    d = direction
    idx = np.flatnonzero(graph.planes[d])
    u = ((idx >> d) << (d + 1)) | (idx & ((1 << d) - 1))  # insert a zero bit at d
    return u, u | (1 << d)


def bfs_component_sizes(graph: OccupiedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(root_label_per_vertex, sizes_desc) via breadth-first search."""
    n = graph.dim.n
    v_count = graph.dim.volume
    adjacency: list[list[int]] = [[] for _ in range(v_count)]
    for d in range(n):
        us, vs = edge_endpoints(graph, d)
        for u, v in zip(us.tolist(), vs.tolist()):
            adjacency[u].append(v)
            adjacency[v].append(u)
    label = np.full(v_count, -1, dtype=np.int64)
    sizes = []
    for start in range(v_count):
        if label[start] != -1:
            continue
        label[start] = start
        queue = deque([start])
        size = 0
        while queue:
            v = queue.popleft()
            size += 1
            for w in adjacency[v]:
                if label[w] == -1:
                    label[w] = start
                    queue.append(w)
        sizes.append(size)
    return label, np.sort(np.array(sizes, dtype=np.int64))[::-1]


def reference_pair_census(graph: OccupiedGraph) -> np.ndarray:
    """Ordered same-component pairs by distance, from every vertex pair and BFS labels."""
    n = graph.dim.n
    label, _ = bfs_component_sizes(graph)
    vertices = np.arange(graph.dim.volume)
    counts = np.zeros(n + 1, dtype=np.int64)
    for x in range(graph.dim.volume):
        partners = vertices[label == label[x]]
        counts += np.bincount(np.bitwise_count(partners ^ x), minlength=n + 1)
    return counts


def path_graph(dim: CubeDim, vertices: list[int]) -> OccupiedGraph:
    """Graph whose occupied edges join consecutive vertices of a Q_n path."""
    planes = np.zeros((dim.n, dim.volume // 2), dtype=bool)
    for a, b in zip(vertices, vertices[1:]):
        d = (a ^ b).bit_length() - 1
        assert a ^ b == 1 << d, "consecutive path vertices must be cube neighbors"
        low = min(a, b)
        planes[d, ((low >> (d + 1)) << d) | (low & ((1 << d) - 1))] = True
    return OccupiedGraph(dim, planes, 0.0, None)


def gray_path(n: int) -> list[int]:
    """The reflected Gray code: a Hamiltonian path of Q_n."""
    return [i ^ (i >> 1) for i in range(1 << n)]


def direct_radial_convolution(n: int, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """(t1 * t2)(k) as the raw sum over all vertices w, for one x, y per k."""
    v_count = 1 << n
    out = np.zeros(n + 1)
    for k in range(n + 1):
        y = (1 << k) - 1
        out[k] = math.fsum(
            t1[bin(w).count("1")] * t2[bin(w ^ y).count("1")] for w in range(v_count)
        )
    return out


def enumerate_observables(n: int, p: float) -> tuple[float, float, np.ndarray]:
    """Exact (chi, E|Cmax|, pmf of |C(0)|) for tiny cubes by BFS over every edge subset."""
    dim = CubeDim(n)
    v_count = dim.volume
    edges = []
    for d in range(n):
        for vertex in range(v_count):
            if not vertex >> d & 1:
                edges.append((vertex, vertex | 1 << d))
    m = len(edges)
    chi_terms, cmax_terms = [], []
    pmf_terms: list[list[float]] = [[] for _ in range(v_count + 1)]
    for mask in range(1 << m):
        adjacency: list[list[int]] = [[] for _ in range(v_count)]
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                adjacency[u].append(v)
                adjacency[v].append(u)
        seen = [False] * v_count
        sizes = []
        for start in range(v_count):
            if seen[start]:
                continue
            seen[start] = True
            queue = deque([start])
            size = 0
            while queue:
                v = queue.popleft()
                size += 1
                for w in adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            sizes.append(size)
        k = mask.bit_count()
        weight = p**k * (1 - p) ** (m - k)
        chi_terms.append(weight * sum(s * s for s in sizes) / v_count)
        cmax_terms.append(weight * max(sizes))
        pmf_terms[sizes[0]].append(weight)  # BFS from vertex 0 comes first
    pmf = np.array([math.fsum(terms) for terms in pmf_terms])
    return math.fsum(chi_terms), math.fsum(cmax_terms), pmf
