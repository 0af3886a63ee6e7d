import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc.clusters import (
    cluster_size_of,
    count_z_geq,
    label_components,
    top_two,
)
from cubeperc.critical import pc_expansion_reference
from cubeperc.cube import CubeDim
from cubeperc.gen import OccupiedGraph, SeedSpec, sample_subgraph, union_graphs

from _reference import bfs_component_sizes, edge_endpoints, gray_path, path_graph


def _graph_from_planes(dim, plane_bits):
    planes = np.array(plane_bits, dtype=bool)
    return OccupiedGraph(dim, planes, 0.0, None)


def test_label_extremes():
    dim = CubeDim(6)
    empty = label_components(sample_subgraph(dim, 0.0, SeedSpec(0)))
    assert empty.sizes_desc.tolist() == [1] * 64
    full = label_components(sample_subgraph(dim, 1.0, SeedSpec(0)))
    assert full.sizes_desc.tolist() == [64]
    assert top_two(full) == (64, 0)
    assert top_two(empty) == (1, 1)


def test_hand_built_two_components():
    # n=2 with edges 00-01 and 10-11 only: direction-0 plane fully occupied
    dim = CubeDim(2)
    lab = label_components(_graph_from_planes(dim, [[True, True], [False, False]]))
    assert lab.sizes_desc.tolist() == [2, 2]
    assert top_two(lab) == (2, 2)
    assert cluster_size_of(lab, 0) == 2
    assert lab.root_of[0] == lab.root_of[1]
    assert lab.root_of[2] == lab.root_of[3]
    assert lab.root_of[0] != lab.root_of[2]


def test_sizes_partition_volume():
    dim = CubeDim(8)
    for rep in range(5):
        lab = label_components(sample_subgraph(dim, 0.2, SeedSpec(11, rep)))
        assert lab.sizes_desc.sum() == dim.volume
        assert (np.sort(lab.sizes_desc)[::-1] == lab.sizes_desc).all()


def test_adjacent_occupied_share_representative():
    dim = CubeDim(7)
    g = sample_subgraph(dim, 0.3, SeedSpec(21, 0))
    lab = label_components(g)
    for d in range(dim.n):
        us, vs = edge_endpoints(g, d)
        assert (lab.root_of[us] == lab.root_of[vs]).all()


@given(n=st.integers(2, 10), p=st.floats(0.0, 1.0), rep=st.integers(0, 1000))
@settings(deadline=None, max_examples=60)
def test_agrees_with_bfs_reference(n, p, rep):
    dim = CubeDim(n)
    g = sample_subgraph(dim, p, SeedSpec(314, rep))
    lab = label_components(g)
    ref_label, ref_sizes = bfs_component_sizes(g)
    assert lab.sizes_desc.tolist() == ref_sizes.tolist()
    # both label every vertex by the smallest vertex of its component
    assert np.array_equal(lab.root_of, ref_label)


def _descending_path(n):
    # 2^n - 1 down to 0, clearing the highest set bit at each step
    return [(1 << k) - 1 for k in range(n, -1, -1)]


@pytest.mark.parametrize("case", ["empty", "full", "gray", "descending"])
def test_fixed_cases_agree_with_bfs_reference(case):
    dim = CubeDim(10)
    if case in ("empty", "full"):
        g = sample_subgraph(dim, 0.0 if case == "empty" else 1.0, SeedSpec(0))
    else:
        g = path_graph(dim, gray_path(10) if case == "gray" else _descending_path(10))
    lab = label_components(g)
    ref_label, ref_sizes = bfs_component_sizes(g)
    assert np.array_equal(lab.root_of, ref_label)
    assert lab.sizes_desc.tolist() == ref_sizes.tolist()
    assert int(lab.size_by_root.sum()) == dim.volume


@given(n=st.integers(1, 10), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       rep=st.integers(0, 1000))
@settings(deadline=None, max_examples=60)
def test_warm_start_matches_cold_and_bfs_reference(n, p, q, rep):
    dim = CubeDim(n)
    base = sample_subgraph(dim, p, SeedSpec(271, rep))
    union = union_graphs(base, sample_subgraph(dim, q, SeedSpec(828, rep)))
    warm = label_components(union, start=label_components(base))
    cold = label_components(union)
    ref_label, ref_sizes = bfs_component_sizes(union)
    for lab in (warm, cold):
        assert np.array_equal(lab.root_of, ref_label)
        assert lab.sizes_desc.tolist() == ref_sizes.tolist()
        assert (lab.root_of.dtype, lab.size_by_root.dtype, lab.sizes_desc.dtype) == \
            (np.int32, np.int64, np.int64)
    assert np.array_equal(warm.size_by_root, cold.size_by_root)


def test_warm_start_of_another_dimension_is_rejected():
    start = label_components(sample_subgraph(CubeDim(5), 0.3, SeedSpec(1)))
    with pytest.raises(ValueError):
        label_components(sample_subgraph(CubeDim(6), 0.3, SeedSpec(1)), start=start)


@pytest.mark.parametrize("n", [13, 16])
@pytest.mark.parametrize("mirrored", [False, True])
def test_hamiltonian_path_is_one_component(n, mirrored):
    # reversing the vertex list of a path leaves its edges as they are, so the
    # second case walks the mirror image x -> x ^ (2^n - 1), from the top corner down
    path = gray_path(n)
    if mirrored:
        path = [x ^ ((1 << n) - 1) for x in path]
    lab = label_components(path_graph(CubeDim(n), path))
    assert not lab.root_of.any()
    assert lab.sizes_desc.tolist() == [1 << n]
    assert int(lab.size_by_root[0]) == 1 << n


@pytest.mark.parametrize("eps", [0.0, 0.45, 1.3])
def test_label_memory_is_bounded_per_vertex(eps):
    n = 16
    dim = CubeDim(n)
    g = sample_subgraph(dim, pc_expansion_reference(n) + eps / n, SeedSpec(2026, 0))
    expected = label_components(g)
    tracemalloc.start()
    try:
        lab = label_components(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(lab.root_of, expected.root_of)
    assert peak <= 80 * dim.volume, f"peak {peak / dim.volume:.1f} B per vertex"


def test_double_counting_identity():
    # sum of squared sizes equals the sum over vertices of their cluster size
    dim = CubeDim(6)
    for rep in range(4):
        lab = label_components(sample_subgraph(dim, 0.25, SeedSpec(77, rep)))
        ssq = int((lab.sizes_desc**2).sum())
        by_vertex = sum(cluster_size_of(lab, v) for v in range(dim.volume))
        assert ssq == by_vertex


def test_count_z_geq_properties():
    dim = CubeDim(5)
    lab = label_components(sample_subgraph(dim, 0.3, SeedSpec(8)))
    assert count_z_geq(lab, 0) == 32
    assert count_z_geq(lab, 1) == 32
    assert count_z_geq(lab, int(lab.sizes_desc[0]) + 1) == 0
    values = [count_z_geq(lab, k) for k in range(34)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        count_z_geq(lab, -1)
    singletons = label_components(sample_subgraph(dim, 0.0, SeedSpec(8)))
    assert count_z_geq(singletons, 2) == 0


@given(rep=st.integers(0, 500))
@settings(deadline=None, max_examples=40)
def test_monotone_coupling_of_observables(rep):
    dim = CubeDim(8)
    graphs = [sample_subgraph(dim, p, SeedSpec(99, rep)) for p in (0.1, 0.2, 0.4)]
    labs = [label_components(g) for g in graphs]
    cmaxes = [top_two(lab)[0] for lab in labs]
    assert cmaxes == sorted(cmaxes)
    for k in (2, 4, 16, 64):
        zs = [count_z_geq(lab, k) for lab in labs]
        assert zs == sorted(zs)
    # coupled clusters are nested vertex-wise
    for small, big in zip(labs, labs[1:]):
        for v in (0, 17, 255):
            assert cluster_size_of(small, v) <= cluster_size_of(big, v)
