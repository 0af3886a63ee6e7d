import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc.clusters import (
    _edge_ids,
    count_z_geq,
    label_components,
    top_two,
)
from cubeperc.critical import pc_expansion_reference
from cubeperc.cube import CubeDim
from cubeperc.experiments import SPRINKLE_SALT
from cubeperc.gen import (
    OccupiedGraph,
    SeedSpec,
    sample_layers,
    sample_subgraph,
    sprinkle_split,
)
from cubeperc.stats import chi_sample, replicate_stats

from _reference import (
    bfs_component_sizes,
    edge_endpoints,
    gray_path,
    path_graph,
    union_find_join,
    union_graphs,
)


def _graph_from_planes(dim, plane_bits):
    planes = np.array(plane_bits, dtype=bool)
    return OccupiedGraph(dim, planes)


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
    assert lab.size_by_root[lab.root_of[0]] == 2
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


def test_every_q3_configuration_cold_and_joined_one_edge_at_a_time():
    # the 4,096 configurations of Q_3's 12 edges as one graph on Q_15, as
    # exact_enumerate embeds them: vertex 8 mask + x is vertex x of
    # configuration mask, and only the first 3 directions carry edges
    n, m = 3, 12
    dim = CubeDim(n + m)
    occupied = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)
    planes = np.zeros((n + m, dim.volume // 2), dtype=bool)
    planes[:n] = occupied.reshape(-1, n, 4).transpose(1, 0, 2).reshape(n, -1)
    whole = OccupiedGraph(dim, planes)
    lab = label_components(whole)
    ref_label, ref_sizes = bfs_component_sizes(whole)
    assert np.array_equal(lab.root_of, ref_label)
    assert lab.sizes_desc.tolist() == ref_sizes.tolist()
    for e in range(m):
        # edge e of every configuration: direction e // 4, slot e % 4 of each 4
        edge = np.zeros_like(planes)
        edge[e // 4, e % 4::4] = planes[e // 4, e % 4::4]
        rest = label_components(OccupiedGraph(dim, planes & ~edge))
        batch = OccupiedGraph(dim, edge)
        joined = label_components(batch, rest.root_of)
        assert np.array_equal(joined.root_of, union_find_join(rest.root_of, batch))
        assert np.array_equal(joined.root_of, lab.root_of)
        assert np.array_equal(joined.size_by_root, lab.size_by_root)


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
    warm = label_components(union, start=label_components(base).root_of)
    cold = label_components(union)
    ref_label, ref_sizes = bfs_component_sizes(union)
    for lab in (warm, cold):
        assert np.array_equal(lab.root_of, ref_label)
        assert lab.sizes_desc.tolist() == ref_sizes.tolist()
        assert (lab.root_of.dtype, lab.size_by_root.dtype, lab.sizes_desc.dtype) == \
            (np.int32, np.int64, np.int64)
    assert np.array_equal(warm.size_by_root, cold.size_by_root)


def test_three_density_ladder_joined_matches_cold_labelings_at_n20():
    # above n = 16 no reference is fast enough: each density's joined labeling
    # must be the cold labeling of the same density's sample
    n = 20
    dim, pc, seed = CubeDim(n), pc_expansion_reference(n), SeedSpec(2026, 0)
    ps = (pc - 0.45 / n, pc, pc + 0.45 / n)
    joined = None
    for p, layer in zip(ps, sample_layers(dim, ps, seed)):
        joined = label_components(layer, None if joined is None else joined.root_of)
        cold = label_components(sample_subgraph(dim, p, seed))
        assert np.array_equal(joined.root_of, cold.root_of), p
        assert np.array_equal(joined.size_by_root, cold.size_by_root), p
        del cold  # one cold labeling alive at a time


def test_warm_start_of_another_dimension_is_rejected():
    start = label_components(sample_subgraph(CubeDim(5), 0.3, SeedSpec(1))).root_of
    with pytest.raises(ValueError, match="shape"):
        label_components(sample_subgraph(CubeDim(6), 0.3, SeedSpec(1)), start=start)


def _partition(root_of):
    """A start root array with the given roots."""
    return np.asarray(root_of, dtype=np.int32)


def test_warm_start_with_a_root_above_its_vertex_is_rejected():
    # the fixed-point tests compare sums, which needs parent[v] <= v throughout
    dim = CubeDim(2)
    with pytest.raises(ValueError, match="root above its vertex"):
        label_components(sample_subgraph(dim, 0.0, SeedSpec(0)), start=_partition([0, 2, 2, 3]))
    # roots are vertex indices: a float array would fail inside take with a TypeError
    with pytest.raises(ValueError, match="integer roots"):
        label_components(sample_subgraph(dim, 0.0, SeedSpec(0)), start=np.arange(4.0))


def test_unresolved_warm_start_is_refused():
    # the block {2, 3, 5} written as the chain 5 -> 3 -> 2 keeps every root at
    # or below its vertex; without the check, joining the edge 1-5 reads 3 as
    # the root of 5 and returns the blocks {1, 3, 5} and {2}, not {1, 2, 3, 5}
    dim = CubeDim(3)
    edge = path_graph(dim, [1, 5])
    with pytest.raises(ValueError, match="not its own root"):
        label_components(edge, start=_partition([0, 1, 2, 2, 4, 3, 6, 7]))
    joined = label_components(edge, start=_partition([0, 1, 2, 2, 4, 2, 6, 7]))
    assert joined.root_of.tolist() == [0, 1, 1, 1, 4, 1, 6, 7]
    assert joined.sizes_desc.tolist() == [4, 1, 1, 1, 1]
    # a root of -1 passes both order checks, as take reads start[-1] = -1 as
    # its own root; without the check, joining the edge 0-1 returned root_of
    # [0 0 2 3 4 0 6 0], a component of 4 from one edge
    with pytest.raises(ValueError, match="negative root"):
        label_components(path_graph(dim, [0, 1]), start=_partition([0, 1, 2, 3, 4, -1, 6, -1]))


@given(n=st.integers(1, 10), blocks=st.integers(1, 1024), q=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=80)
def test_join_matches_union_find_reference(n, blocks, q, seed):
    # any smallest-vertex partition, blocks not necessarily connected in Q_n,
    # joined by a batch of edges that may also fall inside blocks
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    block = rng.integers(0, min(blocks, dim.volume), dim.volume)
    first = np.full(block.max() + 1, dim.volume)
    np.minimum.at(first, block, np.arange(dim.volume))
    start = _partition(first[block])
    batch = OccupiedGraph(dim, rng.random((n, dim.volume // 2)) < q)
    lab = label_components(batch, start)
    expected = union_find_join(start, batch)
    assert np.array_equal(lab.root_of, expected)
    assert np.array_equal(lab.size_by_root, np.bincount(expected, minlength=dim.volume))
    assert lab.sizes_desc.tolist() == sorted(np.bincount(expected)[np.unique(expected)], reverse=True)
    assert (lab.root_of.dtype, lab.size_by_root.dtype, lab.sizes_desc.dtype) == \
        (np.int32, np.int64, np.int64)


@pytest.mark.parametrize("n, path", [(4, [7, 3, 1, 0]), (10, _descending_path(10))])
def test_warm_start_from_singletons_climbs_a_hooked_chain(n, path):
    # the one round hooks each vertex of the path onto the next, so pointer
    # doubling over the hooked roots needs ceil(log2(len(path) - 1)) passes
    dim = CubeDim(n)
    g = path_graph(dim, path)
    singletons = label_components(sample_subgraph(dim, 0.0, SeedSpec(0))).root_of
    lab = label_components(g, start=singletons)
    ref_label, ref_sizes = bfs_component_sizes(g)
    assert np.array_equal(lab.root_of, ref_label)
    assert lab.sizes_desc.tolist() == ref_sizes.tolist()
    assert lab.size_by_root[0] == len(path)


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


@pytest.mark.parametrize("size", [(1 << 13) - 8, 1 << 13, (1 << 16) - 8, (1 << 16) - 1, 1 << 16,
                                  (1 << 16) + 5, 3 << 17])
@pytest.mark.parametrize("density", ["none", "one", "under_tenth", "over_tenth", "all"])
def test_edge_ids_match_flatnonzero(size, density):
    count = {"none": 0, "one": 1, "under_tenth": size // 10, "over_tenth": size // 10 + 1,
             "all": size}[density]
    unaligned = np.zeros(size + 1, dtype=bool)[1:]
    unaligned[np.random.default_rng(size + count).choice(size, count, replace=False)] = True
    views = []

    class ViewSpy(np.ndarray):
        # records the dtypes the array is viewed as; only the word path views it
        def view(self, *args, **kwargs):
            views.append(args[0])
            return super().view(*args, **kwargs)

    for flat in (unaligned.copy(), unaligned):
        views.clear()
        ids = _edge_ids(flat.view(ViewSpy))
        assert ids.dtype == np.intp
        assert np.array_equal(ids, np.flatnonzero(flat))
        # the word path is taken exactly on large whole-word inputs at or below 10% density
        assert (np.uint64 in views) == (size >= 1 << 13 and size % 8 == 0 and 10 * count <= size)


@pytest.mark.parametrize("n", [12, 13, 14])
@pytest.mark.parametrize("eps", [-0.45, 0.0])
def test_sparse_planes_agree_with_the_reference_labelers(n, eps):
    # n = 12 has 24,576 edge slots, so below 10% density both the cold
    # labeling and the join read their edge ids through the uint64 words
    dim = CubeDim(n)
    g = sample_subgraph(dim, pc_expansion_reference(n) + eps / n, SeedSpec(2026, 1))
    assert 10 * np.count_nonzero(g.planes) <= g.planes.size
    lab = label_components(g)
    ref_label, ref_sizes = bfs_component_sizes(g)
    assert np.array_equal(lab.root_of, ref_label)
    assert lab.sizes_desc.tolist() == ref_sizes.tolist()
    sprinkle = sample_subgraph(dim, 0.3 / (2 * n), SeedSpec(2026 ^ SPRINKLE_SALT, 1))
    joined = label_components(sprinkle, lab.root_of)
    expected = union_find_join(lab.root_of, sprinkle)
    assert np.array_equal(joined.root_of, expected)
    assert np.array_equal(joined.size_by_root, np.bincount(expected, minlength=dim.volume))


def test_root_hooked_onto_a_root_hooked_in_later_rounds_cold():
    # seven vertices of Q_7 in six edges, too few for the dense hook: round 1
    # hooks 47 onto 39 (and 45 onto 37, 59 onto 27), round 2 hooks 39 onto
    # 37 (and 43 onto 27), round 3 hooks 37 onto 27, so 47 ends the rounds
    # three hooks below its root
    dim = CubeDim(7)
    g = union_graphs(path_graph(dim, [37, 45, 47, 39]), path_graph(dim, [47, 43, 59, 27]))
    lab = label_components(g)
    ref_label, ref_sizes = bfs_component_sizes(g)
    assert np.array_equal(lab.root_of, ref_label)
    assert lab.root_of[[27, 37, 39, 43, 45, 47, 59]].tolist() == [27] * 7
    assert lab.sizes_desc.tolist() == ref_sizes.tolist()


def test_root_hooked_onto_a_root_hooked_in_later_rounds_join():
    # edges (x, x ^ 1) above 2^(n-1) join the blocks of start roots
    # (1, 12), (9, 12), (8, 12), (0, 11), (9, 11), (8, 15): round 1 hooks 12
    # onto 1, 11 onto 0 and 15 onto 8; round 2, on the pairs (1, 9), (1, 8)
    # and (0, 9), hooks 9 onto 0 and 8 onto 1; round 3 hooks 1 onto 0; the
    # block member 16 + r of each root r sits one more step down, so 31 ends
    # the rounds four steps below its root
    n = 7
    dim = CubeDim(n)
    pairs = [(1, 12), (9, 12), (8, 12), (0, 11), (9, 11), (8, 15)]
    start = np.arange(dim.volume, dtype=np.int32)
    planes = np.zeros((n, dim.volume // 2), dtype=bool)
    for i, (a, b) in enumerate(pairs):
        x = dim.volume // 2 + 2 * i
        start[x], start[x + 1] = a, b
        planes[0, x // 2] = True
    for r in {r for pair in pairs for r in pair}:
        start[16 + r] = r
    batch = OccupiedGraph(dim, planes)
    lab = label_components(batch, start)
    expected = union_find_join(start, batch)
    assert np.array_equal(lab.root_of, expected)
    assert lab.root_of[[8, 11, 12, 15, 31]].tolist() == [0] * 5
    assert np.array_equal(lab.size_by_root, np.bincount(expected, minlength=dim.volume))


@given(n=st.integers(1, 8), blocks=st.integers(1, 256), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_reducers_match_the_sorted_sizes(n, blocks, seed):
    # any smallest-vertex partition, read back through an empty join; the
    # reducers read size_by_root, the reference formulas read sizes_desc
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    block = rng.integers(0, min(blocks, dim.volume), dim.volume)
    first = np.full(block.max() + 1, dim.volume)
    np.minimum.at(first, block, np.arange(dim.volume))
    empty = OccupiedGraph(dim, np.zeros((n, dim.volume // 2), dtype=bool))
    lab = label_components(empty, first[block].astype(np.int32))
    sizes = lab.sizes_desc
    assert top_two(lab) == (int(sizes[0]), int(sizes[1]) if sizes.size > 1 else 0)
    assert chi_sample(lab) == float(int((sizes * sizes).sum()) / dim.volume)
    for k in (0, 1, 2, int(sizes[0]), int(sizes[0]) + 1):
        assert count_z_geq(lab, k) == int(sizes[sizes >= k].sum())


@pytest.mark.parametrize("roots, expected", [
    ([0, 0, 0, 3, 3, 3, 6, 7], (3, 3)),  # the tie partner after the first largest
    ([0, 1, 1, 1, 4, 4, 4, 7], (3, 3)),  # the tie partner before it is the first
    ([0, 1, 0, 1, 0, 1, 0, 1], (4, 4)),
    ([0, 0, 0, 0, 0, 0, 0, 0], (8, 0)),  # a single component
    ([0, 1, 2, 3, 4, 5, 6, 7], (1, 1)),
    ([0, 1, 1, 1, 1, 1, 6, 1], (6, 1)),
])
def test_top_two_ties_and_a_single_component(roots, expected):
    empty = OccupiedGraph(CubeDim(3), np.zeros((3, 4), dtype=bool))
    lab = label_components(empty, _partition(roots))
    assert top_two(lab) == expected


def test_sizes_desc_is_built_once_and_read_only():
    lab = label_components(sample_subgraph(CubeDim(6), 0.2, SeedSpec(5)))
    assert "sizes_desc" not in vars(lab)
    sizes = lab.sizes_desc
    assert lab.sizes_desc is sizes
    assert not sizes.flags.writeable
    with pytest.raises(ValueError):
        sizes[0] = 0


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("eps", [0.0, 0.3, 0.45, 1.3])
def test_label_memory_is_bounded_per_vertex(eps):
    n = 16
    dim = CubeDim(n)
    p = pc_expansion_reference(n) + eps / n
    g = sample_subgraph(dim, p, SeedSpec(2026, 0))
    expected = label_components(g)
    lab, peak = _peak_bytes(lambda: label_components(g))
    assert np.array_equal(lab.root_of, expected.root_of)
    assert peak <= 80 * dim.volume, f"peak {peak / dim.volume:.1f} B per vertex"
    # a density ladder from p down: one replicate's hash pass, cold labeling
    # and joins hold their peak whatever the number of densities
    for count in (1, 2, 11):
        ps = [pc_expansion_reference(n) + e / n for e in np.linspace(eps, -0.9, count)]
        ladder, peak = _peak_bytes(lambda: replicate_stats(dim, ps, 2026, range(1)))
        assert ladder[0]["top"][:, 0].tolist() == [top_two(expected)[0]]
        assert peak <= 80 * dim.volume, \
            f"{count}-density peak {peak / dim.volume:.1f} B per vertex"
    if eps == 0.0:
        return
    # the join that sprinkling_experiment runs: the sprinkle's edges onto the base's blocks
    base = sample_subgraph(dim, sprinkle_split(n, p, eps), SeedSpec(2026, 0))
    sprinkle = sample_subgraph(dim, eps / (2 * n), SeedSpec(2026 ^ SPRINKLE_SALT, 0))
    start = label_components(base).root_of
    lab, peak = _peak_bytes(lambda: label_components(sprinkle, start))
    assert np.array_equal(lab.root_of, label_components(union_graphs(base, sprinkle)).root_of)
    assert peak <= 80 * dim.volume, f"join peak {peak / dim.volume:.1f} B per vertex"


def test_double_counting_identity():
    # sum of squared sizes equals the sum over vertices of their cluster size
    dim = CubeDim(6)
    for rep in range(4):
        lab = label_components(sample_subgraph(dim, 0.25, SeedSpec(77, rep)))
        ssq = int((lab.sizes_desc**2).sum())
        by_vertex = sum(lab.size_by_root[lab.root_of[v]] for v in range(dim.volume))
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
            assert small.size_by_root[small.root_of[v]] <= big.size_by_root[big.root_of[v]]
