import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeperc.cube import CubeDim
from cubeperc.clusters import label_components
from cubeperc.gen import (
    OccupiedGraph,
    SeedSpec,
    sample_layers,
    sample_subgraph,
    split_edges,
    sprinkle_split,
)

from _reference import edge_endpoints, edge_uniforms, union_graphs


def test_edge_id_flat_index_covers_all_edges():
    # flat id d * 2^(n-1) + i names the edge (v, v | 1 << d) whose v has bit d
    # clear and the other bits of i; the labeler decodes the same layout
    dim = CubeDim(4)
    half = dim.volume // 2
    edges = []
    for flat in range(dim.edge_count):
        planes = np.zeros(dim.edge_count, dtype=bool)
        planes[flat] = True
        graph = OccupiedGraph(dim, planes.reshape(dim.n, -1))
        found = []
        for d in range(dim.n):
            u, v = edge_endpoints(graph, d)
            found += [(int(a), int(b), d) for a, b in zip(u, v)]
        assert len(found) == 1
        u, v, d = found[0]
        assert d == flat // half and v == u | 1 << d
        edges.append((u, d))
        lab = label_components(graph)
        assert lab.sizes_desc.tolist() == [2] + [1] * (dim.volume - 2) and lab.root_of[v] == u
    canonical = [(v, d) for d in range(dim.n) for v in range(dim.volume) if not v >> d & 1]
    assert sorted(edges) == sorted(canonical)


def test_sample_extremes():
    dim = CubeDim(5)
    empty = sample_subgraph(dim, 0.0, SeedSpec(0))
    full = sample_subgraph(dim, 1.0, SeedSpec(0))
    assert int(empty.planes.sum()) == 0
    assert int(full.planes.sum()) == dim.edge_count == 80
    with pytest.raises(ValueError):
        sample_subgraph(dim, 1.5, SeedSpec(0))


def test_sampling_is_deterministic():
    dim = CubeDim(8)
    a = sample_subgraph(dim, 0.37, SeedSpec(123, 45))
    b = sample_subgraph(dim, 0.37, SeedSpec(123, 45))
    c = sample_subgraph(dim, 0.37, SeedSpec(123, 46))
    assert (a.planes == b.planes).all()
    assert (a.planes != c.planes).any()


def test_occupied_count_binomial_band():
    # n=10, p=0.5: mean 2560, sigma = sqrt(5120 * 0.25) ~ 35.8; 4-sigma band
    dim = CubeDim(10)
    sigma = math.sqrt(5120 * 0.25)
    for rep in range(20):
        count = int(sample_subgraph(dim, 0.5, SeedSpec(2024, rep)).planes.sum())
        assert abs(count - 2560) < 4 * sigma


def test_per_edge_uniformity():
    # pooled over many edges the empirical density must sit at p
    dim = CubeDim(12)  # 24576 edges per replicate
    p = 0.3
    total = 0
    edges = 0
    for rep in range(8):
        total += int(sample_subgraph(dim, p, SeedSpec(9, rep)).planes.sum())
        edges += dim.edge_count
    sigma = math.sqrt(edges * p * (1 - p))
    assert abs(total - edges * p) < 4 * sigma


def test_joint_law_of_the_edges():
    # every estimator assumes independent edges, within and across replicates.
    # Q_3 has 12 edges, so at p = 1/2 each of the 4,096 configurations has
    # probability 2^-12.  The chi-square over them has 4,095 degrees of
    # freedom; its critical value is the Wilson-Hilferty 1 - 1e-4 quantile,
    # fixed before the run, so an independent sampler fails 1 run in 10^4.
    # At lag 1, sqrt(R) times an edge's correlation is about N(0, 1), so a
    # bound of 5 R^-1/2 on the largest of the 12 fails about 1 run in 10^5.
    dim, replicates = CubeDim(3), 120_000
    cells, z = 1 << dim.edge_count, 3.719016485455709  # Phi(z) = 1 - 1e-4
    dof = cells - 1
    critical = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
    assert 4440 < critical < 4441
    edges = np.array([sample_subgraph(dim, 0.5, SeedSpec(7, r)).planes.reshape(-1)
                      for r in range(replicates)])
    observed = np.bincount(edges.astype(np.int64) @ (1 << np.arange(dim.edge_count)),
                           minlength=cells)
    expected = replicates / cells
    assert float(((observed - expected) ** 2).sum() / expected) < critical
    centred = edges - edges.mean(axis=0)
    lag1 = (centred[1:] * centred[:-1]).sum(axis=0) / np.sqrt(
        (centred[1:] ** 2).sum(axis=0) * (centred[:-1] ** 2).sum(axis=0))
    assert np.abs(lag1).max() < 5 / math.sqrt(replicates)


def test_coupled_sample_nested():
    # one SeedSpec thresholds the same uniforms at every p, so samples nest
    dim = CubeDim(7)
    graphs = [sample_subgraph(dim, p, SeedSpec(5)) for p in (0.0, 0.2, 0.5, 0.9, 1.0)]
    assert int(graphs[0].planes.sum()) == 0
    assert int(graphs[-1].planes.sum()) == dim.edge_count
    for small, big in zip(graphs, graphs[1:]):
        assert not (small.planes & ~big.planes).any()


def _reference_uniform(seed, flat_id):
    """One edge's uniform, with the SplitMix64 hash written out on Python integers."""
    mask = (1 << 64) - 1
    x = (flat_id * 0x9E3779B97F4A7C15 + seed.stream_key()) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return (x >> 11) * 2.0**-53


def test_edge_uniforms_match_scalar_hash():
    # n = 14 has 114688 edges, so the ids cross several hash blocks
    dim = CubeDim(14)
    seed = SeedSpec(2026, 5)
    u = edge_uniforms(dim, seed).ravel()
    ids = [0, 1, 32767, 32768, 65535, 65536, 98304, dim.edge_count - 1]
    ids += np.random.default_rng(0).integers(0, dim.edge_count, 50).tolist()
    for i in ids:
        assert u[i] == _reference_uniform(seed, i), i


_EDGE_CASE_P = [0.0, 1.0, 5e-324, math.nextafter(0.5, -1.0), math.nextafter(0.5, 1.0)]


@given(n=st.sampled_from([1, 2, 5, 9, 13, 14]),
       p=st.one_of(st.sampled_from(_EDGE_CASE_P), st.floats(0.0, 1.0)),
       master=st.integers(0, 2**63), rep=st.integers(0, 2**31))
@settings(deadline=None, max_examples=60)
def test_integer_threshold_matches_float_uniforms(n, p, master, rep):
    dim = CubeDim(n)
    seed = SeedSpec(master, rep)
    u = edge_uniforms(dim, seed)
    assert np.array_equal(sample_subgraph(dim, p, seed).planes, u < p)
    # so does p exactly on, and just above, one sampled uniform
    first = float(u.flat[0])
    for q in (first, math.nextafter(first, 1.0)):
        assert np.array_equal(sample_subgraph(dim, q, seed).planes, u < q)


@given(n=st.integers(1, 8),
       ps=st.lists(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
                   min_size=1, max_size=6),
       repeats=st.integers(0, 2), master=st.integers(0, 2**63), rep=st.integers(0, 2**31))
@settings(deadline=None, max_examples=80)
def test_layers_partition_every_density_of_the_ladder(n, ps, repeats, master, rep):
    # a ladder with 0, 1 and repeated densities: the layers are disjoint and
    # layers 0..k together are the sample at the k-th density, bit for bit
    dim = CubeDim(n)
    seed = SeedSpec(master, rep)
    ps = sorted(ps + ps[:repeats])
    u = edge_uniforms(dim, seed)
    union = np.zeros((dim.n, dim.volume // 2), dtype=bool)
    layers = list(sample_layers(dim, ps, seed))
    assert len(layers) == len(ps)
    for k, (p, layer) in enumerate(zip(ps, layers)):
        assert layer.planes.dtype == np.bool_
        assert not (union & layer.planes).any()
        union |= layer.planes
        assert np.array_equal(union, sample_subgraph(dim, p, seed).planes)
        assert np.array_equal(union, u < p)
        if k and ps[k - 1] == p:
            assert not layer.planes.any()


@given(n=st.sampled_from([1, 3, 9, 13, 14]),
       p=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       master=st.integers(0, 2**63), rep=st.integers(0, 2**31), pick=st.integers(0, 2**32))
@settings(deadline=None, max_examples=60)
def test_split_edges_rehashes_a_subset_as_the_blocks_hash_it(n, p, master, rep, pick):
    # the id subset goes through the same SplitMix64 as the hash blocks, so each
    # id is split as sample_subgraph occupies it, in order and in its own dtype
    dim, seed = CubeDim(n), SeedSpec(master, rep)
    occupied = sample_subgraph(dim, p, seed).planes.ravel()
    chosen = np.random.default_rng(pick).random(dim.edge_count) < 0.3
    ids = np.flatnonzero(chosen).astype(np.min_scalar_type(dim.edge_count - 1))
    below, above = split_edges(ids, p, seed)
    assert below.dtype == above.dtype == ids.dtype
    assert np.array_equal(below, ids[occupied[ids]])
    assert np.array_equal(above, ids[~occupied[ids]])


def test_ladder_of_more_than_255_densities():
    # the per-edge level outgrows uint8 here, and the ladder takes a wider type
    dim, seed = CubeDim(3), SeedSpec(5, 1)
    ps = sorted(np.random.default_rng(3).random(300).tolist() + [1.0])
    union = np.zeros((dim.n, dim.volume // 2), dtype=bool)
    for p, layer in zip(ps, sample_layers(dim, ps, seed)):
        union |= layer.planes
        assert np.array_equal(union, sample_subgraph(dim, p, seed).planes)
    assert union.all()


def test_ladder_rejects_bad_densities():
    dim = CubeDim(4)
    for ps in ((), (0.3, 0.2), (0.1, 1.5), (float("nan"),)):
        with pytest.raises(ValueError):
            list(sample_layers(dim, ps, SeedSpec(0)))


def test_union_graphs():
    dim = CubeDim(6)
    g = sample_subgraph(dim, 0.4, SeedSpec(1))
    empty = sample_subgraph(dim, 0.0, SeedSpec(2))
    full = sample_subgraph(dim, 1.0, SeedSpec(3))
    assert (union_graphs(g, empty).planes == g.planes).all()
    assert int(union_graphs(g, full).planes.sum()) == dim.edge_count
    h = sample_subgraph(dim, 0.4, SeedSpec(4))
    assert (union_graphs(g, h).planes == union_graphs(h, g).planes).all()
    with pytest.raises(ValueError):
        union_graphs(g, sample_subgraph(CubeDim(5), 0.4, SeedSpec(1)))


def test_sprinkle_split_algebra():
    assert sprinkle_split(5, 0.5, 1.0) == pytest.approx(4.0 / 9.0, rel=1e-15)  # q = 0.1
    with pytest.raises(ValueError):
        sprinkle_split(5, 0.05, 1.0)  # p below the layer density
    with pytest.raises(ValueError):
        sprinkle_split(5, 0.5, 0.0)


@given(n=st.integers(1, 24), p=st.floats(0.0, 1.0), eps=st.floats(1e-6, 1.0))
@example(n=6, p=0.9999999999999999, eps=0.5842317624400011)  # the quotient rounded to 1.0
@settings(deadline=None, max_examples=200)
def test_sprinkle_split_exact_relation(n, p, eps):
    q = eps / (2 * n)
    if q >= 1.0 or p < q:
        return
    pm = sprinkle_split(n, p, eps)
    assert 0.0 <= pm <= p
    assert pm + q - q * pm == pytest.approx(p, rel=1e-14, abs=1e-15)


def test_two_layer_union_edge_marginal():
    # union of independent p_minus and q layers has edge marginal p (>= 1e5 edges)
    n, p, eps = 12, 0.4, 1.2
    dim = CubeDim(n)
    q = eps / (2 * n)
    pm = sprinkle_split(n, p, eps)
    total = 0
    edges = 0
    for rep in range(5):
        base = sample_subgraph(dim, pm, SeedSpec(100, rep))
        layer = sample_subgraph(dim, q, SeedSpec(200, rep))
        total += int(union_graphs(base, layer).planes.sum())
        edges += dim.edge_count
    assert edges >= 10**5
    sigma = math.sqrt(edges * p * (1 - p))
    assert abs(total - edges * p) < 4 * sigma


def test_two_layer_union_chi_matches_direct_sample():
    # the union of independent layers is distributed like one direct sample:
    # compare susceptibility estimates from both routes
    from cubeperc.stats import Estimate, chi_sample

    n, p, eps = 10, 0.12, 0.5
    dim = CubeDim(n)
    q = eps / (2 * n)
    pm = sprinkle_split(n, p, eps)
    replicates = 80
    union_chis = []
    direct_chis = []
    for r in range(replicates):
        base = sample_subgraph(dim, pm, SeedSpec(310, r))
        layer = sample_subgraph(dim, q, SeedSpec(311, r))
        union_chis.append(chi_sample(label_components(union_graphs(base, layer))))
        direct_chis.append(chi_sample(label_components(sample_subgraph(dim, p, SeedSpec(312, r)))))
    u = Estimate.from_samples(np.array(union_chis))
    d = Estimate.from_samples(np.array(direct_chis))
    combined = math.hypot(u.std_error, d.std_error)
    assert abs(u.mean - d.mean) <= 4 * combined, (u, d)


def test_occupancy_immutable():
    g = sample_subgraph(CubeDim(4), 0.5, SeedSpec(0))
    with pytest.raises(ValueError):
        g.planes[0, 0] = True
