import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc.cube import CubeDim
from cubeperc.gen import (
    EdgeId,
    OccupiedGraph,
    SeedSpec,
    load_occupancy,
    sample_subgraph,
    save_occupancy,
    sprinkle_split,
    union_graphs,
)

from _reference import edge_uniforms


def test_edge_id_canonical_form():
    e = EdgeId(vertex=0b0101, direction=1)
    assert e.other_endpoint() == 0b0111
    with pytest.raises(ValueError):
        EdgeId(vertex=0b0111, direction=1)  # bit already set


def test_edge_id_flat_index_covers_all_edges():
    dim = CubeDim(4)
    seen = set()
    for d in range(4):
        for v in range(16):
            if not v >> d & 1:
                seen.add(EdgeId(v, d).flat_index(dim))
    assert seen == set(range(dim.edge_count))


def test_sample_extremes():
    dim = CubeDim(5)
    empty = sample_subgraph(dim, 0.0, SeedSpec(0))
    full = sample_subgraph(dim, 1.0, SeedSpec(0))
    assert empty.occupied_count() == 0
    assert full.occupied_count() == dim.edge_count == 80
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
        count = sample_subgraph(dim, 0.5, SeedSpec(2024, rep)).occupied_count()
        assert abs(count - 2560) < 4 * sigma


def test_per_edge_uniformity():
    # pooled over many edges the empirical density must sit at p
    dim = CubeDim(12)  # 24576 edges per replicate
    p = 0.3
    total = 0
    edges = 0
    for rep in range(8):
        total += sample_subgraph(dim, p, SeedSpec(9, rep)).occupied_count()
        edges += dim.edge_count
    sigma = math.sqrt(edges * p * (1 - p))
    assert abs(total - edges * p) < 4 * sigma


def test_coupled_sample_nested():
    # one SeedSpec thresholds the same uniforms at every p, so samples nest
    dim = CubeDim(7)
    graphs = [sample_subgraph(dim, p, SeedSpec(5)) for p in (0.0, 0.2, 0.5, 0.9, 1.0)]
    assert graphs[0].occupied_count() == 0
    assert graphs[-1].occupied_count() == dim.edge_count
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


def test_union_graphs():
    dim = CubeDim(6)
    g = sample_subgraph(dim, 0.4, SeedSpec(1))
    empty = sample_subgraph(dim, 0.0, SeedSpec(2))
    full = sample_subgraph(dim, 1.0, SeedSpec(3))
    assert (union_graphs(g, empty).planes == g.planes).all()
    assert union_graphs(g, full).occupied_count() == dim.edge_count
    h = sample_subgraph(dim, 0.4, SeedSpec(4))
    assert (union_graphs(g, h).planes == union_graphs(h, g).planes).all()
    assert union_graphs(g, h).p == pytest.approx(0.4 + 0.4 - 0.16)
    with pytest.raises(ValueError):
        union_graphs(g, sample_subgraph(CubeDim(5), 0.4, SeedSpec(1)))


def test_sprinkle_split_algebra():
    assert sprinkle_split(5, 0.5, 1.0) == pytest.approx(4.0 / 9.0, rel=1e-15)  # q = 0.1
    with pytest.raises(ValueError):
        sprinkle_split(5, 0.05, 1.0)  # p below the layer density
    with pytest.raises(ValueError):
        sprinkle_split(5, 0.5, 0.0)


@given(n=st.integers(1, 24), p=st.floats(0.0, 1.0), eps=st.floats(1e-6, 1.0))
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
        total += union_graphs(base, layer).occupied_count()
        edges += dim.edge_count
    assert edges >= 10**5
    sigma = math.sqrt(edges * p * (1 - p))
    assert abs(total - edges * p) < 4 * sigma


def test_two_layer_union_chi_matches_direct_sample():
    # the union of independent layers is distributed like one direct sample:
    # compare susceptibility estimates from both routes
    from cubeperc.clusters import label_components
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


@given(n=st.integers(1, 8), p=st.floats(0.0, 1.0), master=st.integers(0, 2**63), rep=st.integers(0, 2**31))
@settings(deadline=None, max_examples=60)
def test_occupancy_roundtrip(n, p, master, rep, tmp_path_factory):
    dim = CubeDim(n)
    seed = SeedSpec(master, rep)
    graph = sample_subgraph(dim, p, seed)
    path = tmp_path_factory.mktemp("dump") / "graph.bin"
    save_occupancy(graph, path)
    loaded = load_occupancy(path)
    assert loaded.dim == dim
    assert loaded.p == p
    assert loaded.seed == seed
    assert (loaded.planes == graph.planes).all()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_occupancy(path)


def test_load_rejects_truncated_dump(tmp_path):
    path = tmp_path / "graph.bin"
    graph = sample_subgraph(CubeDim(6), 0.5, SeedSpec(1, 2))
    save_occupancy(graph, path)
    data = path.read_bytes()
    header = len(data) - 6 * 4  # six planes of 32 bits each
    for cut in (0, 10, header - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"header needs {header} bytes, got {cut}$"):
            load_occupancy(path)
    # cuts at plane boundaries, inside the first plane and inside the last
    for cut in (header, header + 1, header + 4, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"n = 6 needs {len(data)} bytes, got {cut}$"):
            load_occupancy(path)
    path.write_bytes(data)
    assert (load_occupancy(path).planes == graph.planes).all()


def test_occupancy_immutable():
    g = sample_subgraph(CubeDim(4), 0.5, SeedSpec(0))
    with pytest.raises(ValueError):
        g.planes[0, 0] = True
