import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc import gen, stats
from cubeperc.clusters import ClusterLabeling, count_z_geq, label_components, top_two
from cubeperc.critical import pc_expansion_reference
from cubeperc.cube import CubeDim
from cubeperc.gen import SeedSpec, sample_subgraph
from cubeperc.stats import (
    Estimate,
    RadialProfile,
    chi_sample,
    n_alpha,
    pair_census,
    radial_convolution,
    replicate_stats,
    triangle_diagram_hat,
    two_point_profile,
)

from _reference import (
    automorphism_image,
    direct_radial_convolution,
    enumerate_observables,
    gray_path,
    path_graph,
    reference_pair_census,
    union_graphs,
)


def _chi(n, p, replicates, master=0):
    (st,) = replicate_stats(CubeDim(n), (p,), master, range(replicates))
    return Estimate.from_samples(st["chi"])


def _z_geq(k):
    return [{"z_geq": functools.partial(count_z_geq, k=k)}]


def test_estimate_from_samples():
    e = Estimate.from_samples(np.array([1.0, 2.0, 3.0]))
    assert e.mean == 2.0
    assert e.std_error == pytest.approx(1.0 / math.sqrt(3))
    assert e.replicates == 3
    single = Estimate.from_samples(np.array([5.0]))
    assert single.std_error == 0.0
    with pytest.raises(ValueError):
        Estimate.from_samples(np.array([]))


def test_replicate_stats_matches_hand_loop():
    dim, p, master, k = CubeDim(9), 0.14, 31, 12
    labs = [label_components(sample_subgraph(dim, p, SeedSpec(master, r))) for r in range(7)]
    reducers = [{"z_geq": functools.partial(count_z_geq, k=k), "census": pair_census}]
    (got,) = replicate_stats(dim, (p,), master, range(7), reducers)
    assert got["chi"].tolist() == [chi_sample(lab) for lab in labs]
    assert got["top"].tolist() == [list(top_two(lab)) for lab in labs]
    assert got["z_geq"].tolist() == [count_z_geq(lab, k) for lab in labs]
    assert got["census"].tolist() == [pair_census(lab).tolist() for lab in labs]
    assert {name: (values.dtype, values.shape) for name, values in got.items()} == {
        "chi": (np.float64, (7,)), "top": (np.int64, (7, 2)), "z_geq": (np.int64, (7,)),
        "census": (np.int64, (7, 10))}
    # consecutive ranges concatenate to the whole range
    (head,) = replicate_stats(dim, (p,), master, range(3), reducers)
    (tail,) = replicate_stats(dim, (p,), master, range(3, 7), reducers)
    for name in ("chi", "top", "z_geq", "census"):
        joined = np.concatenate([head[name], tail[name]])
        assert joined.tolist() == got[name].tolist(), name
    # chi and top always run; z_geq and census only where a mapping names them
    (bare,) = replicate_stats(dim, (p,), master, range(2))
    assert sorted(bare) == ["chi", "top"]
    for name in bare:
        assert bare[name].tolist() == got[name][:2].tolist(), name


def test_replicate_stats_refuses_an_empty_range_and_a_short_table():
    # the densities are checked only when a replicate is sampled, so an empty
    # range would return without looking at them
    dim = CubeDim(4)
    for ps in ((0.3,), (2.0,)):
        with pytest.raises(ValueError, match="at least one replicate"):
            replicate_stats(dim, ps, 0, range(0))
        with pytest.raises(ValueError, match="at least one replicate"):
            replicate_stats(dim, ps, 0, range(5, 5), _z_geq(2))
    with pytest.raises(ValueError, match="p must lie in"):
        replicate_stats(dim, (2.0,), 0, range(1))
    for ps, reducers in (((0.3,), []), ((0.3,), _z_geq(2) * 2), ((0.1, 0.3), _z_geq(2))):
        with pytest.raises(ValueError, match="one mapping per density"):
            replicate_stats(dim, ps, 0, range(3), reducers)


def test_replicate_stats_refuses_a_carry_it_cannot_evaluate():
    # a carry holds one master seed's replicates at one dimension, and a
    # density outside its bracket would join edges it does not hold
    dim = CubeDim(4)
    carry = stats.BracketCarry(dim, 7, 4)
    carry.narrow(0.25, 0.5)
    for d, ps, seed in ((dim, (0.3,), 8), (CubeDim(5), (0.3,), 7), (dim, (0.3, 0.4), 7),
                        (dim, (0.25,), 7), (dim, (0.6,), 7)):
        with pytest.raises(ValueError, match="carry"):
            replicate_stats(d, ps, seed, range(4), carry=carry)


def test_replicate_stats_samples_and_labels_once_per_replicate(monkeypatch):
    # the engine reaches the hash kernel and the labeler through module-level
    # names, so wrapping those names counts and sees every pass: one hash pass
    # per replicate whatever the number of densities, one labeling per
    # (replicate, density), each equal to a cold labeling at that density
    dim, master, k = CubeDim(7), 3, 5
    hash_passes, layers, labelings = [], [], []
    edge_hashes = gen._edge_hashes

    def hashes(*args, **kwargs):
        hash_passes.append(args)
        yield from edge_hashes(*args, **kwargs)

    def label(graph, start=None):
        layers.append(graph)
        labelings.append(label_components(graph, start))
        return labelings[-1]

    for ps in ((0.2,), (0.3, 0.1), (0.05, 1.0, 0.2, 0.0, 0.2)):
        cold = [[label_components(sample_subgraph(dim, p, SeedSpec(master, r)))
                 for p in sorted(ps)] for r in range(k)]
        for seen in (hash_passes, layers, labelings):
            seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(gen, "_edge_hashes", hashes)
            patch.setattr(stats, "label_components", label)
            got = replicate_stats(dim, ps, master, range(k), [
                {"z_geq": functools.partial(count_z_geq, k=4), "census": pair_census}] * len(ps))
        assert len(hash_passes) == k
        assert len(labelings) == k * len(ps)
        for g in layers:
            assert g.planes.dtype == np.bool_ and g.planes.shape == (dim.n, dim.volume // 2)
        for lab, expected in zip(labelings, (lab for row in cold for lab in row)):
            assert lab.root_of.dtype == np.int32 and lab.root_of.shape == (dim.volume,)
            assert np.array_equal(lab.root_of, expected.root_of)
            assert (np.diff(lab.sizes_desc) <= 0).all()
        # results come back in the caller's order, whatever order the ladder ran in
        for st, p in zip(got, ps):
            labs = [row[sorted(ps).index(p)] for row in cold]
            assert st["chi"].tolist() == [chi_sample(lab) for lab in labs]
            assert st["top"][:, 0].tolist() == [top_two(lab)[0] for lab in labs]
            assert st["z_geq"].tolist() == [count_z_geq(lab, 4) for lab in labs]
            assert st["census"].tolist() == [pair_census(lab).tolist() for lab in labs]


def test_chi_boundary_exact():
    for n in (2, 8):
        assert _chi(n, 0.0, 5) == Estimate(1.0, 0.0, 5)
        assert _chi(n, 1.0, 5) == Estimate(float(2**n), 0.0, 5)


def test_chi_against_enumeration_oracle():
    # frozen oracle values; 2.5625 at (n=2, p=0.5) checked by hand
    for n in (2, 3):
        for p in (0.1, 0.3, 0.5, 0.7):
            exact, *_ = enumerate_observables(n, p)
            if (n, p) == (2, 0.5):
                assert exact == 2.5625
            est = _chi(n, p, 800, master=5)
            assert abs(est.mean - exact) <= 4 * est.std_error, (n, p, est, exact)


def test_p_geq_k_trivial_and_monotone():
    # P(|C(v)| >= k) is the engine's z_geq count over the 2^4 vertices
    dim = CubeDim(4)
    means = [replicate_stats(dim, (0.4,), 0, range(30), _z_geq(k))[0]["z_geq"].mean() / dim.volume
             for k in range(18)]
    assert means[0] == 1.0
    assert means[17] == 0.0
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_p_geq_k_against_enumeration():
    # P(|C(0)| >= 4) for n=2, p=0.5 from the 16-configuration census: 5/16
    dim = CubeDim(2)
    (st,) = replicate_stats(dim, (0.5,), 9, range(2000), _z_geq(4))
    z_geq = st["z_geq"]
    est = Estimate.from_samples(z_geq / dim.volume)
    assert abs(est.mean - 5.0 / 16.0) <= 4 * est.std_error


def test_n_alpha_formulas():
    n = 12
    p_c = 0.08
    eps = 2.0 ** (-n / 3)
    p = p_c + eps / n
    val = n_alpha(p_c, p, n, 0.5)
    assert val == pytest.approx(2.0 ** (2 * n / 3), rel=1e-9)  # eps^-2 at the window edge
    tiny_alpha = n_alpha(p_c, p, n, 1e-9)
    assert tiny_alpha == pytest.approx(eps**-2.0, rel=1e-6)
    with pytest.raises(ValueError):
        n_alpha(p_c, p_c, n, 0.5)
    with pytest.raises(ValueError):
        n_alpha(p_c, p, n, 1.5)


@given(eps=st.floats(0.05, 1.0), alpha=st.floats(0.05, 0.95))
@settings(deadline=None, max_examples=100)
def test_n_alpha_lower_bound(eps, alpha):
    # cutoff >= 2^(alpha n / 3) whenever eps <= 1
    n = 15
    val = n_alpha(0.05, 0.05 + eps / n, n, alpha)
    assert val >= 2.0 ** (alpha * n / 3) * (1 - 1e-12)


def test_theta_alpha_trivials():
    # at p = 1 every vertex lies in the one component of 16, so theta is 1 at
    # any cutoff up to 16 and 0 above it
    dim = CubeDim(4)
    for cut, theta in ((1.0, 1.0), (16.0, 1.0), (16.5, 0.0)):
        (st,) = replicate_stats(dim, (1.0,), 0, range(10), _z_geq(math.ceil(cut)))
        z_geq = st["z_geq"]
        assert Estimate.from_samples(z_geq / dim.volume) == Estimate(theta, 0.0, 10)


def test_two_point_trivials():
    dim = CubeDim(6)

    def profile(p, replicates):
        (st,) = replicate_stats(dim, (p,), 0, range(replicates), [{"census": pair_census}])
        return two_point_profile(dim, st["census"])

    profile0 = profile(0.0, 3)
    assert profile0.values[0] == 1.0
    assert (profile0.values[1:] == 0.0).all()
    assert (profile(1.0, 3).values == 1.0).all()
    mid = profile(0.3, 10)
    assert mid.values[0] == 1.0
    assert ((0.0 <= mid.values) & (mid.values <= 1.0)).all()
    with pytest.raises(ValueError):
        two_point_profile(dim, np.zeros((0, 7), dtype=np.int64))


@pytest.mark.parametrize("n, ps", [(2, (0.5,)), (3, (0.2, 0.3))])
def test_two_point_profile_against_enumeration(n, ps):
    # tau(k) exact from every configuration; its radial sum is chi
    dim, replicates = CubeDim(n), 2500
    measured = replicate_stats(dim, ps, 2026, range(replicates),
                               [{"census": pair_census}] * len(ps))
    for p, st in zip(ps, measured):
        chi, _, _, tau = enumerate_observables(n, p)
        assert sum(math.comb(n, k) * t for k, t in enumerate(tau)) == pytest.approx(chi, abs=1e-12)
        profile = two_point_profile(dim, st["census"])
        se = (st["census"] / stats.radial_totals(dim)).std(axis=0, ddof=1) / math.sqrt(replicates)
        assert (se[1:] > 0).all()
        z = (profile.values[1:] - tau[1:]) / se[1:]
        assert (np.abs(z) <= 4).all(), (n, p, z)


@pytest.mark.parametrize("n, eps", [(18, 0.0), (18, 0.5), (20, 0.0)])
def test_automorphic_image_has_the_same_observables(n, eps):
    # no oracle is fast enough at n = 18-20: sigma(G) is isomorphic to G, so its
    # cluster sizes, chi, top two and pair census must be G's
    dim = CubeDim(n)
    graph = sample_subgraph(dim, pc_expansion_reference(n) + eps / n, SeedSpec(2026, 0))
    rng = np.random.default_rng(n)
    image = automorphism_image(graph, rng.permutation(n).tolist(), int(rng.integers(dim.volume)))
    a, b = label_components(graph), label_components(image)
    assert np.array_equal(np.sort(a.size_by_root[a.size_by_root > 0]),
                          np.sort(b.size_by_root[b.size_by_root > 0]))
    assert chi_sample(a) == chi_sample(b)
    assert top_two(a) == top_two(b)
    assert np.array_equal(pair_census(a), pair_census(b))


def test_two_point_profile_sums_before_dividing():
    # the rows are summed exactly in int64 and divided once by R 2^n C(n, k)
    dim = CubeDim(9)
    (st,) = replicate_stats(dim, (0.14,), 31, range(7), [{"census": pair_census}])
    census = st["census"]
    totals = np.array([7 * dim.volume * math.comb(9, k) for k in range(10)], dtype=np.float64)
    assert two_point_profile(dim, census).values.tolist() == (census.sum(axis=0) / totals).tolist()
    assert two_point_profile(dim, list(census)).values.tolist() == (census.sum(axis=0) / totals).tolist()


@given(n=st.integers(1, 10), p=st.floats(0.0, 1.0), rep=st.integers(0, 1000))
@settings(deadline=None, max_examples=100)
def test_pair_census_matches_reference(n, p, rep):
    g = sample_subgraph(CubeDim(n), p, SeedSpec(271, rep))
    census = pair_census(label_components(g))
    assert census.dtype == np.int64
    assert census.tolist() == reference_pair_census(g).tolist()


def _pairs_and_paths(dim: CubeDim):
    # in the 3-cube at every multiple of 8, taking turns: an edge along bit 0
    # or 2, or a 3-vertex path through bits (0, 1) or (2, 0)
    shapes = [(1,), (1, 2), (4,), (4, 1)]
    paths = []
    for j, base in enumerate(range(0, dim.volume, 8)):
        path = [base]
        for bit in shapes[j % len(shapes)]:
            path.append(path[-1] ^ bit)
        paths.append(path)
    return functools.reduce(union_graphs, [path_graph(dim, path) for path in paths])


@pytest.mark.parametrize("case", ["empty", "full", "gray", "gray_at_cut", "gray_above_cut",
                                  "pairs_and_paths"])
@pytest.mark.parametrize("n", [10, 13])
def test_pair_census_fixed_cases(n, case):
    # a component takes the spectral path when 4 |C|^2 > n 2^n, i.e. |C| > cut:
    # 50 at n = 10 and 163 at n = 13; components of 2 and 3 vertices are
    # counted in closed form
    dim = CubeDim(n)
    cut = math.isqrt(dim.n * dim.volume // 4)
    if case in ("empty", "full"):
        g = sample_subgraph(dim, 0.0 if case == "empty" else 1.0, SeedSpec(0))
    elif case == "pairs_and_paths":
        g = _pairs_and_paths(dim)
    else:
        length = {"gray": dim.volume, "gray_at_cut": cut, "gray_above_cut": cut + 1}[case]
        g = path_graph(dim, gray_path(dim.n)[:length])
    census = pair_census(label_components(g))
    assert census.tolist() == reference_pair_census(g).tolist()
    if case in ("full", "gray"):
        assert census.tolist() == [dim.volume * math.comb(dim.n, k) for k in range(dim.n + 1)]
    if case == "empty":
        assert census.tolist() == [dim.volume] + [0] * dim.n
    if case == "pairs_and_paths":
        # 2^(n-3) blocks, half of them an edge (2 pairs at distance 1) and half
        # a path (4 at distance 1, 2 at distance 2)
        blocks = dim.volume // 8
        assert census.tolist() == [dim.volume, blocks * 3, blocks] + [0] * (dim.n - 2)


def test_direct_census_in_blocks_of_rows():
    # no direct component reaches one XOR chunk below the cut up to n = 14
    # (239^2 < 2^16), so the row blocks are called directly: 300 members are
    # XORed 218 rows at a time
    dim, size = CubeDim(10), 300
    assert size * size > stats.PAIR_CHUNK
    path = gray_path(dim.n)[:size]
    expected = reference_pair_census(path_graph(dim, path))
    expected[0] -= dim.volume - size  # the singletons off the path
    got = stats._direct_census(np.array(path, dtype=np.int64), np.full(size, size), dim.n)
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("n", [14, 15])
def test_pair_census_of_the_full_cube_at_the_transform_dtype_edge(n):
    # the largest coefficient is f^(0) = 2^n: 16,384 fits the int16 transform
    # at n = 14, and 32,768 at n = 15 is taken in int32
    dim = CubeDim(n)
    census = pair_census(label_components(sample_subgraph(dim, 1.0, SeedSpec(0))))
    assert census.tolist() == [dim.volume * math.comb(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("rep", [1, 2])
@pytest.mark.parametrize("n", [15, 16, 18, 20])
def test_spectral_census_above_the_cut_matches_the_direct_census(n, rep):
    # at p_c the components above the cut (350, 512, 1,086 and 2,289 vertices at
    # n = 15, 16, 18 and 20) number 1 to 5 and have 410 to 5,201 vertices: spectra
    # of the int32 transform, and of n = 15's odd split of the index bits, other
    # than the full cube's single spike
    dim = CubeDim(n)
    lab = label_components(sample_subgraph(dim, pc_expansion_reference(n), SeedSpec(2026, rep)))
    big = lab.size_by_root[lab.root_of] > math.isqrt(n * dim.volume // 4)
    members = np.flatnonzero(big)
    assert members.size
    # the same components with every other vertex a singleton
    root_of = np.where(big, lab.root_of, np.arange(dim.volume, dtype=np.int32))
    alone = ClusterLabeling(dim, root_of, np.bincount(root_of, minlength=dim.volume))
    spectral = pair_census(alone)
    spectral[0] -= dim.volume - members.size
    roots = lab.root_of[members].astype(np.int64)
    order = np.argsort(lab.size_by_root[roots] << n | roots)
    direct = stats._direct_census(members[order], lab.size_by_root[roots[order]], n)
    assert spectral.tolist() == direct.tolist()


@given(n=st.integers(1, 8), seed=st.integers(0, 10**6),
       dtype=st.sampled_from([np.int16, np.int32]))
@settings(deadline=None, max_examples=60)
def test_weight_sums_of_the_fast_transform_match_the_definition(n, seed, dtype):
    # the fast transform leaves its index bits rotated; the weight sums read
    # only popcounts, so they match those of f^(s) = sum_x (-1)^|s & x| f(x)
    v = np.arange(1 << n)
    f = np.random.default_rng(seed).integers(-64, 65, 1 << n)
    signs = 1 - 2 * (np.bitwise_count(v[:, None] & v[None, :]).astype(np.int64) & 1)
    spectrum = signs @ f
    weights = np.bitwise_count(v)
    expected = [int((spectrum[weights == w] ** 2).sum()) for w in range(n + 1)]
    fast = stats._walsh_hadamard(f.astype(dtype), n)
    assert stats._weight_sums(fast, n) == expected


def test_pair_census_memory_is_bounded_per_vertex():
    # above the window at n = 16 the giant (about 38k) takes the spectral path
    n = 16
    dim = CubeDim(n)
    lab = label_components(sample_subgraph(dim, pc_expansion_reference(n) + 0.45 / n,
                                           SeedSpec(2026, 0)))
    assert int(lab.sizes_desc[0]) ** 2 > n * dim.volume
    expected = pair_census(lab)  # warms the cached Krawtchouk table
    tracemalloc.start()
    try:
        census = pair_census(lab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.tolist() == expected.tolist()
    assert int(census.sum()) == int((lab.sizes_desc.astype(np.int64) ** 2).sum())
    assert peak <= 64 * dim.volume, f"peak {peak / dim.volume:.1f} B per vertex"


def test_radial_profile_validation():
    dim = CubeDim(3)
    with pytest.raises(ValueError):
        RadialProfile(dim, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RadialProfile(dim, np.array([1.0, -0.1, 0.0, 0.0]))


@given(n=st.integers(1, 6), seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=80)
def test_radial_convolution_matches_direct_sum(n, seed):
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    t1 = RadialProfile(dim, rng.random(n + 1))
    t2 = RadialProfile(dim, rng.random(n + 1))
    got = radial_convolution(t1, t2).values
    want = direct_radial_convolution(n, t1.values, t2.values)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-12


@given(n=st.integers(1, 6), seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_radial_convolution_commutes(n, seed):
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    t1 = RadialProfile(dim, rng.random(n + 1))
    t2 = RadialProfile(dim, rng.random(n + 1))
    a = radial_convolution(t1, t2).values
    b = radial_convolution(t2, t1).values
    assert np.allclose(a, b, rtol=1e-12)


def test_radial_convolution_identity_element():
    dim = CubeDim(5)
    rng = np.random.default_rng(4)
    t1 = RadialProfile(dim, rng.random(6))
    delta = RadialProfile(dim, np.eye(6)[0])
    assert np.allclose(radial_convolution(t1, delta).values, t1.values, rtol=1e-14)
    with pytest.raises(ValueError):
        radial_convolution(t1, RadialProfile(CubeDim(4), np.ones(5)))


def test_triangle_diagram_trivials():
    dim = CubeDim(5)
    at_zero = triangle_diagram_hat(RadialProfile(dim, np.eye(6)[0]), chi=1.0, p=0.0)
    assert at_zero.nabla_diag == pytest.approx(1.0)
    assert at_zero.nabla_offdiag == pytest.approx(0.0)
    at_one = triangle_diagram_hat(RadialProfile(dim, np.ones(6)), chi=32.0, p=1.0)
    assert at_one.nabla_diag == pytest.approx(2.0**10)
    assert at_one.nabla_offdiag == pytest.approx(2.0**10)
    assert at_one.a0 == pytest.approx(1.0 / 5 + 32.0**3 / 32)


def test_z_concentration_trivials():
    dim = CubeDim(5)
    full = replicate_stats(dim, (1.0,), 0, range(20), _z_geq(4))[0]["z_geq"]
    assert full.tolist() == [32] * 20
    empty = replicate_stats(dim, (0.0,), 0, range(20), _z_geq(2))[0]["z_geq"]
    assert empty.tolist() == [0] * 20


def test_chi_monotone_under_coupling():
    # one SeedSpec thresholds the same uniforms at every p, so chi is monotone
    dim = CubeDim(8)
    chis = [replicate_stats(dim, (p,), 55, range(20))[0]["chi"]
            for p in (0.05, 0.1, 0.2, 0.5)]
    for rep in range(20):
        stats = [c[rep] for c in chis]
        assert stats == sorted(stats)
