import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc.clusters import count_z_geq, label_components, top_two
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
    z_concentration_check,
)

from _reference import (
    direct_radial_convolution,
    enumerate_observables,
    gray_path,
    path_graph,
    reference_pair_census,
)


def _chi(n, p, replicates, master=0):
    return Estimate.from_samples(replicate_stats(CubeDim(n), p, master, range(replicates),
                                                 chi=True).chi)


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
    got = replicate_stats(dim, p, master, range(7), chi=True, top=True, z_at=k, census=True)
    assert got.chi.tolist() == [chi_sample(lab) for lab in labs]
    assert got.cmax.tolist() == [top_two(lab)[0] for lab in labs]
    assert got.c2.tolist() == [top_two(lab)[1] for lab in labs]
    assert got.z_geq.tolist() == [count_z_geq(lab, k) for lab in labs]
    assert got.census.tolist() == [pair_census(lab).tolist() for lab in labs]
    # consecutive ranges concatenate to the whole range
    head = replicate_stats(dim, p, master, range(3), chi=True, top=True, z_at=k, census=True)
    tail = replicate_stats(dim, p, master, range(3, 7), chi=True, top=True, z_at=k, census=True)
    for field in ("chi", "cmax", "c2", "z_geq", "census"):
        joined = np.concatenate([getattr(head, field), getattr(tail, field)])
        assert joined.tolist() == getattr(got, field).tolist(), field
    # only the reducers asked for run
    chi_only = replicate_stats(dim, p, master, range(2), chi=True)
    assert chi_only.chi.tolist() == got.chi[:2].tolist()
    assert chi_only.cmax is chi_only.c2 is chi_only.z_geq is chi_only.census is None
    empty = replicate_stats(dim, p, master, range(0), top=True, census=True)
    assert empty.cmax.shape == (0,) and empty.census.shape == (0, 10)


def test_chi_boundary_exact():
    for n in (2, 8):
        assert _chi(n, 0.0, 5) == Estimate(1.0, 0.0, 5)
        assert _chi(n, 1.0, 5) == Estimate(float(2**n), 0.0, 5)


def test_chi_against_enumeration_oracle():
    # frozen oracle values; 2.5625 at (n=2, p=0.5) checked by hand
    for n in (2, 3):
        for p in (0.1, 0.3, 0.5, 0.7):
            exact, _, _ = enumerate_observables(n, p)
            if (n, p) == (2, 0.5):
                assert exact == 2.5625
            est = _chi(n, p, 800, master=5)
            assert abs(est.mean - exact) <= 4 * est.std_error, (n, p, est, exact)


def test_p_geq_k_trivial_and_monotone():
    # P(|C(v)| >= k) is the engine's z_geq count over the 2^4 vertices
    dim = CubeDim(4)
    means = [replicate_stats(dim, 0.4, 0, range(30), z_at=k).z_geq.mean() / dim.volume
             for k in range(18)]
    assert means[0] == 1.0
    assert means[17] == 0.0
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_p_geq_k_against_enumeration():
    # P(|C(0)| >= 4) for n=2, p=0.5 from the 16-configuration census: 5/16
    dim = CubeDim(2)
    z_geq = replicate_stats(dim, 0.5, 9, range(2000), z_at=4).z_geq
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
        z_geq = replicate_stats(dim, 1.0, 0, range(10), z_at=math.ceil(cut)).z_geq
        assert Estimate.from_samples(z_geq / dim.volume) == Estimate(theta, 0.0, 10)


def test_two_point_trivials():
    dim = CubeDim(6)

    def profile(p, replicates):
        return two_point_profile(dim, replicate_stats(dim, p, 0, range(replicates),
                                                      census=True).census)

    profile0 = profile(0.0, 3)
    assert profile0.values[0] == 1.0
    assert (profile0.values[1:] == 0.0).all()
    assert (profile(1.0, 3).values == 1.0).all()
    mid = profile(0.3, 10)
    assert mid.values[0] == 1.0
    assert ((0.0 <= mid.values) & (mid.values <= 1.0)).all()
    with pytest.raises(ValueError):
        two_point_profile(dim, np.zeros((0, 7), dtype=np.int64))


def test_two_point_profile_sums_before_dividing():
    # the rows are summed exactly in int64 and divided once by R 2^n C(n, k)
    dim = CubeDim(9)
    census = replicate_stats(dim, 0.14, 31, range(7), census=True).census
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


@pytest.mark.parametrize("case", ["empty", "full", "gray", "gray_at_cut", "gray_above_cut"])
@pytest.mark.parametrize("n", [10, 13])
def test_pair_census_fixed_cases(n, case):
    # a component takes the spectral path when |C|^2 > n 2^n, i.e. |C| > cut:
    # 101 at n = 10; 326 at n = 13, where a direct component of size cut no
    # longer fits one XOR chunk and is taken in blocks of rows
    dim = CubeDim(n)
    cut = math.isqrt(dim.n * dim.volume)
    if case in ("empty", "full"):
        g = sample_subgraph(dim, 0.0 if case == "empty" else 1.0, SeedSpec(0))
    else:
        length = {"gray": dim.volume, "gray_at_cut": cut, "gray_above_cut": cut + 1}[case]
        g = path_graph(dim, gray_path(dim.n)[:length])
    census = pair_census(label_components(g))
    assert census.tolist() == reference_pair_census(g).tolist()
    if case in ("full", "gray"):
        assert census.tolist() == [dim.volume * math.comb(dim.n, k) for k in range(dim.n + 1)]
    if case == "empty":
        assert census.tolist() == [dim.volume] + [0] * dim.n


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
    full = replicate_stats(dim, 1.0, 0, range(20), z_at=4).z_geq
    rep = z_concentration_check(dim, full, 4.0, 0.3)
    assert rep.exceed_frequency == 0.0
    assert rep.mean_z == 32.0
    assert rep.replicates == 20
    empty = replicate_stats(dim, 0.0, 0, range(20), z_at=2).z_geq
    rep0 = z_concentration_check(dim, empty, 2.0, 0.3)
    assert rep0.exceed_frequency == 0.0
    assert rep0.mean_z == 0.0
    with pytest.raises(ValueError):
        z_concentration_check(dim, full[:0], 4.0, 0.3)


def test_chi_monotone_under_coupling():
    # one SeedSpec thresholds the same uniforms at every p, so chi is monotone
    dim = CubeDim(8)
    chis = [replicate_stats(dim, p, 55, range(20), chi=True).chi for p in (0.05, 0.1, 0.2, 0.5)]
    for rep in range(20):
        stats = [c[rep] for c in chis]
        assert stats == sorted(stats)
