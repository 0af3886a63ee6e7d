import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc import lemmas
from cubeperc.cube import (
    CubeDim,
    PathList,
    _bfs_forest,
    ball_volume_exact,
    disjoint_short_paths,
    hamming_ball,
    hamming_distance,
    large_deviation_bound,
    min_overlap_delta,
    tail_sum_exact,
)

from _reference import bfs_forest


def test_cube_dim_validation():
    assert CubeDim(1).volume == 2
    assert CubeDim(10).volume == 1024
    assert CubeDim(10).edge_count == 5120
    with pytest.raises(ValueError):
        CubeDim(0)
    with pytest.raises(ValueError):
        CubeDim(29)


def test_ball_volume_values():
    assert ball_volume_exact(CubeDim(3), 1) == 4
    assert ball_volume_exact(CubeDim(10), 10) == 1024
    assert ball_volume_exact(CubeDim(10), 5) == 638  # 1+10+45+120+210+252
    assert ball_volume_exact(CubeDim(4), 99) == 16  # saturates
    with pytest.raises(ValueError):
        ball_volume_exact(CubeDim(4), -1)


def _mask(dim, members):
    mask = np.zeros(dim.volume, dtype=bool)
    mask[np.asarray(members, dtype=np.int64)] = True
    return mask


def test_vertex_sets_must_be_boolean_masks():
    dim = CubeDim(3)
    good = _mask(dim, [0])
    for bad in (np.ones(7, dtype=bool), np.ones(8, dtype=np.int8), np.ones((2, 8), dtype=bool)):
        with pytest.raises(ValueError, match="boolean mask"):
            hamming_ball(dim, bad, 1)
        with pytest.raises(ValueError, match="boolean mask"):
            disjoint_short_paths(dim, bad, good, 1)
        with pytest.raises(ValueError, match="boolean mask"):
            disjoint_short_paths(dim, good, bad, 1)


def test_hamming_ball_trivial_cases():
    dim = CubeDim(3)
    v = _mask(dim, [5])
    assert (hamming_ball(dim, v, 0) == v).all()
    unit = hamming_ball(dim, _mask(dim, [0]), 1)
    assert np.flatnonzero(unit).tolist() == [0, 1, 2, 4]
    assert hamming_ball(dim, v, 3).sum() == 8
    with pytest.raises(ValueError):
        hamming_ball(dim, _mask(dim, []), 1)


@given(n=st.integers(2, 8), d1=st.integers(0, 8), d2=st.integers(0, 8), seed=st.integers(0, 100))
@settings(deadline=None, max_examples=50)
def test_hamming_ball_monotone_in_radius(n, d1, d2, seed):
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    x = _mask(dim, rng.integers(0, dim.volume, 3))
    small = hamming_ball(dim, x, min(d1, d2))
    big = hamming_ball(dim, x, max(d1, d2))
    assert not (small & ~big).any()


@given(n=st.integers(1, 10), u=st.integers(0, 10), d=st.integers(0, 10), seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=120)
def test_harper_ball_growth(n, u, d, seed):
    dim = CubeDim(n)
    u = min(u, n)
    rng = np.random.default_rng(seed)
    x = _mask(dim, rng.choice(dim.volume, ball_volume_exact(dim, u), replace=False))
    grown = hamming_ball(dim, x, d)
    assert grown.sum() >= ball_volume_exact(dim, u + d)


def test_tail_sum_values():
    assert tail_sum_exact(CubeDim(4), 0) == 11  # 6 + 4 + 1
    assert tail_sum_exact(CubeDim(7), 8) == 0  # empty range
    with pytest.raises(ValueError):
        tail_sum_exact(CubeDim(4), -1)


@given(n=st.integers(1, 28), delta=st.integers(0, 28))
@settings(deadline=None, max_examples=200)
def test_tail_sum_pascal_symmetry_and_bound(n, delta):
    delta = min(delta, n)
    dim = CubeDim(n)
    upper = tail_sum_exact(dim, delta)
    lower = sum(math.comb(n, i) for i in range((n - delta) // 2 + 1))
    assert upper == lower
    assert upper <= large_deviation_bound(dim, delta)


def test_large_deviation_bound_values():
    assert large_deviation_bound(CubeDim(8), 0) == 256.0
    assert large_deviation_bound(CubeDim(8), 4) == pytest.approx(256 / math.e, rel=1e-12)


def test_min_overlap_delta_derived_case():
    # smallest delta with exp(-delta^2/18) < eps/2 for eps just above 2/e^2
    eps = 2.0 / math.e**2 * 1.001
    assert min_overlap_delta(CubeDim(9), eps) == 6


@given(n=st.integers(1, 20), eps=st.floats(1e-6, 1.0, allow_nan=False))
@settings(deadline=None, max_examples=200)
def test_min_overlap_delta_minimality(n, eps):
    dim = CubeDim(n)
    delta = min_overlap_delta(dim, eps)
    assert math.exp(-(delta**2) / (2 * n)) < eps / 2
    if delta > 0:
        assert not math.exp(-((delta - 1) ** 2) / (2 * n)) < eps / 2


@given(n=st.integers(2, 16), eps1=st.floats(0.01, 0.5), eps2=st.floats(0.01, 0.5))
@settings(deadline=None, max_examples=100)
def test_min_overlap_delta_nonincreasing_in_eps(n, eps1, eps2):
    dim = CubeDim(n)
    lo, hi = sorted((eps1, eps2))
    assert min_overlap_delta(dim, lo) >= min_overlap_delta(dim, hi)


@given(n=st.integers(2, 9), eps=st.floats(0.05, 1.0), seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_big_overlap_property(n, eps, seed):
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    size = math.ceil(eps * dim.volume)
    s = _mask(dim, rng.choice(dim.volume, size, replace=False))
    t = _mask(dim, rng.choice(dim.volume, size, replace=False))
    delta = min_overlap_delta(dim, eps)
    overlap = hamming_ball(dim, s, delta) & t
    assert 2 * overlap.sum() >= t.sum()


def test_disjoint_paths_point_cases():
    dim = CubeDim(3)
    v = _mask(dim, [3])
    zero = disjoint_short_paths(dim, v, v, 0)
    assert zero.paths == ((3,),)

    # opposite corners: a single geodesic of length 3
    result = disjoint_short_paths(dim, _mask(dim, [0]), _mask(dim, [7]), 3)
    assert len(result.paths) == 1
    path = result.paths[0]
    assert len(path) == 4 and path[0] == 7 and path[-1] == 0

    # disjoint target balls with too-small radius: empty
    empty = disjoint_short_paths(dim, _mask(dim, [0]), _mask(dim, [7]), 1)
    assert empty.paths == ()


@given(n=st.integers(2, 8), delta=st.integers(0, 4), seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_disjoint_paths_invariants(n, delta, seed):
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    s = _mask(dim, rng.choice(dim.volume, int(rng.integers(1, dim.volume + 1)), replace=False))
    t = _mask(dim, rng.choice(dim.volume, int(rng.integers(1, dim.volume + 1)), replace=False))
    result = disjoint_short_paths(dim, s, t, delta)
    seen = set()
    for path in result.paths:
        assert len(path) - 1 <= delta
        assert t[path[0]] and s[path[-1]]
        for a, b in zip(path, path[1:]):
            assert hamming_distance(a, b) == 1
        for v in path:
            assert v not in seen
            seen.add(v)
    # kept target vertices are pairwise more than 2*delta apart
    heads = [p[0] for p in result.paths]
    for i, a in enumerate(heads):
        for b in heads[i + 1:]:
            assert hamming_distance(a, b) > 2 * delta


@given(n=st.integers(3, 9), seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_disjoint_paths_count_guarantee(n, seed):
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.3, 1.0))
    size = math.ceil(eps * dim.volume)
    s = _mask(dim, rng.choice(dim.volume, size, replace=False))
    t = _mask(dim, rng.choice(dim.volume, size, replace=False))
    delta = min_overlap_delta(dim, eps)
    result = disjoint_short_paths(dim, s, t, delta)
    assert len(result.paths) >= 0.5 * eps * dim.volume * float(n) ** (-2 * delta)


def test_pathlist_rejects_bad_paths():
    dim = CubeDim(3)
    with pytest.raises(ValueError):
        PathList(dim, 3, ((0, 3),))  # not adjacent
    with pytest.raises(ValueError):
        PathList(dim, 1, ((0, 1, 3),))  # too long
    with pytest.raises(ValueError):
        PathList(dim, 2, ((0, 1), (1, 3)))  # shared vertex


@given(n=st.integers(1, 8), seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_bfs_forest_matches_reference(n, seed):
    # pred is the smallest previous-level neighbour: the rule that makes paths deterministic
    dim = CubeDim(n)
    rng = np.random.default_rng(seed)
    sources = np.sort(rng.choice(dim.volume, int(rng.integers(1, min(dim.volume, 6) + 1)), replace=False))
    for depth in range(n + 2):
        dist, pred = _bfs_forest(dim, sources, depth)
        ref_dist, ref_pred = bfs_forest(n, sources.tolist(), depth)
        assert dist.tolist() == ref_dist
        assert pred.tolist() == ref_pred


def test_paths_suite_counts_pathlist_rejections(monkeypatch):
    # length, adjacency and disjointness are checked only by the PathList constructor
    monkeypatch.setattr(lemmas, "disjoint_short_paths",
                        lambda dim, s, t, delta: PathList(dim, 0, ((0, 1),)))
    result = lemmas.run_paths_suite(n_max=2, instances_per_n=3)
    assert (result.instances, result.violations) == (3, 3)
    # the three instances draw delta = 2, 0, 1: the first failure is kept, not the last
    assert result.first_failure == "n=2 delta=2: path longer than the bound it was built for"
