import functools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cubeperc import cli, clusters, critical, experiments, gen, reports, stats
from cubeperc.critical import (
    MIN_TOL_P,
    ReplicateSchedule,
    default_tol_p,
    pc_expansion_reference,
    solve_pc,
    window_coord,
)
from cubeperc.cube import MAX_DIMENSION, CubeDim
from cubeperc.experiments import exact_enumerate
from cubeperc.stats import BracketCarry, Estimate, replicate_stats


def test_expansion_reference_values():
    assert pc_expansion_reference(10) == pytest.approx(0.1135, abs=1e-12)
    assert pc_expansion_reference(100) == pytest.approx(0.0101035, abs=1e-12)
    assert pc_expansion_reference(10**6) < 1.1e-6
    with pytest.raises(ValueError):
        pc_expansion_reference(0)


def test_target_one_gives_zero():
    res = solve_pc(CubeDim(8), 2.0 ** (-8 / 3))
    assert res.p_hat == 0.0
    assert res.converged
    assert res.chi_at_p_hat.mean == 1.0


def test_target_volume_gives_one():
    res = solve_pc(CubeDim(6), 2.0 ** (6 - 6 / 3))
    assert res.p_hat == 1.0
    assert res.converged


def test_target_out_of_range_rejected():
    with pytest.raises(ValueError):
        solve_pc(CubeDim(6), 0.01)  # target below 1
    with pytest.raises(ValueError):
        solve_pc(CubeDim(6), 100.0)  # target above 2^n
    with pytest.raises(ValueError):
        solve_pc(CubeDim(6), -1.0)
    with pytest.raises(ValueError, match="tol_p"):
        solve_pc(CubeDim(6), 1.0, float("nan"))


def test_n2_recovers_hand_inverted_threshold():
    # chi(1/2) = 2.5625 exactly, so the solver must land near p = 1/2
    lam = 2.5625 / 2.0 ** (2 / 3)
    res = solve_pc(CubeDim(2), lam, master_seed=7)
    assert res.converged
    assert abs(res.p_hat - 0.5) < 0.1
    gap = abs(res.chi_at_p_hat.mean - 2.5625)
    assert gap <= 2 * res.chi_at_p_hat.std_error


@functools.cache
def _exact_threshold(n):
    """The p where the exact chi reaches 2^(n/3), by 45 halvings, and chi's slope there."""
    target = 2.0 ** (n / 3.0)
    lo, hi = 0.0, 1.0
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if exact_enumerate(n, mid).chi_exact > target:
            hi = mid
        else:
            lo = mid
    p, h = 0.5 * (lo + hi), 1e-6
    slope = (exact_enumerate(n, p + h).chi_exact - exact_enumerate(n, p - h).chi_exact) / (2 * h)
    return p, slope


@pytest.mark.parametrize("n", [2, 3])
def test_default_bracket_holds_the_exact_threshold(n):
    # at the default tol_p (0.079 at n = 2, 0.042 at n = 3) the bracket alone
    # must hold p_exact (0.2318 at n = 2, 0.2072 at n = 3)
    p_exact, _ = _exact_threshold(n)
    for seed in range(5):
        res = solve_pc(CubeDim(n), 1.0, master_seed=seed)
        assert abs(res.p_hat - p_exact) <= res.ci_half_width, seed


def test_fine_bracket_holds_the_exact_threshold_within_the_statistical_error():
    # at tol_p = 1e-2 a late midpoint can be decided by noise and the bracket alone
    # can miss p_exact, so the allowance adds 2 se(chi at p_hat) / slope
    p_exact, slope = _exact_threshold(3)
    for seed in (0, 1):
        res = solve_pc(CubeDim(3), 1.0, tol_p=1e-2, master_seed=seed)
        allowance = 2.0 * res.chi_at_p_hat.std_error / slope
        assert abs(res.p_hat - p_exact) <= res.ci_half_width + allowance, seed


def test_solver_is_deterministic():
    a = solve_pc(CubeDim(6), 0.8, master_seed=13)
    b = solve_pc(CubeDim(6), 0.8, master_seed=13)
    assert a == b
    c = solve_pc(CubeDim(6), 0.8, master_seed=14)
    assert a.p_hat != c.p_hat or a.trace != c.trace


def test_trace_and_bracket():
    res = solve_pc(CubeDim(8), 1.0, master_seed=5)
    assert res.converged
    assert res.ci_half_width <= default_tol_p(8) / 2
    target = 2.0 ** (8 / 3)
    # the bracket never inverts: every trace row keeps lo < hi and the
    # midpoint decision matches the recorded estimate
    lo, hi = 0.0, 1.0
    for point in res.trace:
        assert point.lo == lo and point.hi == hi
        assert lo < point.midpoint < hi
        if point.chi_mean > target:
            hi = point.midpoint
        else:
            lo = point.midpoint
    assert hi - lo <= default_tol_p(8)
    # resolved endpoints bracket the target
    resolved_lo = [t.chi_mean for t in res.trace if t.resolved and t.chi_mean <= target]
    resolved_hi = [t.chi_mean for t in res.trace if t.resolved and t.chi_mean > target]
    for mean in resolved_lo:
        assert mean < target
    for mean in resolved_hi:
        assert mean > target


@pytest.mark.parametrize("tol_p", [0.0, float("nan"), 2.0 ** -53], ids=["zero", "nan", "2^-53"])
def test_tolerance_below_two_to_minus_52_is_refused(tol_p):
    with pytest.raises(ValueError, match=r"tol_p must be at least 2\^-52"):
        solve_pc(CubeDim(2), 1.0, tol_p)


def test_finest_tolerance_takes_52_bisections():
    # after k halvings the bracket ends are exact multiples of 2^-k, so the
    # finest allowed tolerance is met after exactly 52
    res = solve_pc(CubeDim(2), 1.0, MIN_TOL_P, ReplicateSchedule(initial=2, cap=2))
    assert res.converged
    assert [point.iteration for point in res.trace] == list(range(1, 53))
    assert res.ci_half_width == 2.0 ** -53


def test_every_default_tolerance_is_allowed():
    assert all(default_tol_p(n) >= MIN_TOL_P for n in range(1, MAX_DIMENSION + 1))


def test_chi_monotone_along_trace_midpoints():
    # same replicate seeds at every midpoint: estimates are coupled, so chi
    # means must be monotone in the midpoint density
    res = solve_pc(CubeDim(7), 1.0, master_seed=2)
    pts = sorted(res.trace, key=lambda t: t.midpoint)
    means = [t.chi_mean for t in pts]
    assert means == sorted(means)


def test_window_coord_regimes():
    at = window_coord(0.1, 10, 0.1)
    assert at.epsilon == 0.0 and at.regime == "inside"
    one_over_n = window_coord(0.1 + 1.0 / 10, 10, 0.1)
    assert one_over_n.epsilon == pytest.approx(1.0)
    small = window_coord(0.1 - 2.0 ** (-10 / 3) / 10, 10, 0.1)
    assert small.Lambda == pytest.approx(-1.0)
    assert small.regime == "inside"
    assert window_coord(0.9, 10, 0.1).regime == "above"
    assert window_coord(0.0001, 10, 0.1).regime == "below"


def _charge(dim):
    """Bytes a carried replicate is charged: two root arrays and a root array's entries of ids."""
    return dim.volume * (2 * np.min_scalar_type(dim.volume - 1).itemsize
                         + np.min_scalar_type(dim.edge_count - 1).itemsize)


def _carry_budget(monkeypatch, dim, replicates):
    """Set the carry's budget to what `replicates` replicates at dim are charged."""
    monkeypatch.setattr(stats, "CARRY_BYTES", replicates * _charge(dim))
    assert BracketCarry(dim, 0, 8).carried == replicates


@pytest.mark.parametrize("carried", [8, 3], ids=["all", "some"])
def test_every_trace_point_re_derives_from_the_engine(monkeypatch, carried):
    # the carried base replicates join only the edges a midpoint adds to the
    # bracket's lower end, and the doubling draws replicates beyond them fresh;
    # every mean and se must still be the engine's at that midpoint, exactly
    schedule = ReplicateSchedule(initial=8, cap=64)
    doubled = 0
    for n in range(4, 11):
        dim = CubeDim(n)
        _carry_budget(monkeypatch, dim, carried)
        for seed in (0, 1, 2026):
            res = solve_pc(dim, 1.0, schedule=schedule, master_seed=seed)
            for t in res.trace:
                (st,) = replicate_stats(dim, (t.midpoint,), seed, range(t.replicates))
                est = Estimate.from_samples(st["chi"])
                assert (est.mean, est.std_error) == (t.chi_mean, t.chi_se), (n, seed, t)
                doubled += t.replicates > schedule.initial
            (st,) = replicate_stats(dim, (res.p_hat,), seed, range(schedule.initial))
            assert Estimate.from_samples(st["chi"]) == res.chi_at_p_hat, (n, seed)
    assert doubled >= 10


def test_a_solve_above_the_carry_budget_matches_the_carried_solve(monkeypatch):
    # with no room for one replicate, every replicate is drawn and labeled cold
    dim, schedule, seeds = CubeDim(9), ReplicateSchedule(initial=16, cap=256), (0, 1, 2)
    carried = [solve_pc(dim, 1.0, schedule=schedule, master_seed=seed) for seed in seeds]
    _carry_budget(monkeypatch, dim, 0)
    for seed, expected in zip(seeds, carried):
        res = solve_pc(dim, 1.0, schedule=schedule, master_seed=seed)
        assert res == expected and res.trace == expected.trace


def test_a_solve_labels_each_replicate_once_through_the_probed_names(monkeypatch):
    # the benchmark's probe rebinds each layer entry point at every module
    # attribute that binds it and counts the calls; solve12's exact counts and
    # the denominator of its replicates_per_s need one labeling, chi and top
    # two per replicate evaluation, carried or not, and no sample_subgraph
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("sample_subgraph", "label_components", "chi_sample", "top_two")
    wrappers = {}
    for module in (gen, clusters, stats, critical, experiments, reports, cli):
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, wrappers.setdefault(name, counted(name, fn)))
    res = solve_pc(CubeDim(12), 1.0, master_seed=2026)
    assert res.replicates_used == 2688
    assert calls == {"label_components": 2688, "chi_sample": 2688, "top_two": 2688}


def _solve_peak(dim, schedule):
    tracemalloc.start()
    try:
        res = solve_pc(dim, 1.0, schedule=schedule, master_seed=2026)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, peak


@pytest.mark.parametrize("n", [12, 14])
def test_carried_state_stays_under_its_budget(monkeypatch, n):
    # all 64 base replicates are carried at n = 12 and 14 (1.5 and 8 MiB
    # charged against CARRY_BYTES); what they hold on top of an uncarried
    # solve's tracemalloc peak stays within their charge
    dim, schedule = CubeDim(n), ReplicateSchedule(initial=64, cap=64)
    assert BracketCarry(dim, 0, 64).carried == 64
    assert 64 * _charge(dim) <= stats.CARRY_BYTES
    res, peak = _solve_peak(dim, schedule)
    _carry_budget(monkeypatch, dim, 0)
    fresh, fresh_peak = _solve_peak(dim, schedule)
    assert res == fresh
    held = peak - fresh_peak
    assert held <= 64 * _charge(dim), f"carry held {held / 2**20:.2f} MiB"
