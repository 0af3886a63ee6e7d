import functools
import math

import numpy as np
import pytest

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
