import math

import numpy as np
import pytest

from cubeperc.critical import (
    ReplicateSchedule,
    default_tol_p,
    pc_expansion_reference,
    solve_pc,
    window_coord,
)
from cubeperc.cube import CubeDim


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


def test_budget_exhaustion_flags_unconverged():
    schedule = ReplicateSchedule(initial=8, cap=16, max_bisections=2)
    res = solve_pc(CubeDim(6), 1.0, schedule=schedule, master_seed=1)
    assert not res.converged
    assert res.ci_half_width > 0
    assert len(res.trace) == 2


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
