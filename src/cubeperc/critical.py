"""Stochastic bisection for the susceptibility-defined critical threshold.

The threshold is the density at which the expected cluster size of a fixed
vertex reaches lambda * 2^(n/3).  Susceptibility is strictly increasing in
p and the per-edge uniforms are shared across midpoints (same replicate,
same uniforms), so per-replicate statistics are monotone in p and the
bisection bracket never inverts for resolved endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import CubeDim
from .stats import Estimate, replicate_stats

__all__ = [
    "ReplicateSchedule",
    "TracePoint",
    "PcResult",
    "WindowCoord",
    "default_tol_p",
    "solve_pc",
    "window_coord",
    "pc_expansion_reference",
]

DEFAULT_LAMBDA = 1.0
DEFAULT_WINDOW_LAMBDA0 = 10.0
# a midpoint is resolved once its 95% normal interval excludes the target
CONFIDENCE_Z = 1.96


@dataclass(frozen=True)
class ReplicateSchedule:
    """Doubling replicate schedule for one midpoint evaluation."""

    initial: int = 64
    cap: int = 8192
    max_bisections: int = 80

    def __post_init__(self) -> None:
        if self.initial < 2 or self.cap < self.initial:
            raise ValueError("schedule needs initial >= 2 and cap >= initial")


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    lo: float
    hi: float
    midpoint: float
    chi_mean: float
    chi_se: float
    replicates: int
    resolved: bool


@dataclass(frozen=True)
class PcResult:
    """Solved threshold with its bisection trace."""

    n: int
    lam: float
    p_hat: float
    ci_half_width: float
    replicates_used: int
    chi_at_p_hat: Estimate
    converged: bool
    trace: tuple[TracePoint, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class WindowCoord:
    """Window coordinates of a density: eps = n(p - p_hat), Lambda = eps * 2^(n/3)."""

    epsilon: float
    Lambda: float
    regime: str


def default_tol_p(n: int) -> float:
    """A quarter of the scaling-window width in p units: 2^(-n/3) / (4n)."""
    return 2.0 ** (-n / 3.0) / (4.0 * n)


def _evaluate_midpoint(dim: CubeDim, p: float, target: float,
                       schedule: ReplicateSchedule, master_seed: int) -> tuple[Estimate, bool]:
    """Add replicates until the confidence interval excludes the target or the cap hits."""
    samples = np.empty(0)
    level = schedule.initial
    while True:
        more = replicate_stats(dim, p, master_seed, range(samples.size, level), chi=True)
        samples = np.concatenate([samples, more.chi])
        est = Estimate.from_samples(samples)
        if abs(est.mean - target) > CONFIDENCE_Z * est.std_error:
            return est, True
        if level >= schedule.cap:
            return est, False
        level = min(2 * level, schedule.cap)


def solve_pc(dim: CubeDim, lam: float = DEFAULT_LAMBDA, tol_p: float | None = None,
             schedule: ReplicateSchedule | None = None, master_seed: int = 0) -> PcResult:
    """Bisection on [0, 1] for the density where susceptibility hits lambda * 2^(n/3).

    Midpoints are resolved adaptively: replicates are added per the doubling
    schedule until the Gaussian confidence interval for the susceptibility
    estimate excludes the target, or the cap is reached and the sign of the
    estimate decides.  Susceptibility is heavy-tailed near the threshold, so
    the interval test is approximate; the cap keeps termination guaranteed.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    schedule = schedule or ReplicateSchedule()
    if tol_p is None:
        tol_p = default_tol_p(dim.n)
    if tol_p <= 0.0:
        raise ValueError("tol_p must be positive")
    target = lam * 2.0 ** (dim.n / 3.0)
    if target < 1.0 or target > dim.volume:
        raise ValueError(f"target susceptibility {target} outside [1, {dim.volume}]")

    if target == 1.0:
        return PcResult(dim.n, lam, 0.0, 0.0, 0, Estimate(1.0, 0.0, 1), True)
    if target == float(dim.volume):
        return PcResult(dim.n, lam, 1.0, 0.0, 0, Estimate(float(dim.volume), 0.0, 1), True)

    lo, hi = 0.0, 1.0
    trace: list[TracePoint] = []
    total = 0
    iteration = 0
    while hi - lo > tol_p and iteration < schedule.max_bisections:
        iteration += 1
        mid = 0.5 * (lo + hi)
        est, resolved = _evaluate_midpoint(dim, mid, target, schedule, master_seed)
        total += est.replicates
        trace.append(TracePoint(iteration, lo, hi, mid, est.mean, est.std_error,
                                est.replicates, resolved))
        if est.mean > target:
            hi = mid
        else:
            lo = mid

    converged = hi - lo <= tol_p
    p_hat = 0.5 * (lo + hi)
    # The final check runs at the base schedule level so its confidence
    # interval stays commensurate with the susceptibility variation across
    # the terminal bracket; a huge count would resolve the O(tol_p) bias
    # instead of the target.
    chi_final = Estimate.from_samples(
        replicate_stats(dim, p_hat, master_seed, range(schedule.initial), chi=True).chi)
    total += chi_final.replicates
    return PcResult(dim.n, lam, p_hat, 0.5 * (hi - lo), total, chi_final, converged,
                    tuple(trace))


def window_coord(p: float, n: int, p_hat: float) -> WindowCoord:
    """Classify a density against the window |Lambda| <= DEFAULT_WINDOW_LAMBDA0 around p_hat."""
    eps = n * (p - p_hat)
    window_scaled = eps * 2.0 ** (n / 3.0)
    if window_scaled < -DEFAULT_WINDOW_LAMBDA0:
        regime = "below"
    elif window_scaled > DEFAULT_WINDOW_LAMBDA0:
        regime = "above"
    else:
        regime = "inside"
    return WindowCoord(eps, window_scaled, regime)


def pc_expansion_reference(n: int) -> float:
    """Truncated threshold expansion 1/n + 1/n^2 + 7/(2 n^3); reference only."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1.0 / n + 1.0 / n**2 + 3.5 / n**3
