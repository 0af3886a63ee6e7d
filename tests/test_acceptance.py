"""Acceptance suite: one test per exit criterion, fixed seeds, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and the report-only quantities.
"""

import math
import time

import numpy as np
import pytest

from cubeperc.critical import DEFAULT_LAMBDA, pc_expansion_reference, solve_pc
from cubeperc.cube import CubeDim
from cubeperc.experiments import (
    ObservableFlags,
    SweepConfig,
    duality_experiment,
    exact_enumerate,
    regime_summary,
    run_sweep,
    sprinkling_experiment,
)
from cubeperc.gen import SeedSpec
from cubeperc.lemmas import run_harper_suite, run_overlap_suite, run_tail_suite
from cubeperc.stats import (
    Estimate,
    RadialProfile,
    n_alpha,
    radial_convolution,
    replicate_stats,
    z_concentration_check,
)

from _reference import direct_radial_convolution
from conftest import ACCEPTANCE_MASTER_SEED, criterion


def _chi(n, p, replicates, master):
    return Estimate.from_samples(replicate_stats(CubeDim(n), p, master, range(replicates),
                                                 chi=True).chi)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence at n <= 3"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            for p in (0.1, 0.3, 0.5, 0.7):
                oracle = exact_enumerate(n, p)
                if (n, p) == (2, 0.5):
                    assert oracle.chi_exact == 2.5625
                est = _chi(n, p, 2000, master=101)
                gap = abs(est.mean - oracle.chi_exact)
                assert gap <= 4 * est.std_error, (n, p, est, oracle.chi_exact)
        assert time.perf_counter() - start < 60


def test_criterion_2_boundary_exactness():
    with criterion(2, "boundary exactness chi(0)=1, chi(1)=2^n"):
        for n in (2, 8, 16):
            at_zero = _chi(n, 0.0, 5, master=7)
            at_one = _chi(n, 1.0, 5, master=7)
            assert at_zero.mean == 1.0 and at_zero.std_error == 0.0
            assert at_one.mean == float(2**n) and at_one.std_error == 0.0


def test_criterion_3_lemma_suite():
    with criterion(3, "ball growth, tail symmetry, big overlap (zero violations)"):
        start = time.perf_counter()
        harper = run_harper_suite(n_max=12, instances_per_n=10_000,
                                  seed=ACCEPTANCE_MASTER_SEED)
        assert harper.violations == 0, harper
        assert harper.instances == 120_000
        tail = run_tail_suite(n_max=30)
        assert tail.violations == 0, tail
        overlap = run_overlap_suite(n_max=12, instances_per_n=1_000,
                                    seed=ACCEPTANCE_MASTER_SEED)
        assert overlap.violations == 0, overlap
        assert overlap.instances == 12_000
        assert time.perf_counter() - start < 300


def test_criterion_4_radial_convolution_oracle():
    with criterion(4, "radial convolution vs direct double sum (<= 1e-12)"):
        start = time.perf_counter()
        rng = np.random.default_rng(ACCEPTANCE_MASTER_SEED)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(1, 7))
            dim = CubeDim(n)
            t1 = RadialProfile(dim, rng.random(n + 1))
            t2 = RadialProfile(dim, rng.random(n + 1))
            got = radial_convolution(t1, t2).values
            want = direct_radial_convolution(n, t1.values, t2.values)
            rel = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
            worst = max(worst, rel)
        assert worst <= 1e-12, worst
        assert time.perf_counter() - start < 60


def test_criterion_5_critical_threshold_sanity(pc14):
    # The hard band (0.9, 1.6) for n * p_hat is asserted at lambda = 1, the
    # package default.  At lambda = 0.1 no solver can meet it at n <= 14:
    # the susceptibility of any density satisfies chi(p) >= 1 + n p, so the
    # target 0.1 * 2^(n/3) (= 1.008 at n = 10) is reached while
    # n * p_hat <= 0.1 * 2^(n/3) - 1 (= 0.008 at n = 10).  The n = 14 solve
    # is the session fixture's.
    with criterion(5, "critical threshold sanity at lambda = 1"):
        start = time.perf_counter()
        measured = {
            10: solve_pc(CubeDim(10), DEFAULT_LAMBDA, master_seed=ACCEPTANCE_MASTER_SEED),
            14: pc14,
        }
        for n, res in measured.items():
            assert res.converged, (n, res)
            ref = pc_expansion_reference(n)
            soft = abs(res.p_hat - ref) <= 0.5 / n**2
            print(f"  n={n}: n*p_hat={n * res.p_hat:.4f}  p_hat={res.p_hat:.6f}  "
                  f"expansion_ref={ref:.6f}  within_soft_band={soft} (report only)")
        assert time.perf_counter() - start < 1200
        for n, res in measured.items():
            assert 0.9 < n * res.p_hat < 1.6, (
                f"n={n}: n*p_hat={n * res.p_hat:.4f} outside (0.9, 1.6) "
                f"at lambda={res.lam}")


def test_criterion_6_subcritical_regime(pc16):
    with criterion(6, "subcritical largest cluster within twice 2logV/eps^2"):
        start = time.perf_counter()
        n, eps, replicates = 16, -0.3, 200
        p = pc16.p_hat + eps / n
        bound = 2.0 * (2.0 * n * math.log(2)) / eps**2
        cmax = replicate_stats(CubeDim(n), p, 601, range(replicates), top=True).cmax
        within = int((cmax <= bound).sum())
        assert within >= 0.95 * replicates, (within, replicates, bound)
        assert time.perf_counter() - start < 600


def test_criterion_7_window_scaling(pc12, pc14, pc16):
    with criterion(7, "window scaling: median |Cmax| / V^(2/3) stable across n"):
        start = time.perf_counter()
        ratios = {}
        for pc in (pc12, pc14, pc16):
            cmaxes = replicate_stats(CubeDim(pc.n), pc.p_hat, 700 + pc.n, range(100),
                                     top=True).cmax
            ratios[pc.n] = float(np.median(cmaxes)) / 2.0 ** (2 * pc.n / 3)
            print(f"  n={pc.n}: median|Cmax|/V^(2/3) = {ratios[pc.n]:.4f}")
            assert 0.05 <= ratios[pc.n] <= 20.0, ratios
        for a, b in ((12, 14), (14, 16)):
            factor = max(ratios[a] / ratios[b], ratios[b] / ratios[a])
            assert factor < 2.5, (a, b, factor)
        assert time.perf_counter() - start < 900


def test_criterion_8_supercritical_giant_and_sprinkling(pc16):
    with criterion(8, "sprinkling merges >= M/3; dominant giant; 28 eps V cap"):
        start = time.perf_counter()
        n, eps, alpha, seeds = 16, 0.3, 0.5, 100
        v = 2**n
        merge_ok = 0
        ratio_ok = 0
        for s in range(seeds):
            rep = sprinkling_experiment(n, eps, alpha, SeedSpec(801, s), pc16)
            assert rep.cmax_after <= 28 * eps * v
            assert rep.cmax_after >= rep.cmax_before
            if rep.M > 0 and 3 * rep.cmax_after >= rep.M:
                merge_ok += 1
            if rep.c2_after > 0 and rep.cmax_after >= 5 * rep.c2_after:
                ratio_ok += 1
        assert merge_ok >= 0.95 * seeds, merge_ok
        assert ratio_ok >= 0.90 * seeds, ratio_ok
        assert time.perf_counter() - start < 900


def test_criterion_9_monotone_coupling():
    with criterion(9, "coupled grids: |Cmax| and chi statistic nondecreasing in p"):
        start = time.perf_counter()
        dim = CubeDim(12)
        rng = np.random.default_rng(901)
        checked = 0
        for trial in range(1000):
            ps = np.sort(rng.uniform(0.0, 0.25, 3))
            # replicate `trial` at each p: one SeedSpec(902, trial), nested samples
            st = [replicate_stats(dim, p, 902, range(trial, trial + 1), chi=True, top=True)
                  for p in ps.tolist()]
            cmaxes = [int(x.cmax[0]) for x in st]
            chis = [float(x.chi[0]) for x in st]
            assert cmaxes[0] <= cmaxes[1] <= cmaxes[2], (ps, cmaxes)
            assert chis[0] <= chis[1] <= chis[2], (ps, chis)
            checked += 1
        assert checked == 1000
        assert time.perf_counter() - start < 120


def test_criterion_10_report_only_quantities(pc14):
    with criterion(10, "report-only: duality ratio, above-window ratios, triangle a0"):
        n = 14
        # eps = 0.45 keeps both grid points outside the default window band
        # (|Lambda| = 0.45 * 2^(14/3) = 11.4 > 10), so the summary carries
        # genuine below- and above-window sections.
        dual = duality_experiment(n, 0.45, 50, 1001, pc14)
        cfg = SweepConfig(n=n, epsilon_grid=(-0.45, 0.45), replicates=60,
                          master_seed=1002)
        records = run_sweep(cfg, pc14)

        # the triangle at p_hat itself: eps = 0, K1 = K2 = 1
        tri_cfg = SweepConfig(n=n, epsilon_grid=(0.0,), replicates=30, master_seed=1003,
                              observables=ObservableFlags(triangle=True))
        triangle = run_sweep(tri_cfg, pc14)[0].triangle

        summary = regime_summary(records, duality=dual, triangle=triangle)
        assert summary.duality_ratio is not None
        assert summary.triangle_offdiag is not None
        for line in summary.lines():
            print("  " + line)
        print(f"  triangle diag={triangle.nabla_diag:.4f} offdiag={triangle.nabla_offdiag:.4f} "
              f"a0={triangle.a0:.4f} (K1=K2=1)")

        # percolation-probability and concentration reports above the window
        eps = 0.45
        p_sup = pc14.p_hat + eps / n
        cut = n_alpha(pc14.p_hat, p_sup, n, 0.5)
        z_geq = replicate_stats(CubeDim(n), p_sup, 1004, range(40), z_at=math.ceil(cut)).z_geq
        theta = Estimate.from_samples(z_geq / 2**n)
        conc = z_concentration_check(CubeDim(n), z_geq, cut, eta1=0.2)
        print(f"  theta_alpha = {theta.mean:.4f} (theta/eps = {theta.mean / eps:.3f}, "
              f"upper reference 27)")
        print(f"  Z concentration: exceed frequency {conc.exceed_frequency:.3f} at "
              f"threshold {conc.threshold:.1f} over {conc.replicates} replicates")
