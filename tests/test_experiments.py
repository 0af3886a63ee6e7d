import math

import numpy as np
import pytest

from cubeperc.clusters import label_components, top_two
from cubeperc.critical import PcResult
from cubeperc.cube import CubeDim
from cubeperc.experiments import (
    DualityReport,
    ObservableFlags,
    SweepConfig,
    duality_experiment,
    exact_enumerate,
    regime_summary,
    run_sweep,
    sprinkling_experiment,
)
from cubeperc.gen import SeedSpec, sample_subgraph
from cubeperc.stats import Estimate

from _reference import enumerate_observables


def _pc_stub(n, p_hat, lam=1.0):
    return PcResult(n, lam, p_hat, 0.0, 0, Estimate(float("nan"), 0.0, 1), True)


def test_exact_enumerate_small_cases():
    for p in (0.0, 0.2, 0.5, 1.0):
        assert exact_enumerate(1, p).chi_exact == pytest.approx(1 + p, abs=1e-14)
    o = exact_enumerate(2, 0.5)
    assert o.chi_exact == 2.5625
    assert o.e_cmax_exact == 2.8125
    assert o.cluster_size_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    sizes = np.arange(o.cluster_size_pmf.shape[0])
    assert (sizes * o.cluster_size_pmf).sum() == pytest.approx(o.chi_exact, abs=1e-12)
    # against the independent BFS-based enumerator
    for n in (2, 3):
        for p in (0.1, 0.7):
            oracle = exact_enumerate(n, p)
            chi, e_cmax, pmf = enumerate_observables(n, p)
            assert oracle.chi_exact == pytest.approx(chi, abs=1e-12)
            assert oracle.e_cmax_exact == pytest.approx(e_cmax, abs=1e-12)
            assert oracle.cluster_size_pmf == pytest.approx(pmf, abs=1e-12)
    full = exact_enumerate(3, 1.0)
    assert full.chi_exact == 8.0 and full.e_cmax_exact == 8.0
    with pytest.raises(ValueError):
        exact_enumerate(4, 0.5)


def test_sweep_row_count_and_skips():
    cfg = SweepConfig(n=6, epsilon_grid=(-20.0, -0.3, 0.0, 0.3), replicates=10,
                      master_seed=4)
    records = run_sweep(cfg, pc=_pc_stub(6, 0.3))
    assert len(records) == 4
    assert records[0].skipped  # p = 0.3 - 20/6 < 0
    assert not records[1].skipped
    inside = records[2]
    assert inside.p == pytest.approx(0.3)
    assert inside.epsilon == 0.0
    assert inside.ref_inside == pytest.approx(2.0 ** (2 * 6 / 3))
    assert inside.cmax_mean >= inside.c2_mean >= 0.0
    above = records[3]
    assert above.n_alpha_cut is not None and above.theta is not None
    assert above.z_geq.mean == pytest.approx(above.theta.mean * 64)


def test_sweep_reference_values():
    cfg = SweepConfig(n=16, epsilon_grid=(-0.3,), replicates=1, master_seed=0,
                      observables=ObservableFlags(chi=False, theta=False, z=False))
    rec = run_sweep(cfg, pc=_pc_stub(16, 0.0673))[0]
    assert rec.ref_below == pytest.approx(2 * 16 * math.log(2) / 0.09, rel=1e-12)
    assert rec.ref_below == pytest.approx(246.45, abs=0.01)
    assert rec.ref_above == pytest.approx(2 * (-0.3) * 65536)


def test_sweep_coupled_rows_monotone_cmax():
    cfg = SweepConfig(n=8, epsilon_grid=(-0.5, 0.0, 0.5, 1.0), replicates=12,
                      master_seed=11)
    records = run_sweep(cfg, pc=_pc_stub(8, 0.15))
    dim = CubeDim(8)
    for r in range(12):
        per_row = []
        for rec in records:
            lab = label_components(sample_subgraph(dim, rec.p, SeedSpec(11, r)))
            per_row.append(top_two(lab)[0])
        assert per_row == sorted(per_row)


def test_sweep_observable_flags():
    flags = ObservableFlags(chi=False, cmax=True, c2=True, theta=False, z=False)
    cfg = SweepConfig(n=5, epsilon_grid=(0.2,), replicates=5, master_seed=1,
                      observables=flags)
    rec = run_sweep(cfg, pc=_pc_stub(5, 0.2))[0]
    assert rec.chi is None and rec.theta is None and rec.z_geq is None
    assert not math.isnan(rec.cmax_mean)
    # each flag of a pair fills only its own fields, with the values of both
    full = run_sweep(SweepConfig(n=5, epsilon_grid=(0.2,), replicates=5, master_seed=1), 0.2)[0]
    for only, filled in (("theta", "theta"), ("z", "z_geq"), ("cmax", "cmax_mean"),
                         ("c2", "c2_mean")):
        flags = ObservableFlags(**{k: k == only for k in ("chi", "cmax", "c2", "theta", "z")})
        rec = run_sweep(SweepConfig(n=5, epsilon_grid=(0.2,), replicates=5, master_seed=1,
                                    observables=flags), 0.2)[0]
        assert getattr(rec, filled) == getattr(full, filled)
        assert (rec.theta is None) == (only != "theta")
        assert (rec.z_geq is None) == (only != "z")
        assert math.isnan(rec.cmax_mean) == math.isnan(rec.cmax_median) == (only != "cmax")
        assert math.isnan(rec.c2_mean) == (only != "c2")


def test_threshold_as_float_or_result():
    cfg = SweepConfig(n=6, epsilon_grid=(-0.3, 0.4), replicates=4, master_seed=2)
    assert run_sweep(cfg, 0.2) == run_sweep(cfg, _pc_stub(6, 0.2))
    assert duality_experiment(6, 0.3, 3, 1, 0.2) == duality_experiment(6, 0.3, 3, 1,
                                                                      _pc_stub(6, 0.2))
    for call in (lambda pc: run_sweep(cfg, pc),
                 lambda pc: sprinkling_experiment(6, 0.3, 0.5, SeedSpec(0), pc),
                 lambda pc: duality_experiment(6, 0.3, 3, 1, pc)):
        with pytest.raises(ValueError, match="different dimension"):
            call(_pc_stub(7, 0.2))


def test_sweep_triangle_observable():
    flags = ObservableFlags(triangle=True)
    cfg = SweepConfig(n=5, epsilon_grid=(0.1,), replicates=5, master_seed=2,
                      observables=flags)
    rec = run_sweep(cfg, pc=_pc_stub(5, 0.2))[0]
    assert rec.triangle is not None
    assert rec.triangle.nabla_diag >= 1.0
    assert rec.triangle.a0 > 0


def test_sprinkling_base_layer_reproducible():
    # the base layer of the experiment equals a plain sample at p_minus
    pc = _pc_stub(10, 0.1)
    seed = SeedSpec(42, 7)
    report = sprinkling_experiment(10, 0.4, 0.5, seed, pc)
    dim = CubeDim(10)
    plain = label_components(sample_subgraph(dim, report.p_minus, seed))
    assert report.cmax_before == top_two(plain)[0]
    assert report.cmax_after >= report.cmax_before
    assert report.M >= 0
    assert report.p == pytest.approx(0.1 + 0.4 / 10)
    q = 0.4 / 20
    assert report.p_minus + q - q * report.p_minus == pytest.approx(report.p, rel=1e-14)


def test_sprinkling_counts_moderately_large_components():
    pc = _pc_stub(8, 0.12)
    report = sprinkling_experiment(8, 0.5, 0.5, SeedSpec(3, 0), pc)
    dim = CubeDim(8)
    lab = label_components(sample_subgraph(dim, report.p_minus, SeedSpec(3, 0)))
    threshold = math.ceil(2.0 ** (0.5 * 8 / 3))
    expected_m = int(lab.sizes_desc[lab.sizes_desc >= threshold].sum())
    assert report.M == expected_m
    if report.M > 0:
        assert report.merged_fraction == pytest.approx(report.cmax_after / report.M)


def test_sprinkling_validation():
    pc = _pc_stub(8, 0.12)
    with pytest.raises(ValueError):
        sprinkling_experiment(8, -0.1, 0.5, SeedSpec(0), pc)
    with pytest.raises(ValueError):
        sprinkling_experiment(8, 0.5, 1.5, SeedSpec(0), pc)
    # p = p_hat + eps/n above 1 is rejected, not clamped; p = 1 itself is allowed
    with pytest.raises(ValueError, match="above 1"):
        sprinkling_experiment(8, 7.5, 0.5, SeedSpec(0), _pc_stub(8, 0.1))
    assert sprinkling_experiment(4, 2.0, 0.5, SeedSpec(0), _pc_stub(4, 0.5)).p == 1.0


def test_duality_edges():
    pc = _pc_stub(6, 0.5)
    report = duality_experiment(6, 3.0, 5, 21, pc)  # p_above = 1.0, p_below = 0.0
    assert report.p_above == pytest.approx(1.0)
    assert all(c2 == 0 for c2 in report.c2_above)
    assert all(cm == 1 for cm in report.cmax_below)
    assert report.ratio_of_means == 0.0
    with pytest.raises(ValueError):
        duality_experiment(6, 4.0, 5, 21, pc)


def test_regime_summary_sections():
    cfg = SweepConfig(n=10, epsilon_grid=(-1.0, 0.0, 1.0), replicates=8, master_seed=6)
    records = run_sweep(cfg, pc=_pc_stub(10, 0.105))
    summary = regime_summary(records)
    regimes = {e.regime for e in summary.entries}
    assert "below" in regimes and "inside" in regimes and "above" in regimes
    metrics = {e.metric for e in summary.entries}
    assert "chi / (4 eps^2 V)" in metrics
    assert summary.duality_ratio is None
    dual = DualityReport(10, 1.0, 0.2, 0.0, (5, 6), (7, 8), 11.0 / 15.0)
    with_dual = regime_summary(records, duality=dual)
    assert with_dual.duality_ratio == pytest.approx(11.0 / 15.0)
    assert any("duality" in line for line in with_dual.lines())
    with pytest.raises(ValueError):
        regime_summary([])


def test_regime_summary_uses_exact_volume():
    for n, eps in ((10, 1.0), (10, 1.3), (7, 2.3)):
        cfg = SweepConfig(n=n, epsilon_grid=(eps,), replicates=6, master_seed=1)
        rec = run_sweep(cfg, 1.0 / n)[0]
        assert rec.regime == "above"
        [entry] = [e for e in regime_summary([rec]).entries if e.metric == "chi / (4 eps^2 V)"]
        assert entry.value == rec.chi.mean / (4.0 * eps**2 * 2**n)


def test_regime_summary_single_inside_row():
    cfg = SweepConfig(n=6, epsilon_grid=(0.0,), replicates=4, master_seed=3)
    records = run_sweep(cfg, pc=_pc_stub(6, 0.2))
    summary = regime_summary(records)
    assert len(summary.entries) == 1
    entry = summary.entries[0]
    assert entry.regime == "inside" and entry.rows == 1
    assert entry.value == pytest.approx(records[0].cmax_mean / records[0].ref_inside)
