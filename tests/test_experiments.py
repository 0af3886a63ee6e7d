import collections
import dataclasses
import math

import numpy as np
import pytest

from cubeperc import experiments, reports, stats
from cubeperc.clusters import label_components, top_two
from cubeperc.critical import pc_expansion_reference
from cubeperc.cube import CubeDim
from cubeperc.experiments import (
    SPRINKLE_SALT,
    ObservableFlags,
    RegimeSummary,
    SummaryEntry,
    SweepConfig,
    exact_enumerate,
    regime_summary,
    run_sweep,
    sprinkling_experiment,
)
from cubeperc.gen import SeedSpec, sample_subgraph
from cubeperc.stats import replicate_stats

from _reference import enumerate_observables, union_graphs


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
            chi, e_cmax, pmf, _ = enumerate_observables(n, p)
            assert oracle.chi_exact == pytest.approx(chi, abs=1e-12)
            assert oracle.e_cmax_exact == pytest.approx(e_cmax, abs=1e-12)
            assert oracle.cluster_size_pmf == pytest.approx(pmf, abs=1e-12)
    full = exact_enumerate(3, 1.0)
    assert full.chi_exact == 8.0 and full.e_cmax_exact == 8.0
    with pytest.raises(ValueError):
        exact_enumerate(4, 0.5)
    with pytest.raises(ValueError, match="p must lie"):
        exact_enumerate(2, 2.0)


def test_sweep_row_count_and_skips():
    cfg = SweepConfig(n=6, epsilon_grid=(-20.0, -0.3, 0.0, 0.3), replicates=10,
                      master_seed=4)
    records = run_sweep(cfg, p_hat=0.3)
    assert len(records) == 4
    skipped = records[0]
    assert skipped.skipped  # p = 0.3 - 20/6 < 0
    assert (skipped.chi, skipped.cmax_mean, skipped.cmax_median, skipped.c2_mean,
            skipped.theta, skipped.z_geq, skipped.n_alpha_cut) == (None,) * 7
    assert not records[1].skipped
    for rec in records[1:]:
        assert rec.chi is not None
        assert not any(math.isnan(v) for v in (rec.cmax_mean, rec.cmax_median, rec.c2_mean))
        # theta and z are measured above p_hat only
        assert (rec.theta is not None) == (rec.z_geq is not None) == (rec.p > 0.3)
    inside = records[2]
    assert inside.p == pytest.approx(0.3)
    assert inside.epsilon == 0.0
    assert inside.ref_inside == pytest.approx(2.0 ** (2 * 6 / 3))
    assert inside.cmax_mean >= inside.c2_mean >= 0.0
    above = records[3]
    assert above.n_alpha_cut is not None and above.theta is not None
    assert above.z_geq.mean == pytest.approx(above.theta.mean * 64)


def test_sweep_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="grid is empty"):
        SweepConfig(n=6, epsilon_grid=())


def test_sweep_ladder_matches_one_density_sweeps():
    # one replicate_stats call serves an unsorted grid with a repeated value
    # and two skipped rows (p below 0 and above 1); rows stay in grid order
    p_hat = 0.2
    cfg = SweepConfig(n=7, epsilon_grid=(0.4, -0.3, 50.0, 0.0, 0.4, -2.0, 1.1), replicates=6,
                      master_seed=12, observables=ObservableFlags(triangle=True))
    ladder = run_sweep(cfg, p_hat)
    single = [run_sweep(dataclasses.replace(cfg, epsilon_grid=(eps,)), p_hat)[0]
              for eps in cfg.epsilon_grid]
    assert [r.skipped for r in ladder] == [False, False, True, False, False, True, False]
    assert [repr(r) for r in ladder] == [repr(r) for r in single]


def test_sweep_reaches_its_reducers_through_module_names(monkeypatch):
    # the benchmark probe counts layer calls by rebinding these module names
    # after import, so each call must look its reducers up when it runs: one
    # chi, top-two and census call per (replicate, density), and count_z_geq
    # only at the densities with a cut, at that cut
    cfg = SweepConfig(n=6, epsilon_grid=(-0.3, 0.0, 50.0, 0.5, 1.0), replicates=4,
                      master_seed=3, observables=ObservableFlags(triangle=True))
    p_hat = 0.2
    expected = run_sweep(cfg, p_hat)
    live = sum(not r.skipped for r in expected)
    calls = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(labeling, **kwargs):
            calls[name, kwargs.get("k")] += 1
            return fn(labeling, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((stats, "chi_sample"), (stats, "top_two"),
                         (experiments, "count_z_geq"), (experiments, "pair_census")):
        counted(module, name)
    records = run_sweep(cfg, p_hat)
    assert [repr(r) for r in records] == [repr(r) for r in expected]
    cuts = [math.ceil(r.n_alpha_cut) for r in records if r.n_alpha_cut is not None]
    assert live == 4 and len(set(cuts)) == 2
    assert calls == {("chi_sample", None): cfg.replicates * live,
                     ("top_two", None): cfg.replicates * live,
                     ("pair_census", None): cfg.replicates * live,
                     **{("count_z_geq", k): cfg.replicates for k in cuts}}


def test_sweep_reference_values():
    cfg = SweepConfig(n=16, epsilon_grid=(-0.3,), replicates=1, master_seed=0)
    rec = run_sweep(cfg, p_hat=0.0673)[0]
    assert rec.ref_below == pytest.approx(2 * 16 * math.log(2) / 0.09, rel=1e-12)
    assert rec.ref_below == pytest.approx(246.45, abs=0.01)
    assert rec.ref_above == pytest.approx(2 * (-0.3) * 65536)


def test_sweep_coupled_rows_monotone_cmax():
    cfg = SweepConfig(n=8, epsilon_grid=(-0.5, 0.0, 0.5, 1.0), replicates=12,
                      master_seed=11)
    records = run_sweep(cfg, p_hat=0.15)
    dim = CubeDim(8)
    for r in range(12):
        per_row = []
        for rec in records:
            lab = label_components(sample_subgraph(dim, rec.p, SeedSpec(11, r)))
            per_row.append(top_two(lab)[0])
        assert per_row == sorted(per_row)


def test_sweep_triangle_observable():
    flags = ObservableFlags(triangle=True)
    cfg = SweepConfig(n=5, epsilon_grid=(0.1,), replicates=5, master_seed=2,
                      observables=flags)
    rec = run_sweep(cfg, p_hat=0.2)[0]
    assert rec.triangle is not None
    assert rec.triangle.nabla_diag >= 1.0
    assert rec.triangle.a0 > 0


def test_sprinkling_base_layer_reproducible():
    # the base layer of the experiment equals a plain sample at p_minus
    p_hat = 0.1
    seed = SeedSpec(42, 7)
    report = sprinkling_experiment(10, 0.4, 0.5, seed, p_hat)
    dim = CubeDim(10)
    plain = label_components(sample_subgraph(dim, report.p_minus, seed))
    assert report.cmax_before == top_two(plain)[0]
    assert report.cmax_after >= report.cmax_before
    assert report.M >= 0
    assert report.p == pytest.approx(0.1 + 0.4 / 10)
    q = 0.4 / 20
    assert report.p_minus + q - q * report.p_minus == pytest.approx(report.p, rel=1e-14)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_sprinkling_join_matches_cold_union_labeling(n):
    # the experiment joins the sprinkle onto the base labeling; the union of
    # both layers, labeled cold, must give the same two largest clusters
    dim = CubeDim(n)
    p_hat = pc_expansion_reference(n)
    for master, replicate in ((1, 0), (5, 3), (17, 2), (2026, 0)):
        seed = SeedSpec(master, replicate)
        report = sprinkling_experiment(n, 1.0, 0.5, seed, p_hat)
        base = sample_subgraph(dim, report.p_minus, seed)
        sprinkle = sample_subgraph(dim, 1.0 / (2 * n),
                                   SeedSpec(master ^ SPRINKLE_SALT, replicate))
        cold = label_components(union_graphs(base, sprinkle))
        assert (report.cmax_after, report.c2_after) == top_two(cold)


def test_sprinkling_counts_moderately_large_components():
    p_hat = 0.12
    report = sprinkling_experiment(8, 0.5, 0.5, SeedSpec(3, 0), p_hat)
    dim = CubeDim(8)
    lab = label_components(sample_subgraph(dim, report.p_minus, SeedSpec(3, 0)))
    threshold = math.ceil(2.0 ** (0.5 * 8 / 3))
    expected_m = int(lab.sizes_desc[lab.sizes_desc >= threshold].sum())
    assert report.M == expected_m
    if report.M > 0:
        assert report.merged_fraction == pytest.approx(report.cmax_after / report.M)


def test_sprinkling_validation():
    p_hat = 0.12
    with pytest.raises(ValueError):
        sprinkling_experiment(8, -0.1, 0.5, SeedSpec(0), p_hat)
    with pytest.raises(ValueError):
        sprinkling_experiment(8, 0.5, 1.5, SeedSpec(0), p_hat)
    # p = p_hat + eps/n above 1 is rejected, not clamped; p = 1 itself is allowed
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        sprinkling_experiment(8, 7.5, 0.5, SeedSpec(0), 0.1)
    assert sprinkling_experiment(4, 2.0, 0.5, SeedSpec(0), 0.5).p == 1.0


def _duality_entries(summary):
    return {e.metric: e.value for e in summary.entries if e.metric.startswith("duality")}


def test_duality_edges():
    # p = 1 above, p = 0 below: |C_2| = 0 over |C_max| = 1
    records = run_sweep(SweepConfig(n=6, epsilon_grid=(-3.0, 3.0), replicates=5,
                                    master_seed=21), p_hat=0.5)
    assert [rec.p for rec in records] == [0.0, 1.0]
    assert (records[0].cmax_mean, records[1].c2_mean) == (1.0, 0.0)
    assert _duality_entries(regime_summary(records)) == {"duality c2(+3.0)/cmax(-3.0)": 0.0}
    # the -2 side falls below p = 0: a skipped row, so its pair gets no ratio
    records = run_sweep(SweepConfig(n=6, epsilon_grid=(-2.0, 2.0), replicates=5,
                                    master_seed=21), p_hat=0.2)
    assert [rec.skipped for rec in records] == [True, False]
    assert records[1].c2_mean is not None
    assert _duality_entries(regime_summary(records)) == {}
    # a grid with no mirror has no pair
    records = run_sweep(SweepConfig(n=6, epsilon_grid=(-0.3, 0.5), replicates=5,
                                    master_seed=21), p_hat=0.2)
    assert _duality_entries(regime_summary(records)) == {}


@pytest.mark.parametrize("n, eps, replicates, seed, p_hat", [
    (8, 0.5, 6, 1, 0.12),
    (10, 0.3, 20, 5, 0.115),
])
def test_duality_ratio_matches_matched_replicates(n, eps, replicates, seed, p_hat):
    # the ratio of means over the same replicate seeds on both sides of p_hat
    below, above = replicate_stats(CubeDim(n), (p_hat - eps / n, p_hat + eps / n), seed,
                                   range(replicates))
    expected = float(np.mean(above["top"][:, 1]) / np.mean(below["top"][:, 0]))
    records = run_sweep(SweepConfig(n=n, epsilon_grid=(-eps, 0.0, eps), replicates=replicates,
                                    master_seed=seed), p_hat)
    assert _duality_entries(regime_summary(records)) == {
        f"duality c2(+{eps!r})/cmax(-{eps!r})": expected}


def test_regime_summary_sections():
    cfg = SweepConfig(n=10, epsilon_grid=(-1.0, 0.0, 1.0, 2.0), replicates=8, master_seed=6)
    records = run_sweep(cfg, p_hat=0.105)
    summary = regime_summary(records)
    regimes = {e.regime for e in summary.entries}
    assert regimes == {"below", "inside", "above", "conjecture"}
    metrics = {e.metric for e in summary.entries}
    assert "chi / (4 eps^2 V)" in metrics
    # +1 has a mirror, +2 has none; no record carries a triangle
    [dual] = [e for e in summary.entries if e.regime == "conjecture"]
    assert dual == SummaryEntry("conjecture", "duality c2(+1.0)/cmax(-1.0)",
                                records[2].c2_mean / records[0].cmax_mean, 2)
    assert summary.entries[-1] == dual
    assert "duality c2(+1.0)/cmax(-1.0)" in summary.lines()[-1]
    with pytest.raises(ValueError):
        regime_summary([])


def test_regime_summary_reads_the_triangle_closest_to_p_hat():
    cfg = SweepConfig(n=6, epsilon_grid=(0.5, -0.3, 0.3, 0.0), replicates=4, master_seed=2,
                      observables=ObservableFlags(triangle=True))
    records = run_sweep(cfg, p_hat=0.2)
    conjecture = [e for e in regime_summary(records).entries if e.regime == "conjecture"]
    tri = records[3].triangle
    assert conjecture == [
        SummaryEntry("conjecture", "duality c2(+0.3)/cmax(-0.3)",
                     records[2].c2_mean / records[1].cmax_mean, 2),
        SummaryEntry("conjecture", "triangle nabla_offdiag", tri.nabla_offdiag, 1),
        SummaryEntry("conjecture", "triangle a0", tri.a0, 1),
    ]
    # with no eps = 0 row, -0.3 and +0.3 tie and the first in grid order wins
    tied = [rec for rec in records if rec.epsilon != 0.0]
    assert regime_summary(tied).entries[-1] == SummaryEntry(
        "conjecture", "triangle a0", records[1].triangle.a0, 1)


def test_summary_rows_render_the_conjecture_rows():
    summary = RegimeSummary((SummaryEntry("inside", "cmax / V^(2/3)", 0.5, 2),
                             SummaryEntry("conjecture", "duality c2(+0.3)/cmax(-0.3)", 0.75, 2),
                             SummaryEntry("conjecture", "triangle nabla_offdiag", 0.25, 1),
                             SummaryEntry("conjecture", "triangle a0", 1.5, 1)))
    assert reports.summary_rows(summary) == [
        ["inside", "cmax / V^(2/3)", 0.5, 2],
        ["conjecture", "duality c2(+0.3)/cmax(-0.3)", 0.75, 2],
        ["conjecture", "triangle nabla_offdiag", 0.25, 1],
        ["conjecture", "triangle a0", 1.5, 1],
    ]


def test_regime_summary_uses_exact_volume():
    for n, eps in ((10, 1.0), (10, 1.3), (7, 2.3)):
        cfg = SweepConfig(n=n, epsilon_grid=(eps,), replicates=6, master_seed=1)
        rec = run_sweep(cfg, 1.0 / n)[0]
        assert rec.regime == "above"
        [entry] = [e for e in regime_summary([rec]).entries if e.metric == "chi / (4 eps^2 V)"]
        assert entry.value == rec.chi.mean / (4.0 * eps**2 * 2**n)


def test_regime_summary_single_inside_row():
    cfg = SweepConfig(n=6, epsilon_grid=(0.0,), replicates=4, master_seed=3)
    records = run_sweep(cfg, p_hat=0.2)
    summary = regime_summary(records)
    assert len(summary.entries) == 1
    entry = summary.entries[0]
    assert entry.regime == "inside" and entry.rows == 1
    assert entry.value == pytest.approx(records[0].cmax_mean / records[0].ref_inside)
