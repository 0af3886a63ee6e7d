"""Scripted drivers for the phase picture: sweeps, sprinkling, duality, exact oracle.

Replicate r of every experiment draws its uniforms from (master_seed, r),
so rows of an epsilon sweep are coupled across the grid: the same replicate
index sees nested occupancies as the density grows, and per-replicate
largest-cluster sizes are monotone along the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clusters import ClusterLabeling, count_z_geq, label_components, top_two
from .critical import DEFAULT_LAMBDA, PcResult, solve_pc, window_coord
from .cube import CubeDim
from .gen import SeedSpec, sample_subgraph, sprinkle_split, union_graphs
from .stats import (
    Estimate,
    RadialProfile,
    TriangleReport,
    chi_sample,
    n_alpha,
    pair_census,
    radial_totals,
    triangle_diagram_hat,
)

__all__ = [
    "ObservableFlags",
    "SweepConfig",
    "SweepRecord",
    "SprinkleReport",
    "DualityReport",
    "ExactOracle",
    "RegimeSummary",
    "run_sweep",
    "sprinkling_experiment",
    "duality_experiment",
    "exact_enumerate",
    "regime_summary",
]

SPRINKLE_SALT = 0xA5A5F00DD00DF00D
DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class ObservableFlags:
    chi: bool = True
    cmax: bool = True
    c2: bool = True
    theta: bool = True
    z: bool = True
    triangle: bool = False


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one epsilon-grid sweep."""

    n: int
    lam: float = DEFAULT_LAMBDA
    alpha: float = DEFAULT_ALPHA
    epsilon_grid: tuple[float, ...] = (0.0,)
    replicates: int = 100
    master_seed: int = 0
    observables: ObservableFlags = field(default_factory=ObservableFlags)
    k1: float = 1.0
    k2: float = 1.0

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not all(math.isfinite(e) for e in self.epsilon_grid):
            raise ValueError("epsilon grid must be finite")


@dataclass(frozen=True)
class SweepRecord:
    """Measured observables for one grid density, with regime reference scales."""

    epsilon: float
    Lambda: float
    p: float
    regime: str
    skipped: bool
    chi: Estimate | None
    cmax_mean: float
    cmax_median: float
    c2_mean: float
    theta: Estimate | None
    z_geq: Estimate | None
    n_alpha_cut: float | None
    ref_below: float
    ref_inside: float
    ref_above: float
    triangle: TriangleReport | None = None


@dataclass(frozen=True)
class SprinkleReport:
    """One two-layer merge experiment: base layer, sprinkle, and the union."""

    n: int
    epsilon: float
    alpha: float
    p: float
    p_minus: float
    M: int
    cmax_before: int
    cmax_after: int
    c2_after: int
    merged_fraction: float


@dataclass(frozen=True)
class DualityReport:
    """Second-largest cluster above the window vs the largest mirrored below it."""

    n: int
    epsilon: float
    p_above: float
    p_below: float
    c2_above: tuple[int, ...]
    cmax_below: tuple[int, ...]
    ratio_of_means: float


@dataclass(frozen=True)
class ExactOracle:
    """Exhaustive enumeration of all bond configurations (n <= 3)."""

    n: int
    p: float
    chi_exact: float
    e_cmax_exact: float
    cluster_size_pmf: np.ndarray

    def __post_init__(self) -> None:
        self.cluster_size_pmf.setflags(write=False)


@dataclass(frozen=True)
class SummaryEntry:
    regime: str
    metric: str
    value: float
    rows: int


@dataclass(frozen=True)
class RegimeSummary:
    entries: tuple[SummaryEntry, ...]
    duality_ratio: float | None = None
    triangle_offdiag: float | None = None
    triangle_a0: float | None = None

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            out.append(f"{e.regime:>7}  {e.metric:<24} {e.value:.6g}   ({e.rows} rows)")
        if self.duality_ratio is not None:
            out.append(f"duality  mean|C2|(+eps) / mean|Cmax|(-eps) = {self.duality_ratio:.6g}")
        if self.triangle_offdiag is not None:
            out.append(f"triangle offdiag = {self.triangle_offdiag:.6g}  vs  a0 = {self.triangle_a0:.6g}")
        return out


def _references(n: int, eps: float) -> tuple[float, float, float]:
    v = float(1 << n)
    ref_below = 2.0 * n * math.log(2.0) / (eps * eps) if eps != 0.0 else math.inf
    ref_inside = v ** (2.0 / 3.0)
    ref_above = 2.0 * eps * v
    return ref_below, ref_inside, ref_above


def _coerce_pc(n: int, lam: float, pc: PcResult | float | None, master_seed: int) -> PcResult:
    if pc is None:
        return solve_pc(CubeDim(n), lam, master_seed=master_seed)
    if isinstance(pc, PcResult):
        if pc.n != n:
            raise ValueError("threshold result is for a different dimension")
        return pc
    return PcResult(n, lam, float(pc), 0.0, 0, Estimate(float("nan"), 0.0, 1), True)


def run_sweep(cfg: SweepConfig, pc: PcResult | float | None = None) -> list[SweepRecord]:
    """Measure flagged observables on a grid of eps = n(p - p_hat) values.

    Rows whose density falls outside [0, 1] are emitted skipped.  Replicate
    seeds are shared across rows, so the grid is monotone-coupled.
    """
    pc = _coerce_pc(cfg.n, cfg.lam, pc, cfg.master_seed)
    dim = CubeDim(cfg.n)
    flags = cfg.observables
    records: list[SweepRecord] = []
    for eps in cfg.epsilon_grid:
        p = pc.p_hat + eps / cfg.n
        coord = window_coord(p, pc)
        ref_below, ref_inside, ref_above = _references(cfg.n, eps)
        if not 0.0 <= p <= 1.0:
            records.append(SweepRecord(eps, coord.Lambda, p, coord.regime, True, None,
                                       float("nan"), float("nan"), float("nan"),
                                       None, None, None, ref_below, ref_inside, ref_above))
            continue

        cut = None
        if eps > 0.0 and p > pc.p_hat:
            cut = n_alpha(pc.p_hat, p, cfg.n, cfg.alpha)

        chi_samples: list[float] = []
        cmaxes: list[int] = []
        c2s: list[int] = []
        thetas: list[float] = []
        zs: list[float] = []
        census = np.zeros(cfg.n + 1, dtype=np.int64)
        for r in range(cfg.replicates):
            lab = label_components(sample_subgraph(dim, p, SeedSpec(cfg.master_seed, r)))
            if flags.chi:
                chi_samples.append(chi_sample(lab))
            if flags.cmax or flags.c2:
                big, second = top_two(lab)
                cmaxes.append(big)
                c2s.append(second)
            if (flags.theta or flags.z) and cut is not None:
                z = count_z_geq(lab, math.ceil(cut))
                zs.append(float(z))
                thetas.append(z / dim.volume)
            if flags.triangle:
                census += pair_census(lab)

        triangle = None
        if flags.triangle:
            profile = RadialProfile(dim, census / (radial_totals(dim) * cfg.replicates))
            chi_pt = float(np.mean(chi_samples)) if chi_samples else float("nan")
            triangle = triangle_diagram_hat(profile, chi_pt, cfg.k1, cfg.k2, p=p)

        records.append(SweepRecord(
            epsilon=eps,
            Lambda=coord.Lambda,
            p=p,
            regime=coord.regime,
            skipped=False,
            chi=Estimate.from_samples(np.array(chi_samples)) if chi_samples else None,
            cmax_mean=float(np.mean(cmaxes)) if cmaxes else float("nan"),
            cmax_median=float(np.median(cmaxes)) if cmaxes else float("nan"),
            c2_mean=float(np.mean(c2s)) if c2s else float("nan"),
            theta=Estimate.from_samples(np.array(thetas)) if thetas else None,
            z_geq=Estimate.from_samples(np.array(zs)) if zs else None,
            n_alpha_cut=cut,
            ref_below=ref_below,
            ref_inside=ref_inside,
            ref_above=ref_above,
            triangle=triangle,
        ))
    return records


def sprinkling_experiment(n: int, eps: float, alpha: float, seed: SeedSpec,
                          pc: PcResult | float | None = None,
                          lam: float = DEFAULT_LAMBDA) -> SprinkleReport:
    """Two-layer merge: base graph at p_minus, independent sprinkle at eps/(2n).

    M counts the vertices of the base graph lying in components of size at
    least 2^(alpha*n/3); the report compares the union's largest cluster
    against M/3, the merge target.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    pc = _coerce_pc(n, lam, pc, seed.master_seed)
    dim = CubeDim(n)
    p = pc.p_hat + eps / n
    if p > 1.0:
        raise ValueError(f"eps pushes p = p_hat + eps/n = {p} above 1")
    q = eps / (2.0 * n)
    if q > p:
        raise ValueError("sprinkling layer density exceeds the total density")
    p_minus = sprinkle_split(n, p, eps)

    base = sample_subgraph(dim, p_minus, seed)
    sprinkle = sample_subgraph(dim, q, SeedSpec(seed.master_seed ^ SPRINKLE_SALT,
                                                seed.replicate_index))
    lab_before = label_components(base)
    threshold = math.ceil(2.0 ** (alpha * n / 3.0))
    m_vertices = count_z_geq(lab_before, threshold)
    cmax_before, _ = top_two(lab_before)
    lab_after = label_components(union_graphs(base, sprinkle))
    cmax_after, c2_after = top_two(lab_after)
    merged = cmax_after / m_vertices if m_vertices > 0 else float("nan")
    return SprinkleReport(n, eps, alpha, p, p_minus, m_vertices,
                          cmax_before, cmax_after, c2_after, merged)


def duality_experiment(n: int, eps: float, replicates: int, master_seed: int,
                       pc: PcResult | float | None = None,
                       lam: float = DEFAULT_LAMBDA) -> DualityReport:
    """Second-largest cluster at p_hat + eps/n vs largest at p_hat - eps/n.

    Matched replicate seeds on both sides.  Report-only: the ratio of means
    probes the mirrored-density conjecture, nothing is asserted.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    pc = _coerce_pc(n, lam, pc, master_seed)
    dim = CubeDim(n)
    p_above = pc.p_hat + eps / n
    p_below = pc.p_hat - eps / n
    if p_below < 0.0 or p_above > 1.0:
        raise ValueError("eps pushes one side outside [0, 1]")
    c2_above = []
    cmax_below = []
    for r in range(replicates):
        seed = SeedSpec(master_seed, r)
        _, second = top_two(label_components(sample_subgraph(dim, p_above, seed)))
        c2_above.append(second)
        big, _ = top_two(label_components(sample_subgraph(dim, p_below, seed)))
        cmax_below.append(big)
    ratio = float(np.mean(c2_above) / np.mean(cmax_below))
    return DualityReport(n, eps, p_above, p_below, tuple(c2_above), tuple(cmax_below), ratio)


def _label_edge_subset(v_count: int, edges: list[tuple[int, int]], mask: int) -> list[int]:
    """Tiny union-find over the edges selected by `mask`; returns parent array."""
    parent = list(range(v_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (u, v) in enumerate(edges):
        if mask >> i & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return [find(x) for x in range(v_count)]


def exact_enumerate(n: int, p: float) -> ExactOracle:
    """Exact observables by iterating every bond configuration (n <= 3).

    Each of the 2^(n * 2^(n-1)) configurations is weighted by its Bernoulli
    probability; sums are accumulated exactly with math.fsum.
    """
    if n not in (1, 2, 3):
        raise ValueError("exhaustive enumeration is limited to n in {1, 2, 3}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    dim = CubeDim(n)
    v_count = dim.volume
    edges = []
    for d in range(n):
        for vertex in range(v_count):
            if not vertex >> d & 1:
                edges.append((vertex, vertex | 1 << d))
    m = len(edges)
    weight_by_count = [p**k * (1.0 - p) ** (m - k) for k in range(m + 1)]

    chi_terms: list[float] = []
    cmax_terms: list[float] = []
    pmf_terms: list[list[float]] = [[] for _ in range(v_count + 1)]
    for mask in range(1 << m):
        roots = _label_edge_subset(v_count, edges, mask)
        sizes: dict[int, int] = {}
        for r in roots:
            sizes[r] = sizes.get(r, 0) + 1
        w = weight_by_count[mask.bit_count()]
        ssq = sum(s * s for s in sizes.values())
        chi_terms.append(w * ssq / v_count)
        cmax_terms.append(w * max(sizes.values()))
        pmf_terms[sizes[roots[0]]].append(w)

    pmf = np.array([math.fsum(terms) for terms in pmf_terms])
    return ExactOracle(n, p, math.fsum(chi_terms), math.fsum(cmax_terms), pmf)


def regime_summary(records: list[SweepRecord], duality: DualityReport | None = None,
                   triangle: TriangleReport | None = None) -> RegimeSummary:
    """Aggregate measured largest-cluster sizes against their regime scales.

    Below the window the scale is 2 log V / eps^2, inside it V^(2/3), above
    it 2 eps V with the susceptibility compared to 4 eps^2 V.  Conjectural
    quantities (duality ratio, triangle bound) are attached for inspection.
    """
    if not records:
        raise ValueError("no records to summarize")
    entries: list[SummaryEntry] = []
    for regime, metric, kind in (
        ("below", "cmax / (2 log V / eps^2)", "cmax_below"),
        ("inside", "cmax / V^(2/3)", "cmax_inside"),
        ("above", "cmax / (2 eps V)", "cmax_above"),
        ("above", "chi / (4 eps^2 V)", "chi_above"),
    ):
        ratios = []
        for rec in records:
            if rec.skipped or rec.regime != regime:
                continue
            volume = rec.ref_inside ** 1.5  # ref_inside stores V^(2/3)
            if kind == "cmax_below" and not math.isnan(rec.cmax_mean) and math.isfinite(rec.ref_below):
                ratios.append(rec.cmax_mean / rec.ref_below)
            elif kind == "cmax_inside" and not math.isnan(rec.cmax_mean):
                ratios.append(rec.cmax_mean / rec.ref_inside)
            elif kind == "cmax_above" and not math.isnan(rec.cmax_mean) and rec.ref_above > 0:
                ratios.append(rec.cmax_mean / rec.ref_above)
            elif kind == "chi_above" and rec.chi is not None and rec.epsilon > 0:
                ratios.append(rec.chi.mean / (4.0 * rec.epsilon**2 * volume))
        if ratios:
            entries.append(SummaryEntry(regime, metric, float(np.mean(ratios)), len(ratios)))
    return RegimeSummary(
        entries=tuple(entries),
        duality_ratio=duality.ratio_of_means if duality else None,
        triangle_offdiag=triangle.nabla_offdiag if triangle else None,
        triangle_a0=triangle.a0 if triangle else None,
    )
