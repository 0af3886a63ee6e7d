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

from .clusters import count_z_geq, label_components, top_two
from .critical import PcResult, window_coord
from .cube import CubeDim
from .gen import OccupiedGraph, SeedSpec, sample_subgraph, sprinkle_split, union_graphs
from .stats import (
    Estimate,
    TriangleReport,
    n_alpha,
    replicate_stats,
    triangle_diagram_hat,
    two_point_profile,
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
    """Which observables a sweep reports; each flag fills only its own fields."""

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


def _p_hat(n: int, pc: PcResult | float) -> float:
    """The threshold as a float; a solved result must be for dimension n."""
    if isinstance(pc, PcResult):
        if pc.n != n:
            raise ValueError("threshold result is for a different dimension")
        return pc.p_hat
    return float(pc)


def run_sweep(cfg: SweepConfig, pc: PcResult | float) -> list[SweepRecord]:
    """Measure flagged observables on a grid of eps = n(p - p_hat) values.

    Rows whose density falls outside [0, 1] are emitted skipped.  Replicate
    seeds are shared across rows, so the grid is monotone-coupled.
    """
    p_hat = _p_hat(cfg.n, pc)
    dim = CubeDim(cfg.n)
    flags = cfg.observables
    records: list[SweepRecord] = []
    for eps in cfg.epsilon_grid:
        p = p_hat + eps / cfg.n
        coord = window_coord(p, cfg.n, p_hat)
        ref_below, ref_inside, ref_above = _references(cfg.n, eps)
        if not 0.0 <= p <= 1.0:
            records.append(SweepRecord(eps, coord.Lambda, p, coord.regime, True, None,
                                       float("nan"), float("nan"), float("nan"),
                                       None, None, None, ref_below, ref_inside, ref_above))
            continue

        cut = None
        if eps > 0.0 and p > p_hat:
            cut = n_alpha(p_hat, p, cfg.n, cfg.alpha)
        z_at = math.ceil(cut) if (flags.theta or flags.z) and cut is not None else None
        st = replicate_stats(dim, p, cfg.master_seed, range(cfg.replicates), chi=flags.chi,
                             top=flags.cmax or flags.c2, z_at=z_at, census=flags.triangle)

        triangle = None
        if flags.triangle:
            chi_pt = float(np.mean(st.chi)) if flags.chi else float("nan")
            triangle = triangle_diagram_hat(two_point_profile(dim, st.census), chi_pt,
                                            cfg.k1, cfg.k2, p=p)

        records.append(SweepRecord(
            epsilon=eps,
            Lambda=coord.Lambda,
            p=p,
            regime=coord.regime,
            skipped=False,
            chi=Estimate.from_samples(st.chi) if flags.chi else None,
            cmax_mean=float(np.mean(st.cmax)) if flags.cmax else math.nan,
            cmax_median=float(np.median(st.cmax)) if flags.cmax else math.nan,
            c2_mean=float(np.mean(st.c2)) if flags.c2 else math.nan,
            theta=Estimate.from_samples(st.z_geq / dim.volume)
            if flags.theta and z_at is not None else None,
            z_geq=Estimate.from_samples(st.z_geq) if flags.z and z_at is not None else None,
            n_alpha_cut=cut,
            ref_below=ref_below,
            ref_inside=ref_inside,
            ref_above=ref_above,
            triangle=triangle,
        ))
    return records


def sprinkling_experiment(n: int, eps: float, alpha: float, seed: SeedSpec,
                          pc: PcResult | float) -> SprinkleReport:
    """Two-layer merge: base graph at p_minus, independent sprinkle at eps/(2n).

    M counts the vertices of the base graph lying in components of size at
    least 2^(alpha*n/3); the report compares the union's largest cluster
    against M/3, the merge target.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    dim = CubeDim(n)
    p = _p_hat(n, pc) + eps / n
    if p > 1.0:
        raise ValueError(f"eps pushes p = p_hat + eps/n = {p} above 1")
    p_minus = sprinkle_split(n, p, eps)  # checks eps > 0 and p >= eps/(2n)

    base = sample_subgraph(dim, p_minus, seed)
    sprinkle_seed = SeedSpec(seed.master_seed ^ SPRINKLE_SALT, seed.replicate_index)
    sprinkle = sample_subgraph(dim, eps / (2.0 * n), sprinkle_seed)
    lab_before = label_components(base)
    threshold = math.ceil(2.0 ** (alpha * n / 3.0))
    m_vertices = count_z_geq(lab_before, threshold)
    cmax_before, _ = top_two(lab_before)
    lab_after = label_components(union_graphs(base, sprinkle), lab_before)
    cmax_after, c2_after = top_two(lab_after)
    merged = cmax_after / m_vertices if m_vertices > 0 else float("nan")
    return SprinkleReport(n, eps, alpha, p, p_minus, m_vertices,
                          cmax_before, cmax_after, c2_after, merged)


def duality_experiment(n: int, eps: float, replicates: int, master_seed: int,
                       pc: PcResult | float) -> DualityReport:
    """Second-largest cluster at p_hat + eps/n vs largest at p_hat - eps/n.

    Matched replicate seeds on both sides.  Report-only: the ratio of means
    probes the mirrored-density conjecture, nothing is asserted.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    dim = CubeDim(n)
    p_hat = _p_hat(n, pc)
    p_above = p_hat + eps / n
    p_below = p_hat - eps / n
    if p_below < 0.0 or p_above > 1.0:
        raise ValueError("eps pushes one side outside [0, 1]")
    c2_above = replicate_stats(dim, p_above, master_seed, range(replicates), top=True).c2
    cmax_below = replicate_stats(dim, p_below, master_seed, range(replicates), top=True).cmax
    ratio = float(np.mean(c2_above) / np.mean(cmax_below))
    return DualityReport(n, eps, p_above, p_below, tuple(c2_above.tolist()),
                         tuple(cmax_below.tolist()), ratio)


def exact_enumerate(n: int, p: float) -> ExactOracle:
    """Exact observables by iterating every bond configuration (n <= 3).

    Configuration `mask` occupies the m = n 2^(n-1) edges whose flat ids are
    its set bits and is weighted by its Bernoulli probability; sums are
    accumulated exactly with math.fsum.  All 2^m configurations are labeled
    at once as one graph on Q_(n+m), whose vertex mask 2^n + x is vertex x
    of configuration `mask`: only the first n directions carry edges.
    """
    if n not in (1, 2, 3):
        raise ValueError("exhaustive enumeration is limited to n in {1, 2, 3}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    v_count = 1 << n
    m = n * v_count // 2
    masks = np.arange(1 << m)
    occupied = (masks[:, None] >> np.arange(m) & 1).astype(bool)  # (2^m, m), flat id order
    planes = np.zeros((n + m, 1 << (n + m - 1)), dtype=bool)
    planes[:n] = occupied.reshape(-1, n, v_count // 2).transpose(1, 0, 2).reshape(n, -1)
    lab = label_components(OccupiedGraph(CubeDim(n + m), planes, p))
    # size of each vertex's component, one row per configuration
    sizes = lab.size_by_root[lab.root_of].reshape(-1, v_count)
    weight_by_count = np.array([p**k * (1.0 - p) ** (m - k) for k in range(m + 1)])
    w = weight_by_count[np.bitwise_count(masks)]
    chi_terms = w * sizes.sum(axis=1) / v_count
    cmax_terms = w * sizes.max(axis=1)
    pmf = np.array([math.fsum(w[sizes[:, 0] == s]) for s in range(v_count + 1)])
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
            if kind == "cmax_below" and not math.isnan(rec.cmax_mean) and math.isfinite(rec.ref_below):
                ratios.append(rec.cmax_mean / rec.ref_below)
            elif kind == "cmax_inside" and not math.isnan(rec.cmax_mean):
                ratios.append(rec.cmax_mean / rec.ref_inside)
            elif kind == "cmax_above" and not math.isnan(rec.cmax_mean) and rec.ref_above > 0:
                ratios.append(rec.cmax_mean / rec.ref_above)
            elif kind == "chi_above" and rec.chi is not None and rec.epsilon > 0:
                # 4 eps^2 V as 2 eps ref_above, exact since ref_above = 2 eps V
                ratios.append(rec.chi.mean / (2.0 * rec.epsilon * rec.ref_above))
        if ratios:
            entries.append(SummaryEntry(regime, metric, float(np.mean(ratios)), len(ratios)))
    return RegimeSummary(
        entries=tuple(entries),
        duality_ratio=duality.ratio_of_means if duality else None,
        triangle_offdiag=triangle.nabla_offdiag if triangle else None,
        triangle_a0=triangle.a0 if triangle else None,
    )
