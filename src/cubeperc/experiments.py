"""Scripted drivers for the phase picture: sweeps, sprinkling, exact oracle.

Replicate r of every experiment draws its uniforms from (master_seed, r),
so rows of an epsilon sweep are coupled across the grid: the same replicate
index sees nested occupancies as the density grows, and per-replicate
largest-cluster sizes are monotone along the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .clusters import count_z_geq, label_components, top_two
from .critical import window_coord
from .cube import CubeDim
from .gen import OccupiedGraph, SeedSpec, sample_subgraph, sprinkle_split
from .stats import (
    Estimate,
    TriangleReport,
    n_alpha,
    pair_census,
    replicate_stats,
    triangle_diagram_hat,
    two_point_profile,
)

__all__ = [
    "ObservableFlags",
    "SweepConfig",
    "SweepRecord",
    "SprinkleReport",
    "ExactOracle",
    "RegimeSummary",
    "run_sweep",
    "sprinkling_experiment",
    "exact_enumerate",
    "regime_summary",
]

SPRINKLE_SALT = 0xA5A5F00DD00DF00D
DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class ObservableFlags:
    """Optional sweep observables: chi, |C_max|, |C_2|, theta and Z are always measured."""

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

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.epsilon_grid:
            raise ValueError("epsilon grid is empty: give at least one value")
        if not all(math.isfinite(e) for e in self.epsilon_grid):
            raise ValueError("epsilon grid must be finite")


@dataclass(frozen=True)
class SweepRecord:
    """Measured observables for one grid density (None on a skipped row), with regime scales."""

    epsilon: float
    Lambda: float
    p: float
    regime: str
    skipped: bool
    ref_below: float
    ref_inside: float
    ref_above: float
    chi: Estimate | None = None
    cmax_mean: float | None = None
    cmax_median: float | None = None
    c2_mean: float | None = None
    theta: Estimate | None = None
    z_geq: Estimate | None = None
    n_alpha_cut: float | None = None
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

    def lines(self) -> list[str]:
        return [f"{e.regime:>7}  {e.metric:<24} {e.value:.6g}   ({e.rows} rows)"
                for e in self.entries]


def _references(n: int, eps: float) -> tuple[float, float, float]:
    v = float(1 << n)
    eps2 = eps * eps  # 0 also when a tiny eps underflows
    ref_below = 2.0 * n * math.log(2.0) / eps2 if eps2 else math.inf
    ref_inside = v ** (2.0 / 3.0)
    ref_above = 2.0 * eps * v
    return ref_below, ref_inside, ref_above


def run_sweep(cfg: SweepConfig, p_hat: float) -> list[SweepRecord]:
    """Measure the observables on a grid of eps = n(p - p_hat) values.

    Rows whose density falls outside [0, 1] are emitted skipped.  Replicate
    seeds are shared across rows, so the grid is monotone-coupled, and every
    row is measured by one `replicate_stats` call: one hash pass and one
    chain of joins per replicate for the whole grid.
    """
    dim = CubeDim(cfg.n)
    triangle_on = cfg.observables.triangle
    ps = [p_hat + eps / cfg.n for eps in cfg.epsilon_grid]
    live = [i for i, p in enumerate(ps) if 0.0 <= p <= 1.0]
    cuts = {i: n_alpha(p_hat, ps[i], cfg.n, cfg.alpha)
            for i in live if cfg.epsilon_grid[i] > 0.0 and ps[i] > p_hat}
    reducers = [{"z_geq": functools.partial(count_z_geq, k=math.ceil(cuts[i]))}
                if i in cuts else {} for i in live]
    if triangle_on:
        reducers = [{**more, "census": pair_census} for more in reducers]
    measured = dict(zip(live, replicate_stats(
        dim, [ps[i] for i in live], cfg.master_seed, range(cfg.replicates), reducers)))
    records: list[SweepRecord] = []
    for i, (eps, p) in enumerate(zip(cfg.epsilon_grid, ps)):
        coord = window_coord(p, cfg.n, p_hat)
        refs = _references(cfg.n, eps)  # ref_below, ref_inside, ref_above
        st = measured.get(i)
        if st is None:
            records.append(SweepRecord(eps, coord.Lambda, p, coord.regime, True, *refs))
            continue

        triangle = None
        if triangle_on:
            triangle = triangle_diagram_hat(two_point_profile(dim, st["census"]),
                                            float(np.mean(st["chi"])), p=p)

        cmax, c2 = st["top"].T
        records.append(SweepRecord(
            eps, coord.Lambda, p, coord.regime, False, *refs,
            chi=Estimate.from_samples(st["chi"]),
            cmax_mean=float(np.mean(cmax)),
            cmax_median=float(np.median(cmax)),
            c2_mean=float(np.mean(c2)),
            theta=Estimate.from_samples(st["z_geq"] / dim.volume) if "z_geq" in st else None,
            z_geq=Estimate.from_samples(st["z_geq"]) if "z_geq" in st else None,
            n_alpha_cut=cuts.get(i),
            triangle=triangle,
        ))
    return records


def sprinkling_experiment(n: int, eps: float, alpha: float, seed: SeedSpec,
                          p_hat: float) -> SprinkleReport:
    """Two-layer merge: base graph at p_minus, independent sprinkle at eps/(2n).

    M counts the vertices of the base graph lying in components of size at
    least 2^(alpha*n/3); the report compares the union's largest cluster
    against M/3, the merge target.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    dim = CubeDim(n)
    p = p_hat + eps / n
    p_minus = sprinkle_split(n, p, eps)  # checks eps > 0 and eps/(2n) <= p <= 1

    base = sample_subgraph(dim, p_minus, seed)
    sprinkle_seed = SeedSpec(seed.master_seed ^ SPRINKLE_SALT, seed.replicate_index)
    sprinkle = sample_subgraph(dim, eps / (2.0 * n), sprinkle_seed)
    lab_before = label_components(base)
    threshold = math.ceil(2.0 ** (alpha * n / 3.0))
    m_vertices = count_z_geq(lab_before, threshold)
    cmax_before, _ = top_two(lab_before)
    lab_after = label_components(sprinkle, lab_before.root_of)  # the sprinkle joins base's blocks
    cmax_after, c2_after = top_two(lab_after)
    merged = cmax_after / m_vertices if m_vertices > 0 else float("nan")
    return SprinkleReport(n, eps, alpha, p, p_minus, m_vertices,
                          cmax_before, cmax_after, c2_after, merged)


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
    lab = label_components(OccupiedGraph(CubeDim(n + m), planes))
    # size of each vertex's component, one row per configuration
    sizes = lab.size_by_root[lab.root_of].reshape(-1, v_count)
    weight_by_count = np.array([p**k * (1.0 - p) ** (m - k) for k in range(m + 1)])
    w = weight_by_count[np.bitwise_count(masks)]
    chi_terms = w * sizes.sum(axis=1) / v_count
    cmax_terms = w * sizes.max(axis=1)
    pmf = np.array([math.fsum(w[sizes[:, 0] == s]) for s in range(v_count + 1)])
    return ExactOracle(n, p, math.fsum(chi_terms), math.fsum(cmax_terms), pmf)


# p = p_hat + eps/n is monotone: below rows have eps < 0, above rows eps > 0, |eps| ~> 10/2^(n/3)
_REGIME_RATIOS = (
    ("below", "cmax / (2 log V / eps^2)", lambda rec: rec.cmax_mean / rec.ref_below),
    ("inside", "cmax / V^(2/3)", lambda rec: rec.cmax_mean / rec.ref_inside),
    ("above", "cmax / (2 eps V)", lambda rec: rec.cmax_mean / rec.ref_above),
    # 4 eps^2 V as 2 eps ref_above, exact since ref_above = 2 eps V
    ("above", "chi / (4 eps^2 V)", lambda rec: rec.chi.mean / (2.0 * rec.epsilon * rec.ref_above)),
)


def regime_summary(records: list[SweepRecord]) -> RegimeSummary:
    """Aggregate measured largest-cluster sizes against their regime scales.

    Below the window the scale is 2 log V / eps^2, inside it V^(2/3), above
    it 2 eps V with the susceptibility compared to 4 eps^2 V.  Conjectural
    quantities are read off the same records for inspection: the duality
    ratio mean|C_2|(+eps) / mean|C_max|(-eps) for each mirrored pair of the
    grid, and the triangle of the measured row closest to p_hat.
    """
    if not records:
        raise ValueError("no records to summarize")
    live = [rec for rec in records if not rec.skipped]
    entries: list[SummaryEntry] = []
    for regime, metric, ratio in _REGIME_RATIOS:
        ratios = [ratio(rec) for rec in live if rec.regime == regime]
        if ratios:
            entries.append(SummaryEntry(regime, metric, float(np.mean(ratios)), len(ratios)))
    by_eps = {rec.epsilon: rec for rec in live}
    for eps in sorted(e for e in by_eps if e > 0.0 and -e in by_eps):
        entries.append(SummaryEntry("conjecture", f"duality c2(+{eps!r})/cmax(-{eps!r})",
                                    by_eps[eps].c2_mean / by_eps[-eps].cmax_mean, 2))
    triangles = [rec for rec in live if rec.triangle]
    if triangles:
        tri = min(triangles, key=lambda rec: abs(rec.epsilon)).triangle  # first on a tie
        entries.append(SummaryEntry("conjecture", "triangle nabla_offdiag", tri.nabla_offdiag, 1))
        entries.append(SummaryEntry("conjecture", "triangle a0", tri.a0, 1))
    return RegimeSummary(tuple(entries))
