"""Estimators for the percolation observables.

Replicate-level statistics are always accumulated in replicate order and
reduced with fixed-order summation, so repeated runs are bit-stable.
The susceptibility is estimated through the sum-of-squared-cluster-sizes
identity, which uses every vertex of every replicate; its variance is
taken across replicates only, since cluster sizes within one replicate
are dependent.  The two-point function and the triangle rest on an exact
per-replicate census of same-component pairs by distance (`pair_census`).
The drivers draw their replicates through `replicate_stats` (the two-layer
sprinkling experiment excepted): replicate r at any density uses the
uniforms of SeedSpec(master_seed, r), so densities are monotone-coupled.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clusters import ClusterLabeling, count_z_geq, label_components, top_two
from .cube import CubeDim
from .gen import SeedSpec, sample_subgraph

__all__ = [
    "Estimate",
    "RadialProfile",
    "ReplicateStats",
    "TriangleReport",
    "ZConcentrationReport",
    "chi_sample",
    "n_alpha",
    "pair_census",
    "replicate_stats",
    "two_point_profile",
    "radial_convolution",
    "triangle_diagram_hat",
    "z_concentration_check",
]


@dataclass(frozen=True)
class Estimate:
    """Replicate mean with its standard error."""

    mean: float
    std_error: float
    replicates: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Estimate":
        samples = np.asarray(samples, dtype=np.float64)
        r = samples.shape[0]
        if r == 0:
            raise ValueError("at least one replicate required")
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        return cls(mean, se, r)


@dataclass(frozen=True)
class RadialProfile:
    """A function of Hamming distance k = 0..n.

    Two-point profiles hold connection probabilities in [0, 1]; convolved
    profiles hold nonnegative vertex-weighted sums that can exceed 1.
    """

    dim: CubeDim
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.dim.n + 1,):
            raise ValueError(f"profile must have length n+1 = {self.dim.n + 1}")
        if not np.isfinite(values).all() or (values < 0).any():
            raise ValueError("profile values must be finite and nonnegative")
        object.__setattr__(self, "values", values)
        self.values.setflags(write=False)


@dataclass(frozen=True)
class ReplicateStats:
    """Per-replicate statistics in replicate order, None where not asked for."""

    chi: np.ndarray | None
    cmax: np.ndarray | None
    c2: np.ndarray | None
    z_geq: np.ndarray | None
    census: np.ndarray | None


@dataclass(frozen=True)
class TriangleReport:
    """Open and closed triangle-diagram values with the comparison bound a0."""

    p: float
    nabla_diag: float
    nabla_offdiag: float
    a0: float
    k1: float
    k2: float
    chi_used: float


@dataclass(frozen=True)
class ZConcentrationReport:
    """How often the moderately-large-component count strays from its mean."""

    n_alpha: float
    eta1: float
    mean_z: float
    theta_hat: float
    threshold: float
    exceed_frequency: float
    replicates: int


def chi_sample(labeling: ClusterLabeling) -> float:
    """Single-replicate susceptibility statistic: sum of squared sizes over 2^n."""
    sizes = labeling.sizes_desc
    return float(int((sizes * sizes).sum()) / labeling.dim.volume)


def n_alpha(p_c: float, p: float, n: int, alpha: float) -> float:
    """Component-size cutoff eps^(alpha-2) * 2^(n*alpha/3) with eps = n(p - p_c)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    eps = n * (p - p_c)
    if eps <= 0.0:
        raise ValueError("cutoff is defined only above the threshold (eps > 0)")
    return eps ** (alpha - 2.0) * 2.0 ** (n * alpha / 3.0)


# The direct census XORs at most this many vertex pairs at a time.
PAIR_CHUNK = 1 << 16


def radial_totals(dim: CubeDim) -> np.ndarray:
    """Ordered vertex pairs at each distance k = 0..n: 2^n C(n, k)."""
    return dim.volume * np.array([math.comb(dim.n, k) for k in range(dim.n + 1)],
                                 dtype=np.float64)


@lru_cache(maxsize=None)
def _krawtchouk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Exact K[k][w] = sum_j (-1)^j C(w, j) C(n - w, k - j), the Hamming-scheme eigenvalues."""
    return tuple(tuple(sum((-1) ** j * math.comb(w, j) * math.comb(n - w, k - j)
                           for j in range(min(w, k) + 1)) for w in range(n + 1))
                 for k in range(n + 1))


def _walsh_hadamard(f: np.ndarray, n: int) -> np.ndarray:
    """Walsh-Hadamard transform of a length-2^n vector, in n butterfly passes.

    A pass over a low bit would run numpy's inner loop over a few elements
    only, so each half of the bits is transformed while it sits on top: the
    high half first, then the low half after a transposed copy, which a
    second copy undoes.
    """
    for low in (n // 2, n - n // 2):
        for i in range(low, n):
            pairs = f.reshape(-1, 2, 1 << i)
            a, b = pairs[:, 0], pairs[:, 1]
            a += b
            b *= -2
            b += a
        f = f.reshape(-1, 1 << low).T.copy().reshape(-1)
    return f


def _weight_sums(spectrum: np.ndarray, n: int) -> list[int]:
    """S_w, the sum of spectrum(s)^2 over the indices s of popcount w, exact.

    Folds the top index bit away n times; row w of the folded array holds
    the sums over the folded bits of weight w.
    """
    sq = spectrum.astype(np.int64)
    sq *= sq
    t = sq[None, :]
    for _ in range(n):
        half = t.shape[1] // 2
        folded = np.zeros((t.shape[0] + 1, half), dtype=np.int64)
        folded[:-1] = t[:, :half]
        folded[1:] += t[:, half:]
        t = folded
    return t[:, 0].tolist()


def _direct_census(members: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """XOR/popcount census of components laid out contiguously, grouped by size.

    The components of one size s form an (m, s) member matrix, XORed with
    itself a block of components (or, for large s, of rows) at a time.
    """
    counts = np.zeros(n + 1, dtype=np.int64)
    starts = np.flatnonzero(np.diff(sizes, prepend=0))
    for a, b in zip(starts.tolist(), starts[1:].tolist() + [sizes.shape[0]]):
        s = int(sizes[a])
        block = members[a:b].reshape(-1, s)
        per_chunk, rows = max(1, PAIR_CHUNK // (s * s)), max(1, PAIR_CHUNK // s)
        for c0 in range(0, block.shape[0], per_chunk):
            part = block[c0:c0 + per_chunk]
            for i0 in range(0, s, rows):
                x = part[:, i0:i0 + rows, None] ^ part[:, None, :]
                counts += np.bincount(np.bitwise_count(x).reshape(-1), minlength=n + 1)
    return counts


def pair_census(labeling: ClusterLabeling) -> np.ndarray:
    """Ordered same-component pair counts by distance k = 0..n, exact.

    Every vertex pairs with itself at distance 0, so entry 0 is always 2^n.
    A component C with |C|^2 > n 2^n is counted through the Walsh-Hadamard
    transform f^ of its indicator: the pairs at distance k number
    2^-n sum_w K_k(w) S_w, with S_w the sum of f^(s)^2 over |s| = w and K_k
    the Krawtchouk polynomial.  f^ is exact in int32 (|f^| <= |C| <= 2^28)
    and S_w in int64 (S_w <= 2^n |C| <= 2^56); the contraction runs in
    Python integers.  The other components of two or more vertices are
    counted directly, by the popcount of the XOR of every member pair,
    batched by component size.  Working memory is O(2^n).
    """
    n, v_count = labeling.dim.n, labeling.dim.volume
    root_of, size_by_root = labeling.root_of, labeling.size_by_root
    cut = math.isqrt(n * v_count)
    spectral = [0] * (n + 1)
    for root in np.flatnonzero(size_by_root > cut).tolist():
        spectrum = _walsh_hadamard((root_of == root).astype(np.int32), n)
        spectral = [a + b for a, b in zip(spectral, _weight_sums(spectrum, n))]
    totals = [sum(map(operator.mul, row, spectral)) for row in _krawtchouk_table(n)]
    assert all(t % v_count == 0 for t in totals), "spectral census must divide by 2^n"
    counts = np.array([t // v_count for t in totals], dtype=np.int64)
    # direct members, sorted by (component size, root)
    direct = np.flatnonzero(((size_by_root >= 2) & (size_by_root <= cut))[root_of])
    roots = root_of[direct].astype(np.int64)
    order = np.argsort(size_by_root[roots] << n | roots)
    counts += _direct_census(direct[order], size_by_root[roots[order]], n)
    counts[0] += int(np.count_nonzero(size_by_root == 1))
    return counts


def replicate_stats(dim: CubeDim, p: float, master_seed: int, replicates: range, *,
                    chi: bool = False, top: bool = False, z_at: int | None = None,
                    census: bool = False) -> ReplicateStats:
    """Sample, label and reduce the replicates r in `replicates` at density p.

    Replicate r draws the uniforms of SeedSpec(master_seed, r), so consecutive
    replicate ranges concatenate to their union.  Only the reducers asked for
    run: `chi_sample` (chi), `top_two` (top: cmax and c2), `count_z_geq` at
    cutoff `z_at` (z_geq) and `pair_census` (census, one row per replicate).
    """
    chis, tops, zs, censuses = [], [], [], []
    for r in replicates:
        lab = label_components(sample_subgraph(dim, p, SeedSpec(master_seed, r)))
        if chi:
            chis.append(chi_sample(lab))
        if top:
            tops.append(top_two(lab))
        if z_at is not None:
            zs.append(count_z_geq(lab, z_at))
        if census:
            censuses.append(pair_census(lab))
    pairs = np.array(tops, dtype=np.int64).reshape(-1, 2)
    return ReplicateStats(
        chi=np.array(chis, dtype=np.float64) if chi else None,
        cmax=pairs[:, 0] if top else None,
        c2=pairs[:, 1] if top else None,
        z_geq=np.array(zs, dtype=np.int64) if z_at is not None else None,
        census=np.array(censuses, dtype=np.int64).reshape(-1, dim.n + 1) if census else None,
    )


def two_point_profile(dim: CubeDim, censuses: np.ndarray) -> RadialProfile:
    """Connection probability by distance k: the R census rows summed, over R 2^n C(n, k)."""
    if len(censuses) == 0:
        raise ValueError("at least one census required")
    return RadialProfile(dim, np.sum(censuses, axis=0) / (radial_totals(dim) * len(censuses)))


@lru_cache(maxsize=None)
def _intersection_table(n: int) -> np.ndarray:
    """Exact triple counts N[k, i, j] of the binary Hamming scheme.

    N[k, i, j] is the number of vertices at distance i from x and j from y
    when x and y are distance k apart.  For each admissible (k, i, j) there
    is a single split: a = (i - j + k)/2 flips among the k differing
    coordinates and b = (i + j - k)/2 among the rest.
    """
    table = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    for k in range(n + 1):
        for i in range(n + 1):
            for j in range(n + 1):
                two_a = i - j + k
                two_b = i + j - k
                if two_a < 0 or two_b < 0 or two_a % 2 or two_b % 2:
                    continue
                a, b = two_a // 2, two_b // 2
                if a <= k and b <= n - k:
                    table[k, i, j] = math.comb(k, a) * math.comb(n - k, b)
    table.setflags(write=False)
    return table


def radial_convolution(t1: RadialProfile, t2: RadialProfile) -> RadialProfile:
    """Vertex-sum convolution: (t1 * t2)(k) = sum over w of t1(d(x,w)) t2(d(w,y)).

    Evaluated through the intersection counts, so it costs O(n^3) instead of
    a 2^n vertex sum and is exact for radial functions.
    """
    if t1.dim != t2.dim:
        raise ValueError("dimension mismatch")
    table = _intersection_table(t1.dim.n)
    values = np.einsum("kij,i,j->k", table, t1.values, t2.values)
    return RadialProfile(t1.dim, values)


def triangle_diagram_hat(profile: RadialProfile, chi: float, k1: float = 1.0,
                         k2: float = 1.0, p: float = float("nan")) -> TriangleReport:
    """Triangle diagram from a radial two-point profile, with its bound a0.

    The diagram is the double convolution of the profile with itself; by
    vertex-transitivity its diagonal and off-diagonal maxima are read off
    the radial result.  a0 = k1/n + k2 * chi^3 / 2^n.  The plug-in profile
    is a product of correlated estimates, so the reported diagram carries a
    small bias; it is reported as computed.
    """
    tt = radial_convolution(profile, profile)
    nabla = radial_convolution(tt, profile).values
    n = profile.dim.n
    a0 = k1 / n + k2 * chi**3 / profile.dim.volume
    return TriangleReport(
        p=p,
        nabla_diag=float(nabla[0]),
        nabla_offdiag=float(nabla[1:].max()),
        a0=float(a0),
        k1=k1,
        k2=k2,
        chi_used=chi,
    )


def z_concentration_check(dim: CubeDim, z_geq: np.ndarray, n_alpha_value: float,
                          eta1: float) -> ZConcentrationReport:
    """Frequency of replicates whose large-component count strays from the mean.

    `z_geq` holds one count per replicate at cutoff ceil(n_alpha_value), as
    `replicate_stats` returns it.  Counts deviations strictly exceeding
    2^(n(1-eta1)) * theta_hat, so a degenerate ensemble (all replicates
    identical) reports frequency zero.  Report-only: no pass/fail semantics
    attached.
    """
    if len(z_geq) == 0:
        raise ValueError("at least one replicate required")
    zs = np.asarray(z_geq, dtype=np.float64)
    mean_z = float(zs.mean())
    theta_hat = mean_z / dim.volume
    threshold = dim.volume ** (1.0 - eta1) * theta_hat
    exceed = float((np.abs(zs - mean_z) > threshold).mean())
    return ZConcentrationReport(
        n_alpha=n_alpha_value,
        eta1=eta1,
        mean_z=mean_z,
        theta_hat=theta_hat,
        threshold=threshold,
        exceed_frequency=exceed,
        replicates=len(zs),
    )
