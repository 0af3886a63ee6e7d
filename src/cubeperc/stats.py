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
One call takes every density of a driver, a density ladder: each replicate
hashes its edges once, labels the layer of the lowest density cold and
joins each higher density's layer onto the labeling below it.  Each
labeling is reduced by one table of named functions, chi and the top two
always and whatever else the caller names, and each name's values come back
as one array over the replicates.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clusters import ClusterLabeling, label_components, top_two
from .cube import CubeDim
from .gen import OccupiedGraph, SeedSpec, sample_layers, split_edges

__all__ = [
    "Estimate",
    "RadialProfile",
    "TriangleReport",
    "chi_sample",
    "n_alpha",
    "pair_census",
    "replicate_stats",
    "two_point_profile",
    "radial_convolution",
    "triangle_diagram_hat",
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


# The constants of the triangle bound a0 = K1/n + K2 chi^3 / 2^n.
TRIANGLE_K1 = 1.0
TRIANGLE_K2 = 1.0


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


def chi_sample(labeling: ClusterLabeling) -> float:
    """Single-replicate susceptibility statistic: sum of squared sizes over 2^n."""
    sizes = labeling.size_by_root  # a non-root vertex reads 0 and adds nothing
    return int(np.dot(sizes, sizes)) / labeling.dim.volume


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
    """Walsh-Hadamard transform of a length-2^n vector, index bits rotated.

    Each butterfly pass writes a + b and a - b into a second buffer, and the
    buffers swap.  A pass over a low bit would run numpy's inner loop over a
    few elements only, so each half of the bits is transformed while it sits
    on top: the high half, then the low half after a transposed copy.  No copy
    undoes it, so coefficient s sits at a rotation of s, which keeps the
    popcount, the only thing `_weight_sums` reads.
    """
    g = np.empty_like(f)
    for half, low in enumerate((n // 2, n - n // 2)):
        for i in range(low, n):
            a, b = f.reshape(-1, 2, 1 << i), g.reshape(-1, 2, 1 << i)
            np.add(a[:, 0], a[:, 1], out=b[:, 0])
            np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
            f, g = g, f
        if half == 0:
            g.reshape(1 << low, -1)[...] = f.reshape(-1, 1 << low).T
            f, g = g, f
    return f


@lru_cache(maxsize=None)
def _popcount_order(k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The indices 0..2^k - 1 sorted by popcount, read-only, and where each popcount starts."""
    weights = np.bitwise_count(np.arange(1 << k))
    order = np.argsort(weights, kind="stable")
    order.setflags(write=False)
    return order, tuple(np.searchsorted(weights[order], np.arange(k + 1)).tolist())


def _weight_sums(spectrum: np.ndarray, n: int) -> list[int]:
    """S_w, the sum of spectrum(s)^2 over the indices s of popcount w, exact.

    The index splits into a high half of n - k bits and a low half of k:
    the squares are summed along each row by the low half's popcount, then
    down the columns by the high half's, and S_w is the sum of the table
    entries (a, b) with a + b = w, an antidiagonal.
    """
    k = n // 2
    (lo, lo_at), (hi, hi_at) = _popcount_order(k), _popcount_order(n - k)
    sq = spectrum.reshape(-1, 1 << k).take(lo, axis=1).astype(np.int64)
    sq *= sq
    table = np.add.reduceat(np.add.reduceat(sq, lo_at, axis=1).take(hi, axis=0), hi_at, axis=0)
    return [int(np.fliplr(table).trace(k - w)) for w in range(n + 1)]


def _direct_census(members: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """XOR/popcount census of components laid out contiguously, grouped by size.

    The components of one size s form an (m, s) member matrix, XORed with
    itself a block of components (or, for large s, of rows) at a time.
    """
    counts = np.zeros(n + 1, dtype=np.int64)
    members = members.astype(np.min_scalar_type((1 << n) - 1))
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
    A component C with 4 |C|^2 > n 2^n, about where the two paths cost the
    same, is counted through the Walsh-Hadamard transform f^ of its
    indicator: the pairs at distance k number 2^-n sum_w K_k(w) S_w, with
    S_w the sum of f^(s)^2 over |s| = w and K_k the Krawtchouk polynomial.
    f^ is exact in int16 up to n = 14 and in int32 above (|f^| <= |C| <= 2^n)
    and S_w in int64 (S_w <= 2^n |C| <= 2^56); the contraction runs in Python
    integers.  Components of one to three vertices are counted in closed
    form; the rest are counted directly, by the popcount of the XOR of every
    member pair, batched by component size.  Working memory is O(2^n).
    """
    n, v_count = labeling.dim.n, labeling.dim.volume
    root_of, size_by_root = labeling.root_of, labeling.size_by_root
    cut = math.isqrt(n * v_count // 4)
    dtype = np.int16 if n <= 14 else np.int32
    spectral = [0] * (n + 1)
    for root in np.flatnonzero(size_by_root > cut).tolist():
        spectrum = _walsh_hadamard((root_of == root).astype(dtype), n)
        spectral = [a + b for a, b in zip(spectral, _weight_sums(spectrum, n))]
    totals = [sum(map(operator.mul, row, spectral)) for row in _krawtchouk_table(n)]
    assert all(t % v_count == 0 for t in totals), "spectral census must divide by 2^n"
    counts = np.array([t // v_count for t in totals], dtype=np.int64)
    # components of 1, 2 and 3 vertices in closed form, ordered pairs by
    # distance: Q_n has no triangles, so 3 connected vertices form a path;
    # only sizes up to the cut, which is 0 at n = 1 and 1 at n = 2
    small = min(3, cut)
    for size, row in enumerate(((1,), (2, 2), (3, 4, 2))[:small], start=1):
        counts[:size] += int(np.count_nonzero(size_by_root == size)) * np.array(row)
    # direct members, sorted by (component size, root)
    direct = np.flatnonzero(((size_by_root > small) & (size_by_root <= cut))[root_of])
    roots = root_of[direct].astype(np.int64)
    order = np.argsort(size_by_root[roots] << n | roots)
    counts += _direct_census(direct[order], size_by_root[roots[order]], n)
    return counts


# The replicates a bisection carries across its midpoints hold at most this
# many bytes: each is charged two root arrays (its roots at the bracket's
# lower end and at the last midpoint) and one root array's entries of edge ids.
CARRY_BYTES = 8 << 20


class BracketCarry:
    """Replicates 0..carried-1 of a bisection, carried from midpoint to midpoint.

    Replicate r draws the same uniforms at every density, so its sample at a
    midpoint p of the bracket [lo, hi] is its sample at lo plus the edges
    whose hash h has T(lo) <= h < T(p), T being gen's occupancy bound.  Each
    carried replicate keeps its root_of at lo (none while lo = 0) and, once
    the bracket expects at most 2^(n-1) undecided edges, T(lo) <= h < T(hi),
    their ids, both in the narrowest unsigned type.  `sample` hands over the
    edges p adds to lo (by rehashing only the undecided ids once it holds
    them, by a full hash pass before) with the roots at lo to join them onto,
    `hold` keeps the roots at p, and `narrow` moves lo or hi to p.  As many of
    `replicates` are carried as CARRY_BYTES pays for, so none at n >= 20.
    """

    def __init__(self, dim: CubeDim, master_seed: int, replicates: int) -> None:
        self.dim, self.master_seed = dim, master_seed
        self.lo, self.hi = 0.0, 1.0
        root_type = np.min_scalar_type(dim.volume - 1)
        self._id_type = np.min_scalar_type(dim.edge_count - 1)
        charge = dim.volume * (2 * root_type.itemsize + self._id_type.itemsize)
        self.carried = min(replicates, CARRY_BYTES // charge)
        self._roots = np.empty((self.carried, dim.volume), dtype=root_type)  # at lo
        self._held = np.empty_like(self._roots)  # at the last midpoint
        # the undecided ids, then the ids the last midpoint occupies and the rest
        self._ids: list[np.ndarray | None] = [None] * self.carried
        self._split: list[tuple[np.ndarray, np.ndarray] | None] = [None] * self.carried

    def _band(self, seed: SeedSpec, top: float) -> OccupiedGraph:
        """The edges with T(lo) <= h < T(top), from a full hash pass."""
        *_, band = sample_layers(self.dim, (self.lo, top) if self.lo else (top,), seed)
        return band

    def sample(self, r: int, p: float) -> tuple[OccupiedGraph, np.ndarray | None]:
        """The edges p adds to replicate r at lo, and r's roots at lo (None at lo = 0)."""
        seed = SeedSpec(self.master_seed, r)
        ids = self._ids[r]
        if ids is None and 2 * (self.hi - self.lo) * self.dim.edge_count <= self.dim.volume:
            ids = self._band(seed, self.hi).planes.ravel().nonzero()[0].astype(self._id_type)
        if ids is None:
            graph = self._band(seed, p)
        else:
            # the split replaces the ids until `narrow` keeps one side of it
            self._ids[r] = None
            below, _ = self._split[r] = split_edges(ids, p, seed)
            flat = np.zeros(self.dim.edge_count, dtype=bool)
            flat[below] = True
            graph = OccupiedGraph(self.dim, flat.reshape(self.dim.n, -1))
        return graph, self._roots[r] if self.lo else None

    def hold(self, r: int, root_of: np.ndarray) -> None:
        self._held[r] = root_of

    def narrow(self, lo: float, hi: float) -> None:
        """Move to [lo, hi], one end of which is the midpoint every replicate was held at."""
        raised = lo != self.lo
        if raised:
            self._roots, self._held = self._held, self._roots
        for r, split in enumerate(self._split):
            if split is not None:
                self._ids[r] = split[raised]
        self._split = [None] * self.carried
        self.lo, self.hi = lo, hi


def replicate_stats(dim: CubeDim, ps: Sequence[float], master_seed: int, replicates: range,
                    reducers: Sequence[Mapping[str, Callable[[ClusterLabeling], object]]]
                    | None = None, carry: BracketCarry | None = None
                    ) -> list[dict[str, np.ndarray]]:
    """Sample, label and reduce the replicates r in `replicates` at each density of ps.

    Returns one dict per density, in the order of ps, from a reducer's name
    to its values stacked over the replicates in replicate order.  Every
    density runs `chi_sample` as "chi" (shape (R,)) and `top_two` as "top"
    (one (cmax, c2) row per replicate, shape (R, 2)); `reducers`, one mapping
    per density from a name to a function of a ClusterLabeling, adds the
    costlier ones where a caller names them, such as
    partial(count_z_geq, k=k) or pair_census.  Replicate r draws the uniforms
    of SeedSpec(master_seed, r), so consecutive replicate ranges concatenate
    to their union.  Each replicate hashes its edges once for every density:
    `sample_layers` splits them into the layers that the densities add in
    ascending order, the lowest is labeled cold and each later one is joined
    onto the labeling below it.  A smallest-vertex labeling does not depend
    on the order its edges arrive in, so each equals the cold labeling of
    sample_subgraph(dim, p, SeedSpec(master_seed, r)).  With a `carry`, ps
    is one density inside its bracket, and each replicate it carries joins
    only the edges that density adds to the bracket's lower end onto its
    roots there, and is held for the carry to narrow.
    """
    if not replicates:
        raise ValueError("at least one replicate required")
    extra = [{}] * len(ps) if reducers is None else list(reducers)
    if len(extra) != len(ps):
        raise ValueError("reducers needs one mapping per density")
    if carry is not None and not (carry.dim == dim and carry.master_seed == master_seed
                                  and len(ps) == 1 and carry.lo < ps[0] < carry.hi):
        raise ValueError("a carry evaluates its own replicates at one density inside its bracket")
    # the reducers are looked up at each call, so a rebound module name is seen
    tables = [{"chi": chi_sample, "top": top_two, **more} for more in extra]
    rows = [{name: [] for name in table} for table in tables]
    order = sorted(range(len(ps)), key=ps.__getitem__)
    ascending = [ps[i] for i in order]
    for r in replicates:
        carried = carry is not None and r < carry.carried
        if carried:
            layer, root_of = carry.sample(r, ps[0])
            layers = iter((layer,))
        else:
            layers = sample_layers(dim, ascending, SeedSpec(master_seed, r))
            root_of = None
        for i in order:
            # no name holds a sampled layer, so it is freed before the reducers
            # run; a carried join's layer (n/2 bytes per vertex) is kept to the
            # next replicate
            lab = label_components(next(layers), root_of)
            for name, reduce in tables[i].items():
                rows[i][name].append(reduce(lab))
            # the next join reads only root_of: free the sizes before it runs
            root_of = lab.root_of
            del lab
        if carried:
            carry.hold(r, root_of)
    return [{name: np.array(values) for name, values in row.items()} for row in rows]


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


def triangle_diagram_hat(profile: RadialProfile, chi: float,
                         p: float = float("nan")) -> TriangleReport:
    """Triangle diagram from a radial two-point profile, with its bound a0.

    The diagram is the double convolution of the profile with itself; by
    vertex-transitivity its diagonal and off-diagonal maxima are read off
    the radial result.  a0 = K1/n + K2 * chi^3 / 2^n with the constants
    TRIANGLE_K1 and TRIANGLE_K2.  The plug-in profile is a product of
    correlated estimates, so the reported diagram carries a small bias; it
    is reported as computed.
    """
    tt = radial_convolution(profile, profile)
    nabla = radial_convolution(tt, profile).values
    n = profile.dim.n
    a0 = TRIANGLE_K1 / n + TRIANGLE_K2 * chi**3 / profile.dim.volume
    return TriangleReport(
        p=p,
        nabla_diag=float(nabla[0]),
        nabla_offdiag=float(nabla[1:].max()),
        a0=float(a0),
        k1=TRIANGLE_K1,
        k2=TRIANGLE_K2,
        chi_used=chi,
    )
