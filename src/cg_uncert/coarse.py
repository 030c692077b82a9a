"""Coarse-grained measurement statistics.

Binning of continuous densities into fixed-width windows (from closed-form
interval masses when the density has them, by panel quadrature otherwise),
discrete variances and Renyi entropies of the resulting probability vectors,
computed once per binning and order, per-bin histogram profiles (one family,
exp(-a (u/eta)^2) truncated to the bin, whose a = 0 member is the flat bin),
densities reconstructed from binned data, the variance/entropy decomposition
identities, and finite-statistics sampling by exact multinomial draws over
the bin masses.

Grid convention: bin j of a grid (width eta, offset) covers
[offset + (j - 1/2) eta, offset + (j + 1/2) eta), half-open on the right,
with center z_j = offset + j eta.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError, NonConvergence, gauss_legendre_panels, integrate
from .specfun import bin_profile_norm, ghf_ent_shape, ghf_var_shape
from .states import Density1D

__all__ = [
    "EPS_TAIL",
    "MAX_BINS",
    "TailBudgetExceeded",
    "WidthMismatch",
    "BinnedDistribution",
    "GhfSpec",
    "ReconstructedPdf",
    "bin_density",
    "discrete_variance",
    "discrete_renyi",
    "ghf_variance",
    "ghf_entropy",
    "decompose_stats",
    "sample_counts",
]

EPS_TAIL = 1e-9
MAX_BINS = 10 ** 6


class TailBudgetExceeded(RuntimeError):
    """Bin enumeration hit the bin budget before capturing 1 - EPS_TAIL."""


class WidthMismatch(ValueError):
    """Histogram profile width does not match the binned grid width."""


@dataclass(frozen=True)
class GhfSpec:
    """Per-bin histogram profile exp(-a (u/eta)^2) truncated to the bin: flat
    at a = 0 (the default) and concentrated toward the center for a > 0, so
    its variance lies in (0, eta^2/12].  The variance relation's optimal
    profile, at t = a eta^2 = M^-1(u) > 0, is always of this kind, so the
    edge-heavy a < 0 is refused."""

    eta: float
    a: float = 0.0

    def __post_init__(self) -> None:
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not (self.a >= 0.0 and math.isfinite(self.t)):
            raise ValueError(f"shape parameter a must be nonnegative with a*eta^2 finite, "
                             f"got a = {self.a} at eta = {self.eta}")

    @property
    def t(self) -> float:
        return self.a * self.eta ** 2


def _check_profile_width(g: GhfSpec, width: float, axis: str = "grid") -> None:
    """Raise WidthMismatch unless the profile width matches the bin width."""
    if abs(g.eta - width) > 1e-12 * width:
        raise WidthMismatch(f"{axis} profile width {g.eta} != bin width {width}")


class _BinView(Mapping):
    """Read-only bin index -> probability view over stored masses; it covers
    every stored bin, interior zeros included."""

    def __init__(self, j_min: int, p: np.ndarray):
        self._j_min, self._p = j_min, p

    def __getitem__(self, j):
        i = j - self._j_min if isinstance(j, (int, np.integer)) else -1
        if 0 <= i < self._p.size:
            return float(self._p[i])
        raise KeyError(j)

    def __iter__(self):
        return iter(range(self._j_min, self._j_min + self._p.size))

    def __len__(self) -> int:
        return self._p.size

    def values(self) -> list:
        return self._p.tolist()

    def items(self) -> list:
        return list(zip(self, self._p.tolist()))


@dataclass(frozen=True, eq=False)
class BinnedDistribution:
    """Bin masses on the grid (width, offset): masses[i] is the probability of
    bin j_min + i, and probs is a read-only bin index -> probability view of
    them.  The storage is immutable, so each discrete statistic is computed
    once per distribution and order and then read from a private memo.  The
    offset is reduced modulo the width once, at construction, and every
    reader places the bins on the reduced grid."""

    width: float
    offset: float
    j_min: int
    masses: np.ndarray
    tail_mass: float = 0.0
    probs: Mapping = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError(f"width must be positive and finite, got {self.width}")
        reduced = _reduce_offset(self.offset, self.width)
        j_min, p = int(self.j_min), np.asarray(self.masses, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("need at least one bin")
        if not -2 ** 63 <= j_min <= 2 ** 63 - p.size:
            raise ValueError(f"j_min = {j_min} puts the labels of {p.size} bins beyond "
                             f"the int64 range")
        neg = np.flatnonzero(p < -1e-12)
        if neg.size:
            raise ValueError(f"negative probability {p[neg[0]]} in bin {j_min + neg[0]}")
        p, j = np.maximum(p, 0.0), np.arange(j_min, j_min + p.size, dtype=np.int64)
        p.flags.writeable = j.flags.writeable = False
        tail = float(self.tail_mass)
        if tail < -1e-12:
            raise ValueError(f"negative tail mass {tail}")
        tail = max(tail, 0.0)
        if tail > EPS_TAIL + 1e-12:
            raise ValueError(f"tail mass {tail} exceeds the budget {EPS_TAIL}")
        total = float(p.sum()) + tail  # pairwise: about log2(n) eps, far inside 1e-9
        if not abs(total - 1.0) <= 1e-9 + 1e-12:
            raise ValueError(f"probabilities plus tail sum to {total}, not 1")
        for name, value in (("j_min", j_min), ("masses", p), ("tail_mass", tail),
                            ("probs", _BinView(j_min, p)), ("_j", j), ("_stats", {}),
                            ("_reduced", reduced)):
            object.__setattr__(self, name, value)

    def center(self, j: int) -> float:
        r, shift = self._reduced
        return r + (j + shift) * self.width

    def arrays(self) -> tuple:
        """(bin indices, probabilities) as aligned read-only numpy arrays,
        the stored ones: every call returns the same two objects."""
        return self._j, self.masses


@dataclass(frozen=True)
class ReconstructedPdf:
    """Density assembled as sum_j p_j * D(x - z_j) with the profile D
    confined to one bin; evaluates to 0 outside the binned range."""

    base: BinnedDistribution
    ghf: GhfSpec

    def __post_init__(self) -> None:
        _check_profile_width(self.ghf, self.base.width)

    def eval(self, x):
        b, g = self.base, self.ghf
        r, shift = b._reduced  # bins placed on the grid (width, r)
        x = np.asarray(x, dtype=float)
        j = np.floor((x - r) / b.width + 0.5).astype(np.int64)
        idx = j - (b.j_min + shift)
        valid = (idx >= 0) & (idx < b.masses.size)
        pj = np.where(valid, b.masses[np.clip(idx, 0, b.masses.size - 1)], 0.0)
        v = (x - (r + j * b.width)) / g.eta
        t = g.t
        return pj * np.exp(-t * v * v) / (g.eta * bin_profile_norm(t))

    def density(self) -> Density1D:
        b = self.base
        z, half = _centers(b), 0.5 * b.width
        mean = float(np.dot(b.masses, z))
        m2 = discrete_variance(b) + ghf_variance(self.ghf) + mean ** 2
        return Density1D(eval=self.eval, support=(float(z[0] - half), float(z[-1] + half)),
                         discontinuities=tuple((z[1:] - half).tolist()),
                         known_mean=mean, known_m2=m2)


# ---------------------------------------------------------------------------
# binning


def _reduce_offset(offset: float, width: float) -> tuple:
    """(r, k) with r = fmod(offset, width), which is exact, and k the whole
    number of widths it removes: bin j of the grid (width, offset) is bin
    j + k of the grid (width, r).  k must fit the int64 bin labels."""
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    if not abs(offset) < 2.0 ** 63 * width:
        raise ValueError(f"offset {offset!r} is 2^63 or more bin widths ({width!r}) "
                         f"from 0, beyond the int64 bin labels")
    r = math.fmod(offset, width)
    return r, round((offset - r) / width)


def _centers(b: BinnedDistribution) -> np.ndarray:
    """Bin centres of b taken on its grid with the offset reduced modulo the
    width, where they do not drift with |offset|."""
    r, shift = b._reduced
    return r + (b.arrays()[0] + shift).astype(float) * b.width


def _bin_edges(j, width: float, offset: float):
    lo = offset + (np.asarray(j, dtype=float) - 0.5) * width
    return lo, lo + width


def _clean_block_masses(d: Density1D, j_arr: np.ndarray, width: float,
                        offset: float) -> np.ndarray:
    """Masses of bins lying fully inside the support with no interior cuts,
    by fixed-order panel quadrature with an order cross-check.  For a density
    with closed-form interval masses every bin counts as clean, and j_arr is
    then a contiguous run whose n bins share n + 1 edges."""
    if d.interval_masses is not None:
        edges = offset + (np.arange(j_arr[0], j_arr[-1] + 2) - 0.5) * width
        return np.maximum(d.interval_masses(edges), 0.0)
    lo, hi = _bin_edges(j_arr, width, offset)
    if d.osc_scale is not None:
        per = max(1, int(math.ceil(2.0 * width / d.osc_scale)))
    else:
        per = 1
    if per == 1:
        lo_p, hi_p = lo, hi
    else:
        steps = np.arange(per) / per
        lo_p = (lo[:, None] + width * steps[None, :]).ravel()
        hi_p = lo_p + width / per
    v16 = gauss_legendre_panels(d.eval, lo_p, hi_p, 16).reshape(len(j_arr), per).sum(axis=1)
    v32 = gauss_legendre_panels(d.eval, lo_p, hi_p, 32).reshape(len(j_arr), per).sum(axis=1)
    bad = np.abs(v32 - v16) > np.maximum(1e-15, 1e-12 * np.abs(v32))
    if np.any(bad):
        for i in np.nonzero(bad)[0]:
            v32[i] = integrate(lambda x: float(d.eval(x)), float(lo[i]), float(hi[i]))
    return np.maximum(v32, 0.0)


def _single_bin_mass(d: Density1D, j: int, width: float, offset: float,
                     cuts) -> float:
    lo_s, hi_s = d.support
    a = offset + (j - 0.5) * width
    b = a + width
    a = max(a, lo_s)
    b = min(b, hi_s)
    if not a < b:
        return 0.0
    points = [a] + [c for c in cuts if a < c < b] + [b]
    total = 0.0
    for left, right in zip(points[:-1], points[1:]):
        total += integrate(lambda x: float(d.eval(x)), left, right)
    return max(total, 0.0)


def bin_density(d: Density1D, eta: float, offset: float = 0.0) -> BinnedDistribution:
    """Bin a density on the grid (eta, offset).

    Bins are enumerated outward from the heaviest one until the cumulative
    mass reaches 1 - EPS_TAIL.  Masses come from d.interval_masses when
    present; otherwise by quadrature, split at density discontinuities and
    support edges.  Edges are formed from the offset reduced modulo eta; the
    result keeps the caller's offset and bin labels, and a ValueError names
    an offset whose labels would leave the int64 range.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"bin width must be positive and finite, got {eta}")
    r, shift = _reduce_offset(offset, eta)  # bins below are labeled on the grid (eta, r)
    lo_s, hi_s = d.support
    cuts = np.sort(np.asarray(d.discontinuities, dtype=float))

    for x0 in (d.known_mean,
               0.5 * (lo_s + hi_s) if math.isfinite(lo_s) and math.isfinite(hi_s) else None,
               0.0):
        if x0 is not None and math.isfinite(x0):
            break

    def masses_for(j_lo: int, n: int) -> np.ndarray:
        """Masses of bins j_lo .. j_lo + n - 1: clean bins (inside the support,
        no cut strictly inside) by one panel-rule call, the rest one by one."""
        js = np.arange(j_lo, j_lo + n, dtype=np.int64)
        if d.interval_masses is not None:
            return _clean_block_masses(d, js, eta, r)
        a, b = _bin_edges(js, eta, r)
        clean = ((a >= lo_s) & (b <= hi_s)
                 & (np.searchsorted(cuts, a, "right") == np.searchsorted(cuts, b, "left")))
        out = np.empty(n)
        if clean.any():
            out[clean] = _clean_block_masses(d, js[clean], eta, r)
        for i in np.flatnonzero(~clean):
            out[i] = _single_bin_mass(d, int(js[i]), eta, r, cuts)
        return out

    j0 = int(math.floor((x0 - r) / eta + 0.5))
    # grow outward from the seed trio j0 - 1 .. j0 + 1 in doubling blocks
    seed = masses_for(j0 - 1, 3)
    start = j0 - 1 + int(np.argmax(seed))
    left, right = [], []
    jl, jr = j0 - 1, j0 + 1
    cum = float(seed.sum())
    block_l = block_r = 16
    left_open = right_open = True
    target = 1.0 - EPS_TAIL
    while cum < target:
        if not (left_open or right_open):
            raise NonConvergence(
                f"binning stalled at cumulative mass {cum!r}; density may not "
                f"be normalized")
        if jr - jl + 1 > MAX_BINS:
            raise TailBudgetExceeded(
                f"more than {MAX_BINS} bins needed to reach 1 - {EPS_TAIL}")
        if left_open:
            if r + (jl - 0.5) * eta <= lo_s:  # right edge of the new block
                left_open = False
            else:
                jl -= block_l
                left.append(masses_for(jl, block_l))
                cum += float(left[-1].sum())
                block_l = min(block_l * 2, 8192)
        if cum >= target:
            break
        if right_open:
            if r + (jr + 0.5) * eta >= hi_s:  # left edge of the new block
                right_open = False
            else:
                right.append(masses_for(jr + 1, block_r))
                cum += float(right[-1].sum())
                jr += block_r
                block_r = min(block_r * 2, 8192)
    masses = np.concatenate(left[::-1] + [seed] + right)
    # drop empty bins at the extremes, keep interior zeros and the heaviest seed
    kept = np.flatnonzero(masses > 0.0)
    lo = min(int(kept[0]), start - jl)
    hi = max(int(kept[-1]), start - jl)
    j_min = jl + lo - shift
    if not -2 ** 63 <= j_min < 2 ** 63 - (hi - lo + 1):
        raise ValueError(f"offset {offset!r} shifts the bin labels from {j_min} on "
                         f"beyond the int64 range")
    return BinnedDistribution(width=eta, offset=offset, j_min=j_min,
                              masses=masses[lo:hi + 1], tail_mass=max(0.0, 1.0 - cum))


# ---------------------------------------------------------------------------
# discrete statistics


def discrete_variance(b: BinnedDistribution) -> float:
    """Variance of the bin-center distribution sum_j p_j at z_j, taken on
    exact label differences from the heaviest bin: on the centres z, masses
    summing to 1 - tail would add about (z * tail)^2."""
    memo = b._stats
    if "variance" not in memo:
        j, p = b.arrays()
        k = (j - j[np.argmax(p)]).astype(float)
        mean = float(np.dot(p, k))
        memo["variance"] = float(np.dot(p, (k - mean) ** 2)) * b.width ** 2
    return memo["variance"]


def discrete_renyi(b: BinnedDistribution, alpha: float) -> float:
    """Renyi entropy of order alpha of the bin probabilities, in nats.

    alpha = 1 is the Shannon branch, alpha = inf the min-entropy; the tail
    mass (below EPS_TAIL) is ignored.
    """
    if not alpha > 0.0:
        raise DomainError(f"entropy order must be positive, got {alpha}")
    key = ("renyi", float(alpha))
    memo = b._stats
    if key not in memo:
        memo[key] = _renyi(b.arrays()[1], alpha)
    return memo[key]


def _renyi(p: np.ndarray, alpha: float) -> float:
    p = p[p > 0.0]
    if alpha == 1.0:
        return float(-np.dot(p, np.log(p))) + 0.0
    if math.isinf(alpha):
        return -math.log(float(np.max(p))) + 0.0
    return _logsumexp(alpha * np.log(p)) / (1.0 - alpha) + 0.0


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a) for finite a: the n terms equal to the maximum m are
    kept out of the sum, ln(n e^m + s) = m + ln n + log1p(s / n)."""
    m = a.max()
    top = a == m
    e = np.exp(a - m)
    e[top] = 0.0
    n = np.count_nonzero(top)
    return float(np.log1p(e.sum() / n) + math.log(n) + m)


def ghf_variance(g: GhfSpec) -> float:
    """Variance of the per-bin profile around the bin center (eta^2/12 when
    flat)."""
    return g.eta ** 2 * ghf_var_shape(g.t)


def ghf_entropy(g: GhfSpec) -> float:
    """Shannon entropy of the per-bin profile (maximal, ln eta, when flat)."""
    return math.log(g.eta) + ghf_ent_shape(g.t)


def decompose_stats(b: BinnedDistribution, g: GhfSpec) -> tuple:
    """(variance, Shannon entropy) of the reconstructed density via the exact
    decomposition: discrete part plus profile part."""
    _check_profile_width(g, b.width)
    return (discrete_variance(b) + ghf_variance(g),
            discrete_renyi(b, 1.0) + ghf_entropy(g))


# ---------------------------------------------------------------------------
# finite-statistics sampling


def sample_counts(b: BinnedDistribution, n: int, seed: int) -> BinnedDistribution:
    """Empirical bin frequencies of n draws from the binned distribution b.

    The counts are one multinomial draw over b's masses renormalized to the
    binned range (whose mass is at least 1 - EPS_TAIL): the exact law of n
    draws binned on b's grid, deterministic for a given seed.  The observed
    range, first to last nonzero bin, is stored densely.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    p = b.masses
    counts = np.random.default_rng(seed).multinomial(n, p / math.fsum(p.tolist()))
    seen = np.flatnonzero(counts)
    lo, hi = int(seen[0]), int(seen[-1])
    return BinnedDistribution(width=b.width, offset=b.offset, j_min=b.j_min + lo,
                              masses=counts[lo:hi + 1] / n, tail_mass=0.0)
