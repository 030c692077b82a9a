"""Coarse-grained measurement statistics.

Binning of continuous densities into fixed-width windows, a block of bins
at a time on its shared edges (from closed-form interval masses when the
density has them, by adaptive panel quadrature otherwise; the first blocks
out to the density's reach in one call), discrete variances and Renyi
entropies of the resulting probability vectors, computed once per binning
and order (the memo also keeps the binning's share of the variance relations,
which bounds computes), per-bin histogram profiles (one family,
exp(-t (u/eta)^2) truncated to the bin, whose t = 0 member is the flat bin),
densities reconstructed from binned data (each point in the bin its exact
residual places it in), the variance/entropy decomposition
identities, and finite-statistics sampling by exact multinomial draws over
the bin masses.

Grid convention: bin j of a grid (width eta, offset) covers
[offset + (j - 1/2) eta, offset + (j + 1/2) eta), half-open on the right,
with center z_j = offset + j eta.

A binning stores its first label and its masses and nothing else of their
size, and every pass over the bins after binning (edge trimming, locating the
heaviest bin, the discrete variance, the Renyi entropies) walks the masses
_CHUNK bins at a time through one reused buffer, so its temporaries stay a
chunk or two in size however many bins there are.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError, NonConvergence
from .specfun import bin_profile_norm, ghf_ent_shape, ghf_var_shape
from .states import (Density1D, _two_prod, _two_sum, grid_edges, panel_integrals,
                     split_widths)

__all__ = [
    "EPS_TAIL",
    "MAX_BINS",
    "MAX_WIDTH",
    "TailBudgetExceeded",
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
# the widest bin whose square, which every variance takes, is finite
MAX_WIDTH = math.sqrt(sys.float_info.max)
# bins per chunk of a pass over the masses: 64 KiB of float64 temporaries,
# below glibc's 128 KiB mmap threshold, so each chunk reuses heap pages
# instead of faulting in fresh ones
_CHUNK = 8192
# chunk-relative bin offsets 0 .. _CHUNK - 1, exact in float64
_RAMP = np.arange(_CHUNK, dtype=float)
# the largest seed label bin_density starts from: its enumeration spans at
# most MAX_BINS + 2 * 8192 bins, so every label it forms fits int64
_MAX_SEED = 2 ** 63 - 2 * MAX_BINS
_FIRST_BLOCKS = 8  # blocks per side, 16 ... 2048 bins, in the seed trio's call


class TailBudgetExceeded(RuntimeError):
    """Bin enumeration hit the bin budget before capturing 1 - EPS_TAIL."""


@dataclass(frozen=True, kw_only=True)
class GhfSpec:
    """Per-bin histogram profile exp(-t (u/eta)^2), u the offset from the center
    of a bin eta wide, truncated to the bin: flat at t = 0 (the default) and
    concentrated toward the center for t > 0, so its variance lies in
    (0, eta^2/12].  The variance relation's optimal profile, t = M^-1(u) > 0, is
    always of this kind, so the edge-heavy t < 0 is refused.  eta is not stored."""

    t: float = 0.0

    def __post_init__(self) -> None:
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise ValueError(f"shape t must be nonnegative and finite, got {self.t}")


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
    them.  The masses, a private copy of the caller's array, are the only
    storage the size of the binning; no labels are stored.  The storage is
    immutable, so the heaviest bin is located once and each discrete
    statistic is computed once per distribution and order, chunk by chunk,
    and then read from a private memo.  The offset is reduced modulo the
    width once, at construction, and every reader places the bins on the
    reduced grid."""

    width: float
    offset: float
    j_min: int
    masses: np.ndarray
    tail_mass: float = 0.0
    probs: Mapping = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.width <= MAX_WIDTH:
            raise ValueError(f"width must be positive with a finite square, got {self.width}")
        reduced = _reduce_offset(self.offset, self.width)
        j_min, p = int(self.j_min), np.array(self.masses, dtype=float)  # the one copy
        if p.ndim != 1 or p.size == 0:
            raise ValueError("need at least one bin")
        if not -2 ** 63 <= j_min <= 2 ** 63 - p.size:
            raise ValueError(f"j_min = {j_min} puts the labels of {p.size} bins beyond "
                             f"the int64 range")
        if p.min() < -1e-12:
            i = int(np.flatnonzero(p < -1e-12)[0])
            raise ValueError(f"negative probability {p[i]} in bin {j_min + i}")
        np.maximum(p, 0.0, out=p)
        p.flags.writeable = False
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
                            ("probs", _BinView(j_min, p)), ("_stats", {}), ("_reduced", reduced)):
            object.__setattr__(self, name, value)

    def center(self, j: int) -> float:
        r, shift = self._reduced
        return r + (j + shift) * self.width


@dataclass(frozen=True)
class ReconstructedPdf:
    """Density assembled as sum_j p_j * D(x - z_j) with the profile D
    confined to one bin; evaluates to 0 outside the binned range."""

    base: BinnedDistribution
    ghf: GhfSpec

    def eval(self, x):
        b, g = self.base, self.ghf
        r, shift = b._reduced  # bins placed on the grid (width, r)
        x = np.asarray(x, dtype=float)
        w, h = b.width, 0.5 * b.width
        # the float label j is a bin or more off past about 2^52 widths: the
        # residual x - r - j w, from error-free sums and products, moves it by
        # whole bins, and then by one where x lies beyond an exact edge
        # r + (j +- 1/2) w (d exact, d_lo to about eps^2 |x|)
        j = np.floor((x - r) / w + 0.5)
        (s, e), (p, q) = _two_sum(x, -r), _two_prod(j, w)
        m = np.floor(((s - p) + (e - q)) / w + 0.5)
        pm, qm = _two_prod(m, w)
        d, d_lo = (s - p) - pm, (e - q) - qm
        k = ((d - h) + d_lo >= 0.0) - ((d + h) + d_lo < 0.0).astype(float)
        idx = j.astype(np.int64) + (m + k).astype(np.int64) - (b.j_min + shift)
        valid = (idx >= 0) & (idx < b.masses.size)
        pj = np.where(valid, b.masses[np.clip(idx, 0, b.masses.size - 1)], 0.0)
        v = ((d - k * w) + d_lo) / w
        t = g.t
        return pj * np.exp(-t * v * v) / (w * bin_profile_norm(t))

    def density(self) -> Density1D:
        # edges formed as bin_density forms them: no sliver of a bin in the next
        b = self.base
        r, shift = b._reduced
        edges = grid_edges(r, b.width, b.j_min + shift, b.masses.size)
        var = discrete_variance(b)  # keeps the heaviest bin and the mean offset from it
        mean = b.center(b.j_min + b._stats["top"]) + b.width * b._stats["mean"]
        return Density1D(eval=self.eval, support=(float(edges[0]), float(edges[-1])),
                         discontinuities=tuple(edges[1:-1].tolist()), known_mean=mean,
                         known_var=var + ghf_variance(self.ghf, b.width))


# ---------------------------------------------------------------------------
# binning


def _reduce_offset(offset: float, width: float) -> tuple:
    """split_widths(offset, width), for an offset that is finite and whose
    whole-width count k fits the int64 bin labels."""
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    if not abs(offset) < 2.0 ** 63 * width:
        raise ValueError(f"offset {offset!r} is 2^63 or more bin widths ({width!r}) "
                         f"from 0, beyond the int64 bin labels")
    return split_widths(offset, width)


def _first(p: np.ndarray, compare: np.ufunc, value: float) -> int:
    """Index of the first entry x of p with compare(x, value), 0 when there is
    none (as argmax of the mask would give); one chunk at a time."""
    for s in range(0, p.size, _CHUNK):
        hit = compare(p[s:s + _CHUNK], value)
        i = int(np.argmax(hit))
        if hit[i]:
            return s + i
    return 0


def _clean_block_masses(d: Density1D, j_arr: range, width: float,
                        offset: float) -> np.ndarray:
    """Masses of the contiguous run of bins j_arr of the grid (width,
    offset): closed-form interval masses of the run's grid when the density
    has them, adaptive panel quadrature between its shared edges otherwise."""
    grid = (offset, width, j_arr[0], len(j_arr))
    if d.interval_masses is not None:
        masses = d.interval_masses(*grid)
    else:
        masses = panel_integrals(d, d.eval, grid_edges(*grid))
    return np.maximum(masses, 0.0)


def bin_density(d: Density1D, eta: float, offset: float = 0.0) -> BinnedDistribution:
    """Bin a density on the grid (eta, offset).

    Bins are enumerated outward from a seed trio in doubling blocks (16 to
    8192 bins) until the cumulative mass reaches 1 - EPS_TAIL; the seed trio
    and the blocks out to the first past d.reach take one call, and the reach
    changes only the number of calls.  Masses come from d.interval_masses when
    present; otherwise by adaptive panel quadrature, split at density
    discontinuities and support edges.  Edges are formed from the offset
    reduced modulo eta; the result keeps the caller's offset and bin labels,
    and a ValueError names a location or an offset whose labels would leave
    the int64 range.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"bin width must be positive and finite, got {eta}")
    r, shift = _reduce_offset(offset, eta)  # bins below are labeled on the grid (eta, r)
    lo_s, hi_s = d.support

    for x0 in (d.known_mean,
               0.5 * (lo_s + hi_s) if math.isfinite(lo_s) and math.isfinite(hi_s) else None,
               0.0):
        if x0 is not None and math.isfinite(x0):
            break

    x0_r, k0 = split_widths(x0, eta)
    j0 = k0 + math.floor((x0_r - r) / eta + 0.5)  # the bin of x0 on the grid (eta, r)
    if not abs(j0) < _MAX_SEED:
        raise ValueError(f"location {x0!r} of the density is {abs(x0 - r) / eta:.3g} bin widths "
                         f"({eta!r}) from 0, beyond the int64 bin labels")
    # one call for the seed trio and the first blocks of each side that the
    # loop below would take, out to the first past d.reach or the support
    lo_w, hi_w = d.reach(EPS_TAIL) if d.reach is not None else (math.inf, -math.inf)
    w_lo, w_hi = j0 - 1, j0 + 1
    for k in range(_FIRST_BLOCKS):
        if r + (w_lo - 0.5) * eta > max(lo_w, lo_s):
            w_lo -= 16 << k
        if r + (w_hi + 0.5) * eta < min(hi_w, hi_s):
            w_hi += 16 << k
    window = _clean_block_masses(d, range(w_lo, w_hi + 1), eta, r)

    def masses_for(j_lo: int, n: int) -> np.ndarray:
        if w_lo <= j_lo and j_lo + n <= w_hi + 1:
            return window[j_lo - w_lo:j_lo - w_lo + n]
        return _clean_block_masses(d, range(j_lo, j_lo + n), eta, r)

    # grow outward from the seed trio j0 - 1 .. j0 + 1 in doubling blocks
    seed = masses_for(j0 - 1, 3)
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
    # drop empty bins at both extremes, keep interior zeros
    lo = _first(masses, np.greater, 0.0)
    hi = masses.size - 1 - _first(masses[::-1], np.greater, 0.0)
    j_min = jl + lo - shift
    if not -2 ** 63 <= j_min < 2 ** 63 - (hi - lo + 1):
        raise ValueError(f"offset {offset!r} shifts the bin labels from {j_min} on "
                         f"beyond the int64 range")
    return BinnedDistribution(width=eta, offset=offset, j_min=j_min,
                              masses=masses[lo:hi + 1], tail_mass=max(0.0, 1.0 - cum))


# ---------------------------------------------------------------------------
# discrete statistics


def _top(b: BinnedDistribution, p: np.ndarray) -> int:
    """Index in p, b's masses, of b's first heaviest bin: located on the
    first call and kept in b's memo."""
    memo = b._stats
    if "top" not in memo:
        memo["top"] = _first(p, np.equal, p.max())  # np.argmax would copy the read-only p
    return memo["top"]


def discrete_variance(b: BinnedDistribution) -> float:
    """Variance of the bin-center distribution sum_j p_j at z_j, taken on
    exact label differences from the heaviest bin: on the centres z, masses
    summing to 1 - tail would add about (z * tail)^2.  Two passes, for the
    mean and then the squared deviations, one chunk of differences at a time;
    the mean, in widths from the heaviest bin, is kept next to the variance."""
    memo = b._stats
    if "variance" not in memo:
        p = b.masses
        top = _top(b, p)
        k = np.empty(min(p.size, _CHUNK))
        mean = var = 0.0
        for s in range(0, p.size, _CHUNK):
            pc = p[s:s + _CHUNK]
            mean += float(np.dot(pc, np.add(_RAMP[:pc.size], s - top, out=k[:pc.size])))
        for s in range(0, p.size, _CHUNK):
            pc = p[s:s + _CHUNK]
            kc = np.add(_RAMP[:pc.size], s - top, out=k[:pc.size])
            kc -= mean
            var += float(np.dot(pc, np.square(kc, out=kc)))
        memo["mean"], memo["variance"] = mean, var * b.width ** 2
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
        p = b.masses
        memo[key] = _renyi(p, alpha, _top(b, p))
    return memo[key]


def _renyi(p: np.ndarray, alpha: float, top: int) -> float:
    """Renyi entropy of the positive entries of p, which need not sum to 1
    and whose first maximum is p[top], one chunk of logarithms at a time:
    sum p ln p for Shannon, and for finite alpha != 1 ln sum exp(a) of
    a = alpha ln p as m + ln n + log1p(e / n), with m = a[top], n the number
    of terms equal to m and e the sum of exp(a - m) over the others."""
    if math.isinf(alpha):
        return -math.log(float(p[top])) + 0.0
    buf = np.empty(min(p.size, _CHUNK))
    # the same np.log as each chunk's, so that m is that chunk's entry bit for bit
    m = alpha * np.log(p[top:top + 1])[0]
    total, n = 0.0, 0
    for s in range(0, p.size, _CHUNK):
        pc = p[s:s + _CHUNK]
        if not pc.all():
            pc = pc[pc > 0.0]
        a = np.log(pc, out=buf[:pc.size])
        if alpha == 1.0:
            total += float(np.dot(pc, a))
            continue
        a *= alpha
        at_m = a == m
        n += int(np.count_nonzero(at_m))
        a -= m
        np.exp(a, out=a)
        a[at_m] = 0.0
        total += a.sum()
    if alpha == 1.0:
        return -total + 0.0
    return float(np.log1p(total / n) + math.log(n) + m) / (1.0 - alpha) + 0.0


def ghf_variance(g: GhfSpec, eta: float) -> float:
    """Variance of the per-bin profile on bins eta wide (eta^2/12 when flat)."""
    if not 0.0 < eta <= MAX_WIDTH:
        raise ValueError(f"eta must be positive with a finite square, got {eta}")
    return eta ** 2 * ghf_var_shape(g.t)


def ghf_entropy(g: GhfSpec, eta: float) -> float:
    """Shannon entropy of the per-bin profile on bins eta wide (maximal, ln eta, when flat)."""
    if not 0.0 < eta <= MAX_WIDTH:
        raise ValueError(f"eta must be positive with a finite square, got {eta}")
    return math.log(eta) + ghf_ent_shape(g.t)


def decompose_stats(b: BinnedDistribution, g: GhfSpec) -> tuple:
    """(variance, Shannon entropy) of the reconstructed density via the exact
    decomposition: discrete part plus profile part."""
    return (discrete_variance(b) + ghf_variance(g, b.width),
            discrete_renyi(b, 1.0) + ghf_entropy(g, b.width))


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
    total = math.fsum(x for s in range(0, p.size, _CHUNK) for x in p[s:s + _CHUNK].tolist())
    counts = np.random.default_rng(seed).multinomial(n, p / total)
    seen = np.flatnonzero(counts)
    lo, hi = int(seen[0]), int(seen[-1])
    return BinnedDistribution(width=b.width, offset=b.offset, j_min=b.j_min + lo,
                              masses=counts[lo:hi + 1] / n, tail_mass=0.0)
