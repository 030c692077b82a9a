"""Reference quantum states and their marginal densities.

Each distribution family has one builder that returns its complete Density1D
record: density, support, cuts, exact moments and closed-form interval masses
that keep their relative precision in the far tails.  Interval masses take a
block of bins as its grid (r, width, j_lo, n); grid_edges forms its edges the
one way binning forms them.  The families are the Hermite-Gaussian one (error
functions and a recurrence; a Gaussian is its n = 0 member about its centre)
and the square-well position (elementary functions) and momentum densities
(Gauss-Legendre panels on the pole-free form, sized by the bin width from one
rule table, nodes' sines seeded once per run of bins from tabulated offsets;
far-tail series differences for very wide bins).  position_density and
momentum_density only pick a family and its parameters: a Gaussian or Hermite
momentum marginal is the same family at the conjugate width.

Moments and differential Renyi entropies are computed by quadrature, all
through panel_integrals (which also bins densities without closed-form
masses): the finite core of the support, 8 standard deviations either side
of the known mean where the support is infinite, then tail rings of doubling
width, settled against the core's magnitude, until two consecutive rings
fall below the tolerance.  Densities whose variance is not
quadrature-reachable (the box eigenstates in momentum, whose tails decay
like p**-4 under slow oscillation) carry it exactly instead and are marked
heavy_tail.

The module holds states, densities and density functionals only; the
relation reports built from them are made in bounds.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .numerics import Divergent, DomainError, NonConvergence, _gl_nodes, adaptive_panels

__all__ = [
    "Gaussian",
    "HermiteGauss",
    "SquareWell",
    "Mixture",
    "StateModel",
    "Density1D",
    "grid_edges",
    "split_widths",
    "position_density",
    "momentum_density",
    "panel_integrals",
    "variance",
    "renyi_entropy_cont",
    "catalog_states",
    "EPS_TAIL",
    "MAX_HERMITE_N",
    "MAX_WELL_N",
]

# Largest quantum numbers accepted.  Binning cost grows like n per edge for
# HermiteGauss (its recurrence) and with n for SquareWell (n - 1 position
# nodes, a momentum peak at n pi hbar / L).  At the caps, checking
# HermiteGauss at widths (0.1, 0.1) or SquareWell at (0.1, 10) takes about
# 0.3 s on a 2-vCPU machine, start-up aside.
MAX_HERMITE_N = 1000
MAX_WELL_N = 100_000
# the mass a binning may leave uncovered, EPS_TAIL/2 per side of a reach
EPS_TAIL = 1e-9


# ---------------------------------------------------------------------------
# state records


def _check_width_square(name: str, width: float, factor: float = 1.0) -> None:
    """A marginal's variance is factor times the square of its width."""
    if not math.isfinite(width * width * factor):
        raise ValueError(f"marginal width {name} = {width!r} squares past the double range")


@dataclass(frozen=True)
class Gaussian:
    """Coherent Gaussian wave packet centred at (x0, p0) with position
    standard deviation sigma (minimum uncertainty, so sigma_p = hbar/(2 sigma))."""

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("x0", "p0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        _check_width_square("sigma", self.sigma)
        _check_width_square("hbar/(2 sigma)", self.hbar / (2.0 * self.sigma))


@dataclass(frozen=True)
class HermiteGauss:
    """n-th harmonic-oscillator eigenstate with length scale sigma."""

    n: int
    sigma: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"n must be a nonnegative integer, got {self.n}")
        if self.n > MAX_HERMITE_N:
            raise ValueError(f"n = {self.n} exceeds the cap {MAX_HERMITE_N}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        _check_width_square("sigma", self.sigma, self.n + 0.5)
        _check_width_square("hbar/sigma", self.hbar / self.sigma, self.n + 0.5)


@dataclass(frozen=True)
class SquareWell:
    """n-th eigenstate of the infinite well on [0, L]."""

    n: int
    length: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.n > MAX_WELL_N:
            raise ValueError(f"n = {self.n} exceeds the cap {MAX_WELL_N}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        _check_width_square("L", self.length)
        _check_width_square("hbar n pi/L", self.hbar * self.n * math.pi / self.length)


@dataclass(frozen=True)
class Mixture:
    """Statistical mixture of component states; weights must sum to one and
    every component must share the mixture's hbar."""

    components: tuple  # of (weight, state) pairs
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        comps = tuple((float(w), s) for w, s in self.components)
        object.__setattr__(self, "components", comps)
        total = 0.0
        for w, s in comps:
            if w <= 0.0 or not math.isfinite(w):
                raise ValueError(f"weights must be positive and finite, got {w}")
            if isinstance(s, Mixture):
                raise ValueError("nested mixtures are not supported")
            if not isinstance(s, (Gaussian, HermiteGauss, SquareWell)):
                raise TypeError(f"unsupported component type {type(s).__name__}")
            if s.hbar != self.hbar:
                raise ValueError(
                    f"component hbar {s.hbar} differs from mixture hbar {self.hbar}"
                )
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")


StateModel = Union[Gaussian, HermiteGauss, SquareWell, Mixture]


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class Density1D:
    """Normalized probability density on the line.

    eval accepts scalars or arrays.  discontinuities lists interior points
    where the density (or its derivative) breaks; quadrature panels end
    there (halving finds an unlisted jump only slowly, if at all).
    known_mean/known_var are the exact mean and variance when available;
    they centre and size the quadrature core, and heavy_tail marks densities
    whose variance must come from known_var because tail quadrature will not
    converge.  osc_scale is the
    shortest oscillation wavelength in the tails; no quadrature panel is
    wider than half of it.  interval_masses, when present, maps a block of
    bins given as its grid (r, width, j_lo, n), the n bins j_lo .. j_lo + n - 1
    of the grid (width, r) with edges grid_edges(r, width, j_lo, n), to their
    masses in closed form, with relative precision in the tails; without it,
    bins take panel_integrals over those edges.  reach estimates (lo, hi),
    where each tail falls to EPS_TAIL/2, for binning's first, merged call.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: tuple
    discontinuities: tuple = ()
    known_mean: Optional[float] = None
    known_var: Optional[float] = None
    heavy_tail: bool = False
    osc_scale: Optional[float] = None
    interval_masses: Optional[Callable[[float, float, int, int], np.ndarray]] = None
    reach: Optional[tuple] = None


def grid_edges(r: float, width: float, j_lo: int, n: int) -> np.ndarray:
    """The n + 1 edges r + (j - 1/2) width, j = j_lo .. j_lo + n, of the n
    bins j_lo .. j_lo + n - 1 of the grid (width, r), each formed from its
    label, so that neighbouring bins share an edge bit for bit."""
    return r + (np.arange(j_lo, j_lo + n + 1) - 0.5) * width


def split_widths(x: float, width: float) -> tuple:
    """(r, k) with r = fmod(x, width), which is exact, and k the integer with
    x = r + k width exactly: x / width truncated, in integer arithmetic on the
    exact ratios of the two doubles.  Bin j of the grid (width, x) is bin
    j + k of the grid (width, r).  x finite, width positive and finite."""
    a, b = float(x).as_integer_ratio()
    c, d = float(width).as_integer_ratio()
    k = abs(a) * d // (b * c)
    return math.fmod(x, width), k if a >= 0 else -k


def _masses_from_tails(z: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Interval masses between edges z given tail[i], the mass beyond z[i] on
    its own side of 0 (above it for z >= 0, below it for z < 0).  Intervals on
    one side take differences of small tails, which keeps far-tail masses
    relatively precise; an interval around 0 takes what both tails leave."""
    m, k = tail[1:] - tail[:-1], z.searchsorted(0.0)  # k: the first edge >= 0, or -0.0
    np.subtract(0.0, m[k:], out=m[k:])  # t_lo - t_hi from edge k on: exact, +0.0 for equal tails
    if 0 < k < z.size and z[k] > 0.0:  # the interval around 0
        m[k - 1] = 1.0 - tail[k - 1] - tail[k]
    return m


def _erfc(z: np.ndarray) -> np.ndarray:
    """math.erfc over a 1-D array of z >= 0, within 4e-16 relative where it does not
    underflow; at about 90 ns an element, _hermite asks only at bins inside its span."""
    return np.fromiter(map(math.erfc, z.tolist()), float, z.size)


def _hermite_phi(n: int, xi: np.ndarray) -> tuple:
    """(phi_n(xi), T_n(xi)): the orthonormal Hermite function and
    T_n = sum_{k=1}^n phi_k phi_{k-1} / sqrt(2k), for which the distribution
    function of phi_n^2 is F_n = F_0 - T_n.

    The normalized recurrence phi_k = xi sqrt(2/k) phi_{k-1} - sqrt((k-1)/k)
    phi_{k-2} runs on values rescaled every 8 steps, with the scale (and the
    factor exp(-xi^2/2)) kept as a logarithm, so that nothing underflows
    inside the oscillating region of large n.
    """
    # phi_n and T_n are 0 in double precision long before |xi| = 1e6
    xi = np.clip(np.asarray(xi, dtype=float), -1e6, 1e6)
    log_scale = -0.5 * xi * xi
    prev = math.pi ** -0.25
    if not n:  # the Gaussian, with T_0 = 0
        return prev * np.exp(log_scale), 0.0
    cur = math.sqrt(2.0) * xi * prev
    tail = cur * prev * math.sqrt(0.5)
    for k in range(2, n + 1):
        cur, prev = xi * math.sqrt(2.0 / k) * cur - math.sqrt((k - 1) / k) * prev, cur
        tail += cur * prev / math.sqrt(2.0 * k)
        if k % 8 == 0:
            big = np.maximum(np.abs(cur), np.abs(prev))
            cur, prev, tail = cur / big, prev / big, tail / (big * big)
            log_scale += np.log(big)
    return cur * np.exp(log_scale), tail * np.exp(2.0 * log_scale)


def _hermite_tail(n: int, z: np.ndarray) -> np.ndarray:
    """S_n(z) = erfc(z)/2 + T_n(z), the mass of phi_n^2 beyond z >= 0 (T_0 = 0)."""
    tail = 0.5 * _erfc(z)
    if n:
        tail += _hermite_phi(n, z)[1]
    return tail


@functools.lru_cache(maxsize=256)
def _tail_point(n: int, eps: float) -> float:
    """z_n(eps) >= 0, where S_n(z), the mass of phi_n^2 beyond z, falls to eps/2
    (erfc^-1(eps) at n = 0), from above: three rounds of 256 points narrow
    [0, sqrt(2n + 1) + 40], past which S_n underflows; at eps = 0, S_n is
    exactly 0 from z_n on (27.206 at n = 0, 59.31 at 1000)."""
    lo, hi = 0.0, math.sqrt(2.0 * n + 1.0) + 40.0
    for _ in range(3):
        z = np.linspace(lo, hi, 257)
        i = max(1, int(np.argmax(_hermite_tail(n, z) <= 0.5 * eps)))
        lo, hi = float(z[i - 1]), float(z[i])
    return hi


def _hermite(n: int, sd: float, mu: float = 0.0, var: Optional[float] = None) -> Density1D:
    """Density phi_n((x - mu)/sd)^2 / sd of the n-th Hermite function at scale sd
    about mu, of variance var, sd^2 (n + 1/2) unless given: n = 0 is N(mu, sd^2/2).
    Masses take edges relative to mu reduced modulo the bin width, as the grid
    offset is, so that edges far from the origin do not round to ulp(mu).  S_n is 0
    past z = +-_tail_point(n, 0): bisection on single edges finds the bins inside."""

    def pdf(x):
        return _hermite_phi(n, (np.asarray(x, dtype=float) - mu) / sd)[0] ** 2 / sd

    def masses(r, width, j_lo, count):
        mu_r, k_mu = split_widths(mu, width)
        r, j_lo, span = r - mu_r, j_lo - k_mu, _tail_point(n, 0.0)

        def z_at(i):  # edge i of the block over sd, as grid_edges forms it
            return (r + (j_lo + i - 0.5) * width) / sd

        lo = bisect.bisect_right(range(1, count + 1), -span, key=z_at) if z_at(1) <= -span else 0
        hi = bisect.bisect_left(range(count), span, key=z_at) if z_at(count - 1) >= span else count
        z = grid_edges(r, width, j_lo + lo, hi - lo) / sd
        # phi_n^2 is even, so the tail beyond |z| is S_n(|z|)
        m = _masses_from_tails(z, _hermite_tail(n, np.abs(z)))
        return m if m.size == count else np.concatenate((np.zeros(lo), m, np.zeros(count - hi)))

    z_eps = _tail_point(n, EPS_TAIL)
    return Density1D(eval=pdf, support=(-math.inf, math.inf), known_mean=mu,
                     known_var=sd * sd * (n + 0.5) if var is None else var,
                     interval_masses=masses, reach=(mu - sd * z_eps, mu + sd * z_eps))


def _well_position(n: int, length: float) -> Density1D:
    """Density (2/L) sin^2(n pi x / L) on [0, L]; its interior nodes are kinks
    for entropy integrands."""
    k = n * math.pi / length

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= length)
        return np.where(inside, (2.0 / length) * np.sin(k * x) ** 2, 0.0)

    def masses(r, width, j_lo, count):
        x = np.clip(grid_edges(r, width, j_lo, count), 0.0, length)
        lo, hi = x[:-1], x[1:]
        w = hi - lo
        # (2/L) int sin^2(kx) over [lo, hi], with sin 2k hi - sin 2k lo as a product
        return (w - np.cos(k * (lo + hi)) * np.sin(k * w) / k) / length

    return Density1D(
        eval=pdf, support=(0.0, length),
        discontinuities=tuple(m * length / n for m in range(1, n)),
        known_mean=length / 2.0,
        known_var=length * length * (1.0 / 12.0 - 1.0 / (2.0 * (n * math.pi) ** 2)),
        interval_masses=masses, reach=(0.0, length))


# Square-well momentum panel rule, widths in a.  A bin up to h wide takes
# k = ceil(h / _WELL_PANEL) equal panels of the fewest Gauss-Legendre points n
# whose limit in _WELL_RULE covers h / k (_well_rule); the bins of a grid share
# their width, so one rule serves a whole block.  At its limit each entry's
# relative error, worst on panels centred on zeros of sin a, is at most that
# of the 4-point rule at 0.125 (3.3e-12 on |a| from 3 to 3000).  The nodes are
# evaluated as offsets from one seed per _WELL_SEED_BLOCK bins, with one
# sine-cosine pair per seed and a table of the offsets' sines and cosines
# built once per width (_well_momentum), so no node is rounded to the ulp of
# a.  Bins wider than _WELL_MAX_PANEL_BIN, where panels would cost more than
# the narrowest binning, take differences of one-sided tails (_well_far_tail).
_WELL_RULE = ((4, 0.125), (5, 0.35), (6, 0.75), (7, 1.5), (8, 2.0), (10, 4.0))
_WELL_PANEL = 4.0
_WELL_MAX_PANEL_BIN = 32768.0
_WELL_SEED_BLOCK = 32  # bins per seed
# nodes per kernel call: its arrays stay at 128 KiB, which numpy takes from
# the heap rather than from fresh pages
_WELL_CHUNK = 1 << 14
_PI_LO = 1.2246467991473532e-16  # pi - math.pi
_WELL_TAIL_A = 64.0
_WELL_N_SERIES = [(k + 1) / (k + 3) for k in range(57, -1, -1)]
_WELL_K = np.arange(14.0)[:, None]
_WELL_O_COEF = np.array([(-1) ** (k // 2) * math.factorial(k) / 2 ** (k + 1) for k in range(14)])


def _halves(a):
    """Veltkamp's split of a into two halves of 26 bits each."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly, by Dekker's product
    (|a|, |b| below about 1e300)."""
    p = a * b
    (a1, a2), (b1, b2) = _halves(a), _halves(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _well_rule(h: float) -> tuple:
    """(k, n): the equal panels per bin and the Gauss-Legendre points per panel
    of bins h wide in a."""
    k = max(1, math.ceil(h / _WELL_PANEL))
    return k, next(n for n, limit in _WELL_RULE if h / k <= limit)


def _well_far_tail(y: np.ndarray, npi: float) -> np.ndarray:
    """Mass beyond y >= _WELL_TAIL_A past the square-well momentum peak in a: (n pi)^2 / (4 pi)
    times the integral from y on of (1 - cos 2s) phi(s), phi = s^-2 (s + n pi)^-2.  Without the
    cosine: y^-3 sum (k+1)(-q)^k/(k+3) up to q = n pi / y = 1/2 (58 terms), partial fractions
    beyond.  With it, by parts (DLMF 6.12): 14 derivatives, each by Leibniz's rule a sum of
    terms of one sign, (-1)^k phi^(k) = k! phi sum_j (j+1)(k-j+1) y^-j (y + n pi)^(j-k)."""
    u, w, q = 1.0 / y, 1.0 / (y + npi), npi / y
    n_int = np.where(q <= 0.5, np.polyval(_WELL_N_SERIES, -q) * u ** 3,
                     (u + w - 2.0 / npi * np.log1p(q)) / (npi * npi))
    pu, pw = (_WELL_K + 1.0) * u ** _WELL_K, (_WELL_K + 1.0) * w ** _WELL_K
    t = _WELL_O_COEF[:, None] * [(pu[:k + 1] * pw[k::-1]).sum(0) for k in range(_WELL_K.size)]
    o_int = (u * w) ** 2 * (t[1::2].sum(0) * np.cos(2.0 * y) - t[0::2].sum(0) * np.sin(2.0 * y))
    return npi * npi / (4.0 * math.pi) * (n_int - o_int)


def _well_momentum(n: int, length: float, hbar: float) -> Density1D:
    """Momentum marginal of the n-th square-well eigenstate.

    In a = n pi / 2 - p L / (2 hbar) and b = n pi - a the density is
    (n pi)^2 sin^2 a / (2 pi a^2 b^2) |da/dp|.  Since sin^2 a = sin^2 b, it is
    evaluated as (sin m / (m o))^2 with m = n pi / 2 - |p| L / (2 hbar) the
    nearer of a and b to 0 and o = n pi - m >= n pi / 2 the farther: no pole,
    nothing cancels, and the relative error is that of sin m.

    interval_masses takes a block of bins as its grid and gives each bin
    Gauss-Legendre panels on this form, the count and order its width needs
    (_WELL_RULE).  On each side of p = 0, m is affine in p, so every node of
    a run of _WELL_SEED_BLOCK bins sits at a fixed offset d from the centre
    m0 of the run's innermost bin, its seed, and
    sin m = sin m0 cos d - cos m0 sin d.  The offsets, their sines and
    cosines depend only on the bin width and are tabulated once per width;
    so are the offsets between the seeds of one chunk of runs.  Each chunk's
    first seed is formed from its bin label to about eps^2 (error-free
    products and sums), so a node lies within about eps |d| of its place on
    the exact grid, not eps |a|: far-tail bins keep the rule's own relative
    error.  A bin that straddles p = 0 is split there.  Bins over
    _WELL_MAX_PANEL_BIN wide in a take differences of tails (_well_far_tail),
    or, with an edge between the peaks, of masses from p = 0 out to their edges.
    """
    c, half = 0.5 * n * math.pi, length / (2.0 * hbar)
    npi, scale = 2.0 * c, 2.0 * c * c * half / math.pi
    # c + c_lo is n pi / 2 to about eps^2: pi = math.pi + _PI_LO
    c_lo = _two_prod(0.5 * n, math.pi)[1] + 0.5 * n * _PI_LO
    sin_c = math.sin(c) + c_lo * math.cos(c)
    cos_c = math.cos(c) - c_lo * math.sin(c)
    tables = {}  # bin width in p -> node table, of the last width binned

    def side(t):  # per unit y = -m; t is 0 or at least ~1e-16, so 1e-300 moves only t = 0
        return scale / half * (np.sin(t + 1e-300) / ((t + 1e-300) * (t + npi))) ** 2

    def pdf(p):
        return half * side(np.abs(np.asarray(p, dtype=float)) * half - c)

    def table(width):
        """The tables of bins width (s in a) wide: frac places each node of
        a bin from its low edge, in units of the width, and weights (summing
        to scale) weigh it; d holds the offsets in a of the nodes of a run of
        bins from the first one's centre, cs their cosines and sines and md
        ones and -d, as rows; r + r_lo are the offsets k s (bins per run)
        of the runs of a chunk, to about eps^2, and rcs their cosines and
        sines, as columns."""
        if width not in tables:
            tables.clear()
            s, s_lo = _two_prod(width, half)
            k, order = _well_rule(s)
            x, w = _gl_nodes(order)
            frac = ((np.arange(k)[:, None] + 0.5 * (x + 1.0)) / k).ravel()
            per_run = max(1, min(_WELL_SEED_BLOCK, _WELL_CHUNK // frac.size))
            d = (np.arange(per_run)[:, None] + (frac - 0.5)).ravel() * s
            # kb s1 and kb s2 are exact: s1 and s2 hold 26 bits, kb fewer than 27
            kb = float(per_run) * np.arange(max(1, _WELL_CHUNK // d.size))
            s1, s2 = _halves(s)
            r, r_lo = _two_sum(kb * s1, kb * s2)
            r_lo += kb * s_lo
            sin_r, cos_r = np.sin(r), np.cos(r)
            tables[width] = (frac, np.tile(w, k) * (0.5 * scale / k), d,
                             np.array([np.cos(d), np.sin(d)]), np.array([np.ones(d.size), -d]),
                             r, r_lo,
                             np.array([cos_r - r_lo * sin_r, sin_r + r_lo * cos_r]).T)
        return tables[width]

    def seeded(sc0, m0, lo, cs, md, weights, near):
        """Per-bin sums of weights times (sin m / (m o))^2 at m = m0 + lo - d:
        seeds m0 (rows) with their rounding errors lo and with sc0 holding
        sin m0 and -cos m0, against node offsets d (columns) with cs holding
        cos d and sin d and md ones and -d.  Both sin m and m come from
        outer products, sin m0 cos d - cos m0 sin d and m0 - d, each element
        rounded once.  The rows near, those that come within 1 of the peak
        m = 0, take sin m directly: there the rounding of the sum, about
        eps, is not small against sin m."""
        sin_m = sc0 @ cs
        m0_1 = np.ones((m0.size, 2))
        m0_1[:, 0] = m0
        m = m0_1 @ md
        if near.start < near.stop:
            mn = m[near] + lo[near, None]
            mn += 1e-300  # as in side
            m[near], sin_m[near] = mn, np.sin(mn)
        o = npi - m
        m *= o
        sin_m /= m
        sin_m *= sin_m
        return sin_m.reshape(-1, weights.size) @ weights

    def masses(r, width, j_lo, count):
        if width * half <= _WELL_MAX_PANEL_BIN:
            frac, weights, d, cs, md, r_k, r_lo, rcs = table(width)
            out = np.empty(count)

            def run(i, step, size):
                """Masses of the size bins i, i + step, ... of the block, all
                on one side of p = 0, ordered away from it."""
                per = min(size, d.size // frac.size)
                cols = per * frac.size
                dp, csp, mdp, w = d[:cols], cs[:, :cols], md[:, :cols], weights * width
                res = np.empty(-(-size // per) * per)
                for first in range(0, size, per * r_k.size):
                    rows = min(r_k.size, -(-(size - first) // per))
                    # the chunk's first centre in a, c - step (r + j width) half,
                    # as a + a_lo to about eps^2
                    x, e1 = _two_prod(float(j_lo + i + step * first), width)
                    x, e2 = _two_sum(r, x)
                    x, e3 = _two_prod(x, half)
                    a, e4 = _two_sum(c, -step * x)
                    a_lo = c_lo + e4 - step * (e3 + (e1 + e2) * half)
                    sin_a, cos_a = math.sin(a), math.cos(a)
                    sin_a, cos_a = sin_a + a_lo * cos_a, cos_a - a_lo * sin_a
                    # sin and -cos of the seeds a - r_k, by their sum rule
                    sc0 = rcs[:rows] @ np.array([[sin_a, -cos_a], [-cos_a, -sin_a]])
                    near = slice(0, 0)
                    if a - dp[0] > -1.0 and a - r_k[rows - 1] - dp[-1] < 1.0:
                        near = slice(*np.searchsorted(r_k[:rows], (a - dp[-1] - 1.0,
                                                                   a - dp[0] + 1.0)))
                    res[first:first + rows * per] = seeded(
                        sc0, a - r_k[:rows], a_lo - r_lo[:rows], csp, mdp, w, near)
                return res[:size]

            def edge(i):  # the low edge of bin i of the block, as grid_edges forms it
                return r + (j_lo + i - 0.5) * width

            below = bisect.bisect_right(range(1, count + 1), 0.0, key=edge)  # bins ending <= 0
            above = bisect.bisect_left(range(count), 0.0, key=edge)  # first bin starting >= 0
            if below:
                out[:below] = run(below - 1, -1, below)[::-1]
            if above < count:
                out[above:] = run(above, 1, count - above)
            if below < above:  # bin `below` straddles p = 0: one part on each side, as one row
                u = np.array([-edge(below), edge(below + 1)])
                dd = (u[:, None] * (half * frac)).ravel()
                near = slice(0, 1 if c - dd.max() < 1.0 else 0)
                out[below] = seeded(np.array([[sin_c, -cos_c]]), np.array([c]), np.array([c_lo]),
                                    np.array([np.cos(dd), np.sin(dd)]),
                                    np.array([np.ones(dd.size), -dd]),
                                    (u[:, None] * weights).ravel(), near)[0]
            return out
        p = grid_edges(r, width, j_lo, count)
        # y = |p| half - (c + c_lo), the product's rounding error kept as the panels keep it;
        # half goes in as m 2^k, m in [1/2, 1), so that Dekker's split of it cannot overflow,
        # and |p| is capped where y = inf would make cos 2y NaN
        m, k = math.frexp(half)
        x, e = _two_prod(np.ldexp(np.minimum(np.abs(p), 1e200 / half), k), m)
        y = (x - c) + (e - c_lo)
        tail, near = _well_far_tail(np.maximum(y, _WELL_TAIL_A), npi), y < _WELL_TAIL_A
        if not near.any():
            return _masses_from_tails(p, tail)
        # panels out to the cut, as many as n needs, whatever the width, placed in y
        # so that nodes keep the peak's phase
        per_y = Density1D(side, (-c, math.inf), osc_scale=math.pi)
        y_in, back = np.unique(np.append(y[near], _WELL_TAIL_A), return_inverse=True)
        parts = panel_integrals(per_y, side, y_in)
        tail[near] += np.cumsum(parts[::-1])[::-1][back[:-1]]
        # between the peaks, |p| < n pi hbar/L, g is the mass from p = 0 out to |p|, summed
        # outward: bins with an edge there take differences of g, not of tails near 1/2
        m, inside, g = _masses_from_tails(p, tail), y < 0.0, 0.5 - tail
        if inside.any():
            lead = panel_integrals(per_y, side, np.array([-c, y_in[0]]))
            g[inside] = np.cumsum(np.append(lead, parts))[back[:-1]][y[near] < 0.0]
            live = inside[:-1] | inside[1:]
            m[live] = np.diff(np.copysign(g, p))[live]
        return m

    # the far tail's leading term, (n pi)^2 / (4 pi) / (3 y^3), is EPS_TAIL/2
    p_eps = ((npi * npi / (6.0 * math.pi * EPS_TAIL)) ** (1.0 / 3.0) + c) / half
    return Density1D(eval=pdf, support=(-math.inf, math.inf), known_mean=0.0,
                     known_var=(hbar * n * math.pi / length) ** 2, heavy_tail=True,
                     osc_scale=2.0 * math.pi * hbar / length, interval_masses=masses,
                     reach=(-p_eps, p_eps))


def position_density(s: StateModel) -> Density1D:
    """Closed-form position marginal of the state."""
    if isinstance(s, Gaussian):
        return _hermite(0, s.sigma * math.sqrt(2.0), s.x0, s.sigma ** 2)
    if isinstance(s, HermiteGauss):
        return _hermite(s.n, s.sigma)
    if isinstance(s, SquareWell):
        return _well_position(s.n, s.length)
    if isinstance(s, Mixture):
        return _mix_density(s, position_density)
    raise TypeError(f"unsupported state type {type(s).__name__}")


def momentum_density(s: StateModel) -> Density1D:
    """Closed-form momentum marginal of the state: a Gaussian of width
    hbar/(2 sigma) at p0, a Hermite function at scale hbar/sigma."""
    if isinstance(s, Gaussian):
        sd = s.hbar / (2.0 * s.sigma)
        return _hermite(0, sd * math.sqrt(2.0), s.p0, sd ** 2)
    if isinstance(s, HermiteGauss):
        return _hermite(s.n, s.hbar / s.sigma)
    if isinstance(s, SquareWell):
        return _well_momentum(s.n, s.length, s.hbar)
    if isinstance(s, Mixture):
        return _mix_density(s, momentum_density)
    raise TypeError(f"unsupported state type {type(s).__name__}")


def _mix_density(mix: Mixture, marginal: Callable[[StateModel], Density1D]) -> Density1D:
    parts = [(w, marginal(s)) for w, s in mix.components]

    def weighted(kernel):  # the weighted sum of a kernel of the components
        return lambda *args: sum(w * getattr(d, kernel)(*args) for w, d in parts)

    lo = min(d.support[0] for _, d in parts)
    hi = max(d.support[1] for _, d in parts)
    cuts = set()
    for w, d in parts:
        cuts.update(d.discontinuities)
        # component support edges become kinks of the mixture when interior
        cuts.update(e for e in d.support if math.isfinite(e) and lo < e < hi)
    # moments about the first mean, from which nearby means differ exactly
    m0 = parts[0][1].known_mean
    dm = sum(w * (d.known_mean - m0) for w, d in parts)
    var = sum(w * (d.known_var + (d.known_mean - m0 - dm) ** 2) for w, d in parts)
    oscs = [d.osc_scale for _, d in parts if d.osc_scale is not None]
    # a weight w <= 1 leaves at most w EPS_TAIL/2 past its component's reach
    return Density1D(eval=weighted("eval"), support=(lo, hi),
                     discontinuities=tuple(sorted(cuts)), known_mean=m0 + dm, known_var=var,
                     heavy_tail=any(d.heavy_tail for _, d in parts),
                     osc_scale=min(oscs) if oscs else None,
                     interval_masses=weighted("interval_masses"),
                     reach=(min(d.reach[0] for _, d in parts), max(d.reach[1] for _, d in parts)))


# ---------------------------------------------------------------------------
# quadrature over densities

# tail rings: the most per side, the most panels one ring of an oscillating
# density may take, and the ring size, against max(1, |integral|), below which
# two rings in a row end a tail
_MAX_RINGS = 48
_MAX_RING_PANELS = 1 << 16
_RING_TOL = 1e-10


def _split(x: np.ndarray, width: float) -> np.ndarray:
    """The ascending x, each gap cut into equal parts no wider than width."""
    k = np.ceil(np.diff(x) / width).astype(np.intp)
    j = np.repeat(np.arange(k.size), k)
    f = (np.arange(j.size) - np.repeat(np.cumsum(k) - k, k)) / k[j]
    return np.append(x[j] + f * (x[j + 1] - x[j]), x[-1])


def panel_integrals(d: Density1D, f_vec, edges: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Integrals of the vectorized f_vec between consecutive ascending finite
    edges, by adaptive_panels (scale passed on): the edges are clipped to
    the support of d, and the intervals split at its cuts and into panels no
    wider than half its osc_scale.  Intervals outside the support get 0."""
    edges = np.clip(np.asarray(edges, dtype=float), *d.support)
    cuts = np.asarray(d.discontinuities, dtype=float)
    x = np.unique(np.concatenate((edges, cuts[(cuts > edges[0]) & (cuts < edges[-1])])))
    if d.osc_scale is not None:
        x = _split(x, 0.5 * d.osc_scale)
    return adaptive_panels(f_vec, x[:-1], x[1:], np.searchsorted(edges, x[:-1], "right") - 1,
                           edges.size - 1, scale)


def _integrate_density(d: Density1D, h) -> float:
    """Integral of h(x, f(x)) over the support of density f, for a
    vectorized h, all by panel_integrals: over the finite core, which an
    infinite support ends 8 standard deviations from the mean, then over
    rings of doubling width, 8 standard deviations first, out along each
    infinite tail until two rings in a row are negligible.  Ring panels
    settle against the core's magnitude.  Raises Divergent when a tail does
    not settle within _MAX_RINGS rings, or when a ring of an oscillating
    density would take more than _MAX_RING_PANELS panels."""

    def f_vec(x):
        return h(x, d.eval(x))

    lo, hi = d.support
    m = d.known_mean or 0.0
    s = math.sqrt(d.known_var) if d.known_var else 1.0
    a = lo if math.isfinite(lo) else m - 8.0 * s
    b = hi if math.isfinite(hi) else m + 8.0 * s
    if not a < b:
        raise ValueError(f"degenerate support [{lo}, {hi}]")

    total = float(panel_integrals(d, f_vec, np.array([a, b]))[0])
    scale = abs(total)
    for edge, end, sign in ((a, lo, -1.0), (b, hi, 1.0)):
        width, rings, quiet = 8.0 * s, 0, 0
        while not math.isfinite(end) and quiet < 2:
            if rings == _MAX_RINGS:
                raise Divergent(f"tail did not settle within {_MAX_RINGS} rings, out to {edge!r}")
            if d.osc_scale is not None and 2.0 * width > _MAX_RING_PANELS * d.osc_scale:
                raise Divergent(f"tail ring of width {width!r} needs more than "
                                f"{_MAX_RING_PANELS} panels")
            far = edge + sign * width
            v = float(panel_integrals(d, f_vec, np.array(sorted((edge, far))), scale)[0])
            total += v
            edge, width, rings = far, 2.0 * width, rings + 1
            quiet = quiet + 1 if abs(v) <= 0.25 * _RING_TOL * max(1.0, abs(total)) else 0
    return total


def variance(d: Density1D) -> float:
    """Variance of the density, known_var where quadrature cannot reach the
    tails.  The mean is taken relative to known_mean, m + int (x - m) f, so
    that a density far from the origin keeps its mean's digits."""
    if d.heavy_tail:
        if d.known_var is None:
            raise Divergent("variance of a heavy-tailed density with no exact variance attached")
        return d.known_var
    m = d.known_mean or 0.0
    mean = m + _integrate_density(d, lambda x, f: (x - m) * f)
    return _integrate_density(d, lambda x, f: (x - mean) ** 2 * f)


def _h_shannon(x, f):
    f = np.maximum(np.asarray(f, dtype=float), 0.0)
    safe = np.where(f > 0.0, f, 1.0)
    return -np.where(f > 0.0, f * np.log(safe), 0.0)


def renyi_entropy_cont(d: Density1D, lam: float) -> float:
    """Differential Renyi entropy of order lam (lam = 1 gives Shannon).

    Raises Divergent when the defining integral cannot be summed to tolerance
    (slowly decaying tails at small orders).
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"entropy order must be positive and finite, got {lam}")
    if lam == 1.0:
        return _integrate_density(d, _h_shannon)

    def h_pow(x, f):
        return np.power(np.maximum(np.asarray(f, dtype=float), 0.0), lam)

    integral = _integrate_density(d, h_pow)
    if not integral > 0.0:
        raise NonConvergence(f"power integral came out nonpositive ({integral})")
    return math.log(integral) / (1.0 - lam)


def catalog_states(hbar: float = 1.0) -> tuple:
    """Named reference states spanning the supported kinds, used by the
    validation sweeps of the tests."""
    return (
        ("gauss", Gaussian(0.0, 0.0, 1.0, hbar)),
        ("gauss_shifted", Gaussian(0.7, -0.3, 0.5, hbar)),
        ("hermite2", HermiteGauss(2, 1.0, hbar)),
        ("well1", SquareWell(1, 1.0, hbar)),
        ("well3", SquareWell(3, 1.5, hbar)),
        ("gauss_pair", Mixture(((0.6, Gaussian(-1.0, 0.0, 1.0, hbar)),
                                (0.4, Gaussian(2.0, 0.5, 1.5, hbar))), hbar)),
    )
