"""Reference quantum states and their marginal densities.

Every state exposes closed-form position and momentum probability densities
wrapped in Density1D records, together with closed-form interval masses
(error functions, a Hermite recurrence, elementary functions, and the sine
and cosine integrals of DLMF 6.2) that keep their relative precision in the
far tails.  Moments and differential Renyi entropies are
computed by quadrature: adaptive panels over the finite core of the support,
then geometrically growing tail rings until two consecutive rings fall below
the tolerance.  Densities whose second moment is not quadrature-reachable
(the box eigenstates in momentum, whose tails decay like p**-4 under slow
oscillation) carry exact moments instead and are marked heavy_tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import erfc, sici

from .numerics import (
    DEFAULT_QUAD,
    Divergent,
    NonConvergence,
    _gl_nodes,
    gauss_legendre_panels,
    integrate,
)
from .relations import (
    DomainError,
    RelationReport,
    beta_conjugate,
    conjugate_constant,
    verdict_from_margin,
)

__all__ = [
    "Gaussian",
    "HermiteGauss",
    "SquareWell",
    "Mixture",
    "StateModel",
    "Density1D",
    "position_density",
    "momentum_density",
    "variance",
    "renyi_entropy_cont",
    "check_continuous_relations",
    "catalog_states",
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


# ---------------------------------------------------------------------------
# state records


@dataclass(frozen=True)
class Gaussian:
    """Coherent Gaussian wave packet centred at (x0, p0) with position
    standard deviation sigma (minimum uncertainty, so sigma_p = hbar/(2 sigma))."""

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


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
    where the density (or its derivative) breaks so quadratures can split
    there.  known_mean/known_m2 are exact first and second raw moments when
    available; heavy_tail marks densities whose second moment must come from
    those fields because tail quadrature will not converge.  osc_scale is the
    shortest oscillation wavelength in the tails, used to size panel counts.
    interval_masses, when present, maps n + 1 finite ascending edges to the n
    masses between them in closed form, with relative precision in the tails;
    binning then needs no quadrature.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: tuple
    discontinuities: tuple = ()
    known_mean: Optional[float] = None
    known_m2: Optional[float] = None
    heavy_tail: bool = False
    osc_scale: Optional[float] = None
    interval_masses: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _gaussian_pdf(mu: float, sd: float) -> Callable[[np.ndarray], np.ndarray]:
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def pdf(x):
        z = (np.asarray(x, dtype=float) - mu) / sd
        return norm * np.exp(-0.5 * z * z)

    return pdf


def _masses_from_tails(z: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Interval masses between edges z given tail[i], the mass beyond z[i] on
    its own side of 0 (above it for z >= 0, below it for z < 0).  Intervals on
    one side take differences of small tails, which keeps far-tail masses
    relatively precise; an interval around 0 takes what both tails leave."""
    lo, hi, t_lo, t_hi = z[:-1], z[1:], tail[:-1], tail[1:]
    return np.where(lo >= 0.0, t_lo - t_hi,
                    np.where(hi <= 0.0, t_hi - t_lo, 1.0 - t_lo - t_hi))


def _gaussian_masses(mu: float, sd: float) -> Callable[[np.ndarray], np.ndarray]:
    scale = 1.0 / (sd * math.sqrt(2.0))

    def masses(edges):
        z = (np.asarray(edges, dtype=float) - mu) * scale
        return _masses_from_tails(z, 0.5 * erfc(np.abs(z)))

    return masses


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
    prev = np.full(xi.shape, math.pi ** -0.25)
    cur, tail = prev, np.zeros(xi.shape)
    if n >= 1:
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


def _hermite_masses(n: int, sd: float) -> Callable[[np.ndarray], np.ndarray]:
    def masses(edges):
        z = np.asarray(edges, dtype=float) / sd
        az = np.abs(z)
        # phi_n^2 is even, so the tail beyond |z| is S_n(|z|) = S_0 + T_n
        return _masses_from_tails(z, 0.5 * erfc(az) + _hermite_phi(n, az)[1])

    return masses


def _well_position_masses(n: int, length: float) -> Callable[[np.ndarray], np.ndarray]:
    k = n * math.pi / length

    def masses(edges):
        x = np.clip(np.asarray(edges, dtype=float), 0.0, length)
        lo, hi = x[:-1], x[1:]
        w = hi - lo
        # (2/L) int sin^2(kx) over [lo, hi], with sin 2k hi - sin 2k lo as a product
        return (w - np.cos(k * (lo + hi)) * np.sin(k * w) / k) / length

    return masses


# Cin(x) = int_0^x (1 - cos t)/t dt = sum_k (-1)^(k+1) x^(2k) / (2k (2k)!)
# (DLMF 6.2.12), summed for x^2 < 1; 9 terms reach 1e-17.
_CIN_SERIES = tuple((-1) ** (k + 1) / (2 * k * math.factorial(2 * k)) for k in range(9, 0, -1))

# A far-tail bin of the square-well momentum marginal is one at most
# _FAR_MAX_WIDTH wide in a whose nearer pole of 1/(a^2 b^2) is at least
# _FAR_POLE_GAP widths away from its midpoint.
_FAR_POLE_GAP = 4.0
_FAR_MAX_WIDTH = 64.0
# Taylor series truncation target; at the smallest pole gap it takes 22
# terms, within the _FAR_MAX_TERMS moments tabulated per width.
_FAR_REL_TOL = 1e-17
_FAR_MAX_TERMS = 24


def _cin(x: np.ndarray, ci: np.ndarray) -> np.ndarray:
    """Cin(x) from ci = Ci(|x|): gamma + ln|x| - Ci(|x|), or its series near 0."""
    x2 = x * x
    small = x2 < 1.0
    out = np.empty_like(x)
    acc = np.zeros(int(np.count_nonzero(small)))
    for c in _CIN_SERIES:
        acc = acc * x2[small] + c
    out[small] = acc * x2[small]
    big = ~small
    out[big] = np.euler_gamma + np.log(np.abs(x[big])) - ci[big]
    return out


@functools.lru_cache(maxsize=32)
def _sin2_moments(h: float) -> tuple:
    """int_{-h/2}^{h/2} t^k w(t) dt for k = 0.._FAR_MAX_TERMS and w = cos^2 t,
    sin^2 t, sin t cos t, by 64-point Gauss-Legendre (exact to rounding for h
    up to _FAR_MAX_WIDTH).  The even moments of cos^2 and sin^2 and the odd
    ones of sin cos have nonnegative integrands near 0, so they keep their
    relative precision as h -> 0."""
    x, w = _gl_nodes(64)
    t, w = 0.5 * h * x, 0.5 * h * w
    powers = t[None, :] ** np.arange(_FAR_MAX_TERMS + 1)[:, None]
    s, c = np.sin(t), np.cos(t)
    return powers @ (w * c * c), powers @ (w * s * s), powers @ (w * s * c)


def _well_momentum_masses(n: int, length: float, hbar: float) -> Callable[[np.ndarray], np.ndarray]:
    """Interval masses of the square-well momentum marginal.

    In a = (k_n - p/hbar) L/2 and b = n pi - a the density is
    (n pi)^2 sin^2 a / (2 pi a^2 b^2).  Near its poles a bin takes the
    difference of the antiderivative
        [-sin^2 a/a + Si(2a) + sin^2 b/b - Si(2b) + (Cin(2a) - Cin(2b))/(n pi)] / 2 pi,
    whose rounding (~1e-16 absolute) is small against the masses there.  In
    the far tails, where masses fall to 1e-20 and below, a bin of midpoint m
    and width h instead takes the Taylor series of 1/(a^2 b^2) about m
    integrated against sin^2(m + t) = sin^2 m cos^2 t + cos^2 m sin^2 t
    + sin 2m sin t cos t, with the moments of cos^2, sin^2 and sin cos over
    [-h/2, h/2] computed once per width: the leading terms are nonnegative,
    so nothing cancels.
    """
    npi = n * math.pi
    half = length / (2.0 * hbar)

    def antiderivative(a):
        b = npi - a
        si_a, ci_a = sici(2.0 * a)
        si_b, ci_b = sici(2.0 * b)
        return (-np.sin(a) * np.sinc(a / math.pi) + si_a
                + np.sin(b) * np.sinc(b / math.pi) - si_b
                + (_cin(2.0 * a, ci_a) - _cin(2.0 * b, ci_b)) / npi) / (2.0 * math.pi)

    def far(m, h):
        b = npi - m
        # 1/(a^2 b^2) = sum_k s_k t^k / (m^2 b^2) with s_k = sum_{i+j=k}
        # (i+1)(j+1) alpha^i beta^j, alpha = -1/m, beta = 1/b: the coefficients
        # of 1/((1 - alpha t)(1 - beta t))^2, by their four-term recurrence.
        # Term k is at most C(k+3, 3) r^k of the first, with r the half-width
        # over the smallest distance to a pole.
        r = 0.5 * h / float(np.min(np.minimum(np.abs(m), np.abs(b))))
        kmax = 0
        while math.comb(kmax + 4, 3) * r ** (kmax + 1) > _FAR_REL_TOL:
            kmax += 1
        mc, ms, mx = _sin2_moments(h)
        alpha, beta = -1.0 / m, 1.0 / b
        sig, prod = alpha + beta, alpha * beta
        c1, c2, c3, c4 = 2.0 * sig, -(sig * sig + 2.0 * prod), 2.0 * sig * prod, -prod * prod
        s1, s2, s3, s4 = 1.0, 0.0, 0.0, 0.0
        even_c, even_s, odd = mc[0], ms[0], 0.0
        for k in range(1, kmax + 1):
            s1, s2, s3, s4 = c1 * s1 + c2 * s2 + c3 * s3 + c4 * s4, s1, s2, s3
            if k % 2:
                odd = odd + mx[k] * s1
            else:
                even_c, even_s = even_c + mc[k] * s1, even_s + ms[k] * s1
        sm, cm = np.sin(m), np.cos(m)
        g = (npi / (m * b)) ** 2 / (2.0 * math.pi)
        return g * (sm * sm * even_c + cm * cm * even_s + 2.0 * sm * cm * odd)

    def masses(edges):
        p = np.asarray(edges, dtype=float)
        a = 0.5 * npi - p * half  # decreasing in p
        m = 0.5 * (a[:-1] + a[1:])
        hw = np.diff(p) * half
        h = float(np.max(hw))
        # the moments are tabulated for one width, so only bins as wide as the
        # widest, to the 1e-9 that rounding leaves on a uniform grid, go far
        is_far = ((h <= _FAR_MAX_WIDTH) & (np.abs(hw - h) <= 1e-9 * h)
                  & (np.minimum(np.abs(m), np.abs(npi - m)) >= _FAR_POLE_GAP * h))
        out = np.empty(m.size)
        if is_far.any():
            out[is_far] = far(m[is_far], h)
        near = ~is_far
        if near.any():
            touched = np.zeros(p.size, dtype=bool)
            touched[:-1] |= near
            touched[1:] |= near
            anti = np.zeros(p.size)
            anti[touched] = antiderivative(a[touched])
            out[near] = (anti[:-1] - anti[1:])[near]
        return out

    return masses


def position_density(s: StateModel) -> Density1D:
    """Closed-form position marginal of the state."""
    if isinstance(s, Gaussian):
        return Density1D(
            eval=_gaussian_pdf(s.x0, s.sigma),
            support=(-math.inf, math.inf),
            known_mean=s.x0,
            known_m2=s.sigma ** 2 + s.x0 ** 2,
            interval_masses=_gaussian_masses(s.x0, s.sigma),
        )
    if isinstance(s, HermiteGauss):
        n, sd = s.n, s.sigma

        def pdf(x):
            xi = np.asarray(x, dtype=float) / sd
            return _hermite_phi(n, xi)[0] ** 2 / sd

        return Density1D(
            eval=pdf,
            support=(-math.inf, math.inf),
            known_mean=0.0,
            known_m2=sd * sd * (n + 0.5),
            interval_masses=_hermite_masses(n, sd),
        )
    if isinstance(s, SquareWell):
        n, L = s.n, s.length
        kn = n * math.pi / L

        def pdf(x):
            x = np.asarray(x, dtype=float)
            inside = (x >= 0.0) & (x <= L)
            return np.where(inside, (2.0 / L) * np.sin(kn * x) ** 2, 0.0)

        m2 = L * L * (1.0 / 3.0 - 1.0 / (2.0 * (n * math.pi) ** 2))
        # interior nodes of sin^2 are kinks for entropy integrands
        nodes = tuple(m * L / n for m in range(1, n))
        return Density1D(
            eval=pdf,
            support=(0.0, L),
            discontinuities=nodes,
            known_mean=L / 2.0,
            known_m2=m2,
            interval_masses=_well_position_masses(n, L),
        )
    if isinstance(s, Mixture):
        return _mix_density(s, position_density)
    raise TypeError(f"unsupported state type {type(s).__name__}")


def momentum_density(s: StateModel) -> Density1D:
    """Closed-form momentum marginal of the state."""
    hbar = s.hbar
    if isinstance(s, Gaussian):
        sd_p = hbar / (2.0 * s.sigma)
        return Density1D(
            eval=_gaussian_pdf(s.p0, sd_p),
            support=(-math.inf, math.inf),
            known_mean=s.p0,
            known_m2=sd_p ** 2 + s.p0 ** 2,
            interval_masses=_gaussian_masses(s.p0, sd_p),
        )
    if isinstance(s, HermiteGauss):
        n = s.n
        sd_p = hbar / s.sigma

        def pdf(p):
            xi = np.asarray(p, dtype=float) / sd_p
            return _hermite_phi(n, xi)[0] ** 2 / sd_p

        return Density1D(
            eval=pdf,
            support=(-math.inf, math.inf),
            known_mean=0.0,
            known_m2=sd_p * sd_p * (n + 0.5),
            interval_masses=_hermite_masses(n, sd_p),
        )
    if isinstance(s, SquareWell):
        n, L = s.n, s.length
        kn = n * math.pi / L
        sign = 1.0 if n % 2 == 0 else -1.0  # (-1)^n
        amp = L / (4.0 * math.pi * hbar)

        def pdf(p):
            q = np.asarray(p, dtype=float) / hbar
            a = (kn - q) * (L / 2.0)
            b = (kn + q) * (L / 2.0)
            # |psi_tilde|^2 = amp * (sinc(a) - (-1)^n sinc(b))^2; np.sinc
            # takes the normalized argument
            d = np.sinc(a / math.pi) - sign * np.sinc(b / math.pi)
            return amp * d * d

        return Density1D(
            eval=pdf,
            support=(-math.inf, math.inf),
            known_mean=0.0,
            known_m2=(hbar * kn) ** 2,
            heavy_tail=True,
            osc_scale=2.0 * math.pi * hbar / L,
            interval_masses=_well_momentum_masses(n, L, hbar),
        )
    if isinstance(s, Mixture):
        return _mix_density(s, momentum_density)
    raise TypeError(f"unsupported state type {type(s).__name__}")


def _mix_density(mix: Mixture, marginal: Callable[[StateModel], Density1D]) -> Density1D:
    parts = [(w, marginal(s)) for w, s in mix.components]
    weights = [w for w, _ in parts]
    dens = [d for _, d in parts]

    def pdf(x):
        x = np.asarray(x, dtype=float)
        out = weights[0] * dens[0].eval(x)
        for w, d in zip(weights[1:], dens[1:]):
            out = out + w * d.eval(x)
        return out

    lo = min(d.support[0] for d in dens)
    hi = max(d.support[1] for d in dens)
    cuts = set()
    for d in dens:
        cuts.update(d.discontinuities)
        # component support edges become kinks of the mixture when interior
        for edge in d.support:
            if math.isfinite(edge) and lo < edge < hi:
                cuts.add(edge)
    mean = m2 = 0.0
    have_moments = all(d.known_mean is not None and d.known_m2 is not None for d in dens)
    for w, d in parts:
        if have_moments:
            mean += w * d.known_mean
            m2 += w * d.known_m2
    oscs = [d.osc_scale for d in dens if d.osc_scale is not None]
    parts_masses = [(w, d.interval_masses) for w, d in parts]
    masses = None
    if all(f is not None for _, f in parts_masses):
        def masses(edges):
            edges = np.asarray(edges, dtype=float)
            return sum(w * f(edges) for w, f in parts_masses)

    return Density1D(
        eval=pdf,
        support=(lo, hi),
        discontinuities=tuple(sorted(cuts)),
        known_mean=mean if have_moments else None,
        known_m2=m2 if have_moments else None,
        heavy_tail=any(d.heavy_tail for d in dens),
        osc_scale=min(oscs) if oscs else None,
        interval_masses=masses,
    )


# ---------------------------------------------------------------------------
# quadrature over densities

_MAX_RINGS = 48
_MAX_PANELS = 1 << 17
_PANEL_ORDER = 12


def _center_and_scale(d: Density1D) -> tuple:
    m = d.known_mean if d.known_mean is not None else 0.0
    if d.known_mean is not None and d.known_m2 is not None:
        var = max(d.known_m2 - d.known_mean ** 2, 0.0)
        s = math.sqrt(var) if var > 0.0 else 1.0
    else:
        s = 1.0
    return m, s


def _panels_total(f_vec, a: float, b: float, n_panels: int) -> float:
    edges = np.linspace(a, b, n_panels + 1)
    vals = gauss_legendre_panels(f_vec, edges[:-1], edges[1:], _PANEL_ORDER)
    return float(np.sum(vals))


def _ring_value(f_vec, a: float, b: float, osc: Optional[float], err_cls) -> float:
    if osc is not None:
        n = max(16, int(2.0 * (b - a) / osc) + 1)
    else:
        n = 32
    prev = _panels_total(f_vec, a, b, n)
    n *= 2
    while n <= _MAX_PANELS:
        cur = _panels_total(f_vec, a, b, n)
        if abs(cur - prev) <= 0.125 * max(DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.rel_tol * abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise err_cls(f"tail panel refinement stalled on [{a}, {b}]")


def _tail_sum(f_vec, edge: float, width0: float, direction: int,
              osc: Optional[float], err_cls) -> float:
    total = 0.0
    width = width0
    quiet = 0
    for _ in range(_MAX_RINGS):
        if direction > 0:
            a, b = edge, edge + width
            edge = b
        else:
            a, b = edge - width, edge
            edge = a
        v = _ring_value(f_vec, a, b, osc, err_cls)
        total += v
        width *= 2.0
        if abs(v) <= 0.25 * max(DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.rel_tol * abs(total)):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise err_cls("tail ring sum did not converge within the ring budget")


def _integrate_density(d: Density1D, h, err_cls=NonConvergence) -> float:
    """Integral of h(x, f(x)) over the support of density f.

    h must be vectorized.  The finite core is integrated adaptively piece by
    piece (split at listed discontinuities); infinite tails are summed over
    geometrically growing rings with fixed-order panel quadrature.
    """

    def f_vec(x):
        return h(x, d.eval(x))

    def f_scalar(x: float) -> float:
        return float(h(x, d.eval(x)))

    lo, hi = d.support
    m, s = _center_and_scale(d)
    a = lo if math.isfinite(lo) else m - 8.0 * s
    b = hi if math.isfinite(hi) else m + 8.0 * s
    if not a < b:
        raise ValueError(f"degenerate support [{lo}, {hi}]")

    points = [a]
    points.extend(c for c in sorted(d.discontinuities) if a < c < b)
    points.append(b)
    total = 0.0
    for left, right in zip(points[:-1], points[1:]):
        total += integrate(f_scalar, left, right)
    if not math.isfinite(lo):
        total += _tail_sum(f_vec, a, 8.0 * s, -1, d.osc_scale, err_cls)
    if not math.isfinite(hi):
        total += _tail_sum(f_vec, b, 8.0 * s, +1, d.osc_scale, err_cls)
    return total


def variance(d: Density1D) -> float:
    """Variance of the density; exact moments are used where quadrature
    cannot reach the tails."""
    if d.heavy_tail:
        if d.known_mean is None or d.known_m2 is None:
            raise Divergent("second moment of a heavy-tailed density with no "
                            "exact moments attached")
        return d.known_m2 - d.known_mean ** 2
    mean = _integrate_density(d, lambda x, f: x * f)
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
        return _integrate_density(d, _h_shannon, err_cls=Divergent)

    def h_pow(x, f):
        return np.power(np.maximum(np.asarray(f, dtype=float), 0.0), lam)

    integral = _integrate_density(d, h_pow, err_cls=Divergent)
    if not integral > 0.0:
        raise NonConvergence(f"power integral came out nonpositive ({integral})")
    return math.log(integral) / (1.0 - lam)


# ---------------------------------------------------------------------------
# continuous-variable relation checks


def _product_report(relation_id: str, lhs: float, rhs: float) -> RelationReport:
    if lhs <= 0.0:
        margin = -math.inf
    else:
        margin = math.log(lhs) - math.log(rhs)
    return RelationReport(relation_id, lhs, rhs, margin, verdict_from_margin(margin))


def _sum_report(relation_id: str, lhs: float, rhs: float) -> RelationReport:
    margin = lhs - rhs
    return RelationReport(relation_id, lhs, rhs, margin, verdict_from_margin(margin))


def check_continuous_relations(s: StateModel, alpha: float = 1.0) -> list:
    """Variance-product and entropic checks on the continuous marginals.

    alpha is the Renyi order on the position side, restricted to (1/2, 1];
    at alpha = 1/2 the conjugate order diverges and the check is unsupported.
    Returns reports for HUR, RenyiCont and ShannonCont.
    """
    if not 0.5 < alpha <= 1.0:
        raise DomainError(
            f"alpha must lie in (1/2, 1]; the conjugate order diverges toward "
            f"alpha = 1/2 (got {alpha})")
    rho_x = position_density(s)
    rho_p = momentum_density(s)
    hbar = s.hbar

    var_x = variance(rho_x)
    var_p = variance(rho_p)
    hur = _product_report("HUR", var_x * var_p, hbar * hbar / 4.0)

    h1_x = renyi_entropy_cont(rho_x, 1.0)
    h1_p = renyi_entropy_cont(rho_p, 1.0)
    shannon = _sum_report("ShannonCont", h1_x + h1_p, math.log(math.pi * math.e * hbar))

    if alpha == 1.0:
        ha_x, hb_p = h1_x, h1_p
    else:
        beta = beta_conjugate(alpha)
        ha_x = renyi_entropy_cont(rho_x, alpha)
        hb_p = renyi_entropy_cont(rho_p, beta)
    renyi = _sum_report("RenyiCont", ha_x + hb_p,
                        math.log(math.pi * hbar) + conjugate_constant(alpha))

    return [hur, renyi, shannon]


def catalog_states(hbar: float = 1.0) -> tuple:
    """Named reference states spanning the supported kinds, used by the
    validation sweeps and the command-line sampler."""
    return (
        ("gauss", Gaussian(0.0, 0.0, 1.0, hbar)),
        ("gauss_shifted", Gaussian(0.7, -0.3, 0.5, hbar)),
        ("hermite2", HermiteGauss(2, 1.0, hbar)),
        ("well1", SquareWell(1, 1.0, hbar)),
        ("well3", SquareWell(3, 1.5, hbar)),
        ("gauss_pair", Mixture(((0.6, Gaussian(-1.0, 0.0, 1.0, hbar)),
                                (0.4, Gaussian(2.0, 0.5, 1.5, hbar))), hbar)),
    )
