"""Reference computations that tests compare the package against.

quad is scipy's QUADPACK adaptive Gauss-Kronrod quadrature, a route to
integrals independent of numerics.adaptive_panels, with its warnings and
an error estimate above the tolerance raised as NonConvergence.

root is scipy's brentq, a bracketed root finder; the package itself solves
only M(t) = u, by Newton steps.

sinc_eigen_oracle is a route to the top concentration eigenvalue lambda0
fully independent of specfun.prolate_r00: a Nystrom discretization of the
concentration kernel sin(c(x-y))/(pi(x-y)) on [-1,1] over a Gauss-Legendre
grid, symmetrized by sqrt-weight scaling, with the top eigenvalue from a
dense symmetric eigensolver.

prolate_mp is the high-precision reference for lambda0 that the tables in
specfun are built from (tests/gen_prolate_table.py) and checked against: the
Legendre coefficients of the angular function S00 from Rayleigh-quotient
iteration in mpmath, and R00(c, 1) = d_0 / S00(c, 0).

split_widths is the exact reduction of a coordinate by a width in rational
arithmetic (fractions.Fraction), against which states.split_widths and every
label it fixes are checked.

block_binning is coarse.bin_density as it was before the seed trio and the
first blocks of each side shared one call: one _clean_block_masses call per
block of the doubling schedule.

heis_reports is bounds._heis_reports, verbatim, as it was before each
binning kept its share of the variance relations in its memo: from the two
discrete variances, the bound set and an optional profile pair, every
per-axis factor recomputed for each report set.  Reports are compared with
it bit for bit.
"""

import functools
import math
import sys
import warnings
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np
from scipy import integrate, optimize

from cg_uncert import coarse
from cg_uncert.bounds import _LN_2PIE, _LN_MAX_FLOAT, BoundSet, RelationReport, func_K
from cg_uncert.coarse import GhfSpec, ghf_entropy, ghf_variance
from cg_uncert.numerics import DomainError, NonConvergence


def quad(f, a: float, b: float, abs_tol: float = 1e-10, rel_tol: float = 1e-10,
         limit: int = 2000) -> float:
    """Integral of the scalar function f over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit)
        except integrate.IntegrationWarning as exc:
            raise NonConvergence(f"quadrature on [{a}, {b}] did not converge: {exc}") from exc
    if not (math.isfinite(val) and err <= 10 * max(abs_tol, rel_tol * abs(val))):
        raise NonConvergence(f"quadrature on [{a}, {b}] gave {val} with error {err:.3e}")
    return val


def root(f, lo: float, hi: float) -> float:
    """The root of the scalar function f in [lo, hi], where f changes sign,
    to within 4 eps relative."""
    return optimize.brentq(f, lo, hi, xtol=5e-324, rtol=4.0 * sys.float_info.epsilon)


def _nystrom_lambda0(c: float, n: int) -> float:
    x, w = np.polynomial.legendre.leggauss(n)
    diff = x[:, None] - x[None, :]
    kern = (c / math.pi) * np.sinc(c * diff / math.pi)
    sw = np.sqrt(w)
    sym = sw[:, None] * kern * sw[None, :]
    return float(np.linalg.eigvalsh(sym)[-1])


def sinc_eigen_oracle(c: float) -> float:
    """Largest eigenvalue of the kernel sin(c(x-y))/(pi(x-y)) on [-1, 1].

    Grid size doubles until two successive estimates agree to 1e-10.
    """
    if c <= 0:
        raise ValueError("sinc kernel bandwidth c must be > 0")
    n = 64
    prev = _nystrom_lambda0(c, n)
    while n <= 4096:
        n *= 2
        cur = _nystrom_lambda0(c, n)
        if abs(cur - prev) <= 1e-10:
            return cur
        prev = cur
    raise NonConvergence(f"Nystrom eigenvalue did not stabilize at c={c}")


@functools.lru_cache(maxsize=None)
def prolate_mp(c, finer: bool = False) -> tuple:
    """(R00(c, 1), 1 - lambda0) as mpmath numbers, for c > 0 (a float or an
    mpf), at 2c/ln 10 + 60 digits over 40 + 1.3c Legendre terms; finer takes
    1.5 times the terms and 40 more digits, to check the first.

    1 - lambda0 falls like e^{-2c}, so it keeps about 60 digits after the
    cancellation in 1 - (2c/pi) R00^2.  The even-order coefficients d_2k of
    S00 are the eigenvector of the smallest eigenvalue of a symmetric
    tridiagonal matrix, found by Rayleigh-quotient iteration from a dense
    double-precision start; each step cubes the error, so five reach the
    working precision.  R00(c, 1) = d_0 / S00(c, 0), S00(c, 0) =
    sum d_2k P_2k(0), a sum that does not cancel."""
    nterms = 40 + int(1.3 * float(c))
    dps = 60 + int(2.0 * float(c) / math.log(10.0))
    if finer:
        nterms, dps = nterms * 3 // 2, dps + 40
    n = nterms
    with mpmath.workdps(dps):
        cc = mpmath.mpf(c) ** 2
        diag = [mpmath.mpf(2 * k * (2 * k + 1)) + cc * (2 * (2 * k) * (2 * k + 1) - 1)
                / ((4 * k - 1) * (4 * k + 3)) for k in range(n)]
        off = [cc * (2 * k + 1) * (2 * k + 2)
               / ((4 * k + 3) * mpmath.sqrt((4 * k + 1) * (4 * k + 5))) for k in range(n - 1)]
        dense = np.diag([float(v) for v in diag]) + np.diag([float(v) for v in off], -1)
        x = [mpmath.mpf(float(v)) for v in np.linalg.eigh(dense)[1][:, 0]]
        for _ in range(5):
            ax = [diag[i] * x[i] + (off[i - 1] * x[i - 1] if i else 0)
                  + (off[i] * x[i + 1] if i < n - 1 else 0) for i in range(n)]
            sigma = mpmath.fsum(a * b for a, b in zip(x, ax)) / mpmath.fsum(v * v for v in x)
            # Thomas solve of (A - sigma) y = x
            w, g = [mpmath.mpf(0)] * n, [mpmath.mpf(0)] * n
            piv = diag[0] - sigma
            w[0], g[0] = off[0] / piv, x[0] / piv
            for i in range(1, n):
                piv = diag[i] - sigma - off[i - 1] * w[i - 1]
                w[i] = off[i] / piv if i < n - 1 else 0
                g[i] = (x[i] - off[i - 1] * g[i - 1]) / piv
            y = g[:]
            for i in range(n - 2, -1, -1):
                y[i] = g[i] - w[i] * y[i + 1]
            norm = mpmath.sqrt(mpmath.fsum(v * v for v in y))
            x = [v / norm for v in y]
        d = [x[k] * mpmath.sqrt(4 * k + 1) for k in range(n)]
        s0 = mpmath.fsum((-1) ** k * mpmath.binomial(2 * k, k) / mpmath.mpf(4) ** k * d[k]
                         for k in range(n))
        r00 = abs(d[0] / s0)
        return r00, 1 - 2 * mpmath.mpf(c) / mpmath.pi * r00 ** 2


def split_widths(x: float, width: float) -> tuple:
    """(r, k) with k = trunc(x / width) and r = x - k width, both exact, r as
    the double it is (fmod's remainder is always one)."""
    k = math.trunc(Fraction(x) / Fraction(width))
    r = Fraction(x) - k * Fraction(width)
    assert Fraction(float(r)) == r
    return float(r), k


def block_binning(d, eta: float, offset: float = 0.0) -> tuple:
    """(j_min, masses, tail_mass) of d binned on the grid (eta, offset) block
    by block: the seed trio around the known mean (else the support's
    midpoint, else 0), then blocks of 16, 32, ... 8192 bins, left before
    right, until the mass reaches 1 - EPS_TAIL; empty end bins trimmed.
    Raises TailBudgetExceeded past MAX_BINS bins."""
    r, shift = coarse._reduce_offset(offset, eta)
    lo_s, hi_s = d.support
    mid = 0.5 * (lo_s + hi_s)
    x0 = next(x for x in (d.known_mean, mid, 0.0) if x is not None and math.isfinite(x))
    j0 = math.floor((x0 - r) / eta + 0.5)

    def block(j_lo, n):
        return coarse._clean_block_masses(d, range(j_lo, j_lo + n), eta, r)

    seed = block(j0 - 1, 3)
    left, right = [], []
    jl, jr, cum = j0 - 1, j0 + 1, float(seed.sum())
    size_l = size_r = 16
    open_l = open_r = True
    target = 1.0 - coarse.EPS_TAIL
    while cum < target:
        if not (open_l or open_r):
            raise NonConvergence(f"binning stalled at cumulative mass {cum!r}")
        if jr - jl + 1 > coarse.MAX_BINS:
            raise coarse.TailBudgetExceeded(
                f"more than {coarse.MAX_BINS} bins needed to reach 1 - {coarse.EPS_TAIL}")
        if open_l:
            if r + (jl - 0.5) * eta <= lo_s:
                open_l = False
            else:
                jl -= size_l
                left.append(block(jl, size_l))
                cum += float(left[-1].sum())
                size_l = min(2 * size_l, 8192)
        if cum >= target:
            break
        if open_r:
            if r + (jr + 0.5) * eta >= hi_s:
                open_r = False
            else:
                right.append(block(jr + 1, size_r))
                cum += float(right[-1].sum())
                jr += size_r
                size_r = min(2 * size_r, 8192)
    masses = np.concatenate(left[::-1] + [seed] + right)
    kept = np.flatnonzero(masses > 0.0)
    lo, hi = int(kept[0]), int(kept[-1])
    return jl + lo - shift, masses[lo:hi + 1], max(0.0, 1.0 - cum)


def heis_reports(var_x: float, var_p: float, bset: BoundSet,
                 ghfs: Optional[tuple], infeasible: bool) -> list:
    """The three variance-product reports from discrete second moments;
    ghfs is the profile pair of HeisPreopt, the flat pair when None."""
    for name, v in (("var_x", var_x), ("var_p", var_p)):
        if not (v >= 0.0 and math.isfinite(v)):
            raise DomainError(f"{name} must be nonnegative and finite, got {v}")
    dx, dp, hbar = bset.delta_x, bset.delta_p, bset.hbar
    flat = GhfSpec()
    ghf_x, ghf_p = (flat, flat) if ghfs is None else ghfs

    def log_product(gx: GhfSpec, gp: GhfSpec) -> float:
        return math.log(var_x + ghf_variance(gx, dx)) + math.log(var_p + ghf_variance(gp, dp))

    products = (
        # profile-smoothed product against the pre-optimization entropy bound
        ("HeisPreopt", log_product(ghf_x, ghf_p),
         bset.log_rhs_heis + 2.0 * ghf_entropy(ghf_x, dx) + 2.0 * ghf_entropy(ghf_p, dp)
         - 2.0 * _LN_2PIE),
        # flat-profile product against hbar^2/4
        ("HeisRect", log_product(flat, flat), 2.0 * math.log(0.5 * hbar)),
    )
    for rid, lhs_log, rhs_log in products:
        if not max(lhs_log, rhs_log) <= _LN_MAX_FLOAT:
            raise DomainError(
                f"{rid} sides exp({lhs_log!r}) and exp({rhs_log!r}) leave the double range "
                f"(delta_x={dx!r}, delta_p={dp!r}, hbar={hbar!r})")
    out = [RelationReport(rid, float(np.exp(lhs_log)), float(np.exp(rhs_log)),
                          lhs_log - rhs_log, infeasible=infeasible)
           for rid, lhs_log, rhs_log in products]

    # optimized form, kept in the log domain
    lhs = (math.log(func_K(var_x / dx ** 2))
           + math.log(func_K(var_p / dp ** 2)))
    out.append(RelationReport("HeisOptimal", lhs, bset.log_rhs_heis,
                              lhs - bset.log_rhs_heis, infeasible=infeasible))
    return out
