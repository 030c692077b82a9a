"""Special functions behind the entropic bounds: the radial prolate
spheroidal function R00(c, 1) of the first kind with the sinc-kernel
concentration eigenvalue lambda0, and the shape functions of the
truncated-Gaussian histogram profile (variance and entropy of exp(-t v^2)
restricted to one bin, as functions of t alone).

prolate_r00 takes lambda0 from a Bouwkamp-type Legendre coefficient
expansion.  The even-order coefficients d_{2k} of the angular function of
order (0,0) solve a symmetric tridiagonal eigenproblem (smallest eigenvalue),
solved by inverse iteration with a tridiagonal LDL^T solve; R00(c,1) =
d_0 / S00(c,0) follows from the integral equation of the angular function at
eta = 0, and lambda0 = (2c/pi) R00(c,1)^2.  Numpy and plain floats only:
against a 60-digit eigensolve, 1 - lambda0 is within 9e-7 relative for c in
[8, 12).

For c beyond ~12 the complement 1 - lambda0 falls under the double-precision
resolution of lambda0 itself, so ProlateResult additionally carries
lambda0_deficit computed from the large-c asymptote
    1 - lambda0 ~ 4 sqrt(pi c) e^{-2c} (1 - 7/(16c) + d2/c^2 + d3/c^3),
whose correction coefficients were calibrated once against a 60-digit
eigensolve of the same expansion (relative error <= ~1e-5 at the switch,
~1e-7 past c = 16).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import NonConvergence

__all__ = [
    "ProlateResult",
    "prolate_r00",
    "two_t_m",
    "ghf_var_shape",
    "ghf_ent_shape",
    "bin_profile_norm",
    "log_bin_profile_norm",
]


@dataclass(frozen=True)
class ProlateResult:
    c: float
    r00_at_1: float
    lambda0: float
    terms_used: int  # 0 on the closed-form branches (c = 0 and large c)
    est_error: float
    # 1 - lambda0 evaluated without cancellation; authoritative for large c
    # where the lambda0 field itself rounds to 1.0.
    lambda0_deficit: float


# Calibrated against the 60-digit reference (see module docstring).
_DEFICIT_D2 = -0.1757821481
_DEFICIT_D3 = -0.40141706
_DEFICIT_SWITCH = 12.0


def _deficit_asymptote(c: float) -> float:
    # log-domain guard first: e^{-2c} underflows past c ~ 354, and c**3
    # overflows past c ~ 5.6e102
    lg = math.log(4.0 * math.sqrt(math.pi * c)) - 2.0 * c
    if lg < -745.0:
        return 0.0
    corr = 1.0 - 7.0 / (16.0 * c) + _DEFICIT_D2 / c**2 + _DEFICIT_D3 / c**3
    return math.exp(lg) * corr


def _expansion(c: float, nterms: int) -> tuple[float, float, np.ndarray]:
    k = np.arange(nterms)
    r = 2.0 * k
    diag = r * (r + 1.0) + c * c * (2.0 * r * (r + 1.0) - 1.0) / ((2.0 * r - 1.0) * (2.0 * r + 3.0))
    rr = 2.0 * np.arange(nterms - 1)
    off = c * c * (rr + 1.0) * (rr + 2.0) / (
        (2.0 * rr + 3.0) * np.sqrt((2.0 * rr + 1.0) * (2.0 * rr + 5.0))
    )
    # Inverse iteration for the eigenvector of the smallest eigenvalue, with
    # the shift mu just below it: A - mu is then positive definite, so its
    # LDL^T factors (unit bidiagonal L with multipliers mult, pivots piv)
    # need no pivoting, and the tail coefficients come out to full relative
    # precision, which the truncation test below relies on.  Each solve
    # shrinks the other eigenvectors' share by shift / gap < 1e-6, so three
    # solves from a flat start reach rounding level.
    mu = float(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))[0]) - 1e-9 * float(diag[-1])
    piv, mult = [float(diag[0]) - mu], []
    for a, e in zip(diag[1:].tolist(), off.tolist()):
        mult.append(e / piv[-1])
        piv.append(a - mu - mult[-1] * e)
    x = [1.0] * nterms
    for _ in range(3):
        for i in range(1, nterms):
            x[i] -= mult[i - 1] * x[i - 1]
        x[-1] /= piv[-1]
        for i in range(nterms - 2, -1, -1):
            x[i] = x[i] / piv[i] - mult[i] * x[i + 1]
        top = max(map(abs, x))
        x = [v / top for v in x]
    d = np.array(x) * np.sqrt(4.0 * k + 1.0)  # undo the symmetrizing similarity scaling
    if d[0] < 0:
        d = -d
    # R00(c, 1) = d_0 / S00(c, 0): the integral equation of the angular
    # function at eta = 0 gives int S00 = 2 d_0 = mu_0 S00(c, 0) with
    # lambda0 = c mu_0^2 / (2 pi).  S00(c, 0) = sum d_2k P_2k(0) is the peak
    # of S00, so neither sum cancels, unlike the spherical-Bessel series at
    # eta = 1, whose sums both shrink like exp(-const*c).
    p2k0 = np.cumprod(np.concatenate(([1.0], (1.0 - 2.0 * k[1:]) / (2.0 * k[1:]))))
    r00 = float(d[0] / np.dot(d, p2k0))
    lam = (2.0 * c / math.pi) * r00 * r00
    return r00, lam, d


@functools.lru_cache(maxsize=1024)
def prolate_r00(c: float) -> ProlateResult:
    """R00(c, 1) and the concentration eigenvalue lambda0 = (2c/pi) R00^2.

    Truncation of the coefficient expansion grows until the eigenvalue
    stabilizes below 1e-12 and the trailing coefficients are negligible.
    Memoized per c: a report set asks for the same c as its neighbours, and
    the frozen result is safe to share.
    """
    if not math.isfinite(c):
        raise ValueError(f"prolate bandwidth parameter c = {c!r} is not finite")
    if c < 0:
        raise ValueError("prolate bandwidth parameter c must be >= 0")
    if 0.0 < c < sys.float_info.min:
        # lambda0 ~ 2c/pi would be subnormal, with too few significant bits
        # for R = -ln lambda0; bound_L rejects such width products too
        raise ValueError(f"prolate bandwidth parameter c = {c!r} is subnormal")
    if c == 0.0:
        return ProlateResult(c=0.0, r00_at_1=1.0, lambda0=0.0, terms_used=0,
                             est_error=0.0, lambda0_deficit=1.0)
    if c >= _DEFICIT_SWITCH:
        # 1 - lambda0 is below 1e-9 here, so the rounding of lambda0 near 1
        # leaves it fewer and fewer correct digits, while the calibrated
        # deficit expansion is at its best: the eigenvalue and R00 both come
        # from the deficit.
        deficit = _deficit_asymptote(c)
        lam = 1.0 - deficit
        r00 = math.sqrt(math.pi * lam / (2.0 * c))
        return ProlateResult(c=float(c), r00_at_1=r00, lambda0=lam,
                             terms_used=0, est_error=3e-5 * deficit,
                             lambda0_deficit=deficit)
    # Truncation is set by coefficient decay alone: past the plunge region the
    # d_{2k} fall off superexponentially, while the shift of the inverse
    # iteration, and with it the solve's noise, grows like nterms**2, so the
    # smallest sufficient truncation is also the most accurate one.
    nterms = max(32, int(c) + 24)
    while True:
        r00, lam, d = _expansion(c, nterms)
        if abs(d[-1]) < 1e-24 * np.max(np.abs(d)):
            break
        nterms += max(16, nterms // 2)
        if nterms > 4000:
            raise NonConvergence(f"prolate expansion failed to stabilize at c={c}")
    r00_chk, lam_chk, _ = _expansion(c, nterms + 16)
    drift = abs(lam - lam_chk) + abs(r00 - r00_chk)
    if drift > 1e-8:
        raise NonConvergence(f"prolate expansion unstable at c={c} (drift {drift:.2e})")
    est = max(drift, 5e-15)
    return ProlateResult(c=float(c), r00_at_1=r00, lambda0=lam,
                         terms_used=nterms, est_error=est,
                         lambda0_deficit=1.0 - lam)


# ---------------------------------------------------------------------------
# truncated-Gaussian bin-profile shapes
#
# The per-bin profile exp(-t v^2) on v in [-1/2, 1/2) (t = a*eta^2 >= 0)
# has variance eta^2 * ghf_var_shape(t) and Shannon entropy
# ln(eta) + ghf_ent_shape(t).  Both reduce to the flat profile at t = 0
# (1/12 and 0).  The quantity 2tM(t) = exp(-t/4)/bin_profile_norm(t) drives
# everything, M(t) of the variance relation included; W(t) = 1 - 2tM(t)
# has a removable singularity at t = 0 handled by a frozen Maclaurin series
# (exact rational coefficients, radius ~22.6, used only for |t| <= 1/2 where
# it is correct to ~1e-17).

_W_SERIES = (
    1.0 / 6.0,
    -1.0 / 90.0,
    1.0 / 3780.0,
    1.0 / 113400.0,
    -1.0 / 1496880.0,
    -23.0 / 20432412000.0,
    23.0 / 17513496000.0,
    -157.0 / 5683925520000.0,
    -97051.0 / 49893498214560000.0,
    1614583.0 / 16464854410804800000.0,
    331691.0 / 206559082608278400000.0,
)

# series for ghf_ent_shape starts at t^2 (flat profile is the entropy max)
_ENT_SERIES = (
    -1.0 / 360.0,
    1.0 / 11340.0,
    1.0 / 302400.0,
    -1.0 / 3742200.0,
    -23.0 / 49037788800.0,
    23.0 / 40864824000.0,
    -157.0 / 12991829760000.0,
)

# bin_profile_norm's series sum_{k>=0} (-t/4)^k / (k! (2k + 1)), 13 terms:
# term k divides by 2k + 1, and the next term is term k times -t/(4(k + 1))
_NORM_SERIES = tuple((2.0 * k - 1.0, 4.0 * k) for k in range(1, 14))

_SHAPE_SERIES_CUT = 0.5
_SQRT_PI = math.sqrt(math.pi)


def bin_profile_norm(t: float) -> float:
    """integral of exp(-t v^2) over v in [-1/2, 1/2], for t >= 0."""
    if abs(t) <= _SHAPE_SERIES_CUT:
        total = 0.0
        term = 1.0
        for odd, step in _NORM_SERIES:
            total += term / odd
            term *= -t / step
        return total
    rt = math.sqrt(t)
    return math.sqrt(math.pi / t) * math.erf(0.5 * rt)


def log_bin_profile_norm(t: float) -> float:
    """ln bin_profile_norm(t) for t > 0: ln(sqrt(pi) erf(sqrt(t)/2) / sqrt(t)),
    which stays accurate down to subnormal t and does not underflow for
    large t."""
    rt = math.sqrt(t)
    return math.log(_SQRT_PI * math.erf(0.5 * rt) / rt)


def two_t_m(t: float) -> float:
    """2 t M(t) = exp(-t/4) / bin_profile_norm(t) for t >= 0; value 1 at
    t = 0, decaying to 0 as t -> +inf."""
    return math.exp(-0.25 * t) / bin_profile_norm(t)


def _w_of_t(t: float) -> float:
    if abs(t) <= _SHAPE_SERIES_CUT:
        w = 0.0
        for c in reversed(_W_SERIES):
            w = t * (c + w)
        return w
    return 1.0 - two_t_m(t)


@functools.lru_cache(maxsize=1024)
def ghf_var_shape(t: float) -> float:
    """Variance of the unit-bin profile: W(t)/(2t), with the t -> 0 limit
    1/12.  Strictly decreasing, range (0, 1/12].  Memoized per t: every
    report set asks again for the flat profile's t = 0."""
    if abs(t) <= _SHAPE_SERIES_CUT:
        # W(t)/(2t) as a polynomial: shift the W series down one power
        v = 0.0
        for c in reversed(_W_SERIES[1:]):
            v = t * (c + v)
        return 0.5 * (_W_SERIES[0] + v)
    return _w_of_t(t) / (2.0 * t)


@functools.lru_cache(maxsize=1024)
def ghf_ent_shape(t: float) -> float:
    """Entropy of the unit-bin profile minus the flat-profile value:
    ln(bin_profile_norm(t)) + W(t)/2, nonpositive, 0 at t = 0."""
    if abs(t) <= _SHAPE_SERIES_CUT:
        v = 0.0
        for c in reversed(_ENT_SERIES):
            v = t * v + c
        return t * t * v + 0.0
    return log_bin_profile_norm(t) + 0.5 * _w_of_t(t)
