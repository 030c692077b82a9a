"""Special functions behind the entropic bounds: the error function, the
radial prolate spheroidal function R00(c, 1) of the first kind, an
independent sinc-kernel concentration-eigenvalue oracle, and the shape
functions of the truncated-Gaussian histogram profile (variance and entropy
of exp(-t v^2) restricted to one bin, as functions of t alone).

Two fully independent routes to the top concentration eigenvalue lambda0 are
shipped, not just tested:

* prolate_r00 -- Bouwkamp-type Legendre coefficient expansion. The even-order
  coefficients d_{2k} of the angular function of order (0,0) solve a symmetric
  tridiagonal eigenproblem (smallest eigenvalue); R00(c,1) follows from the
  spherical-Bessel series at xi = 1, and lambda0 = (2c/pi) R00(c,1)^2.
* sinc_eigen_oracle -- Nystrom discretization of the concentration kernel
  sin(c(x-y))/(pi(x-y)) on [-1,1] over a Gauss-Legendre grid, symmetrized by
  sqrt-weight scaling; top eigenvalue by a dense symmetric eigensolver.

For c beyond ~12 the complement 1 - lambda0 falls under the double-precision
resolution of lambda0 itself, so ProlateResult additionally carries
lambda0_deficit computed from the large-c asymptote
    1 - lambda0 ~ 4 sqrt(pi c) e^{-2c} (1 - 7/(16c) + d2/c^2 + d3/c^3),
whose correction coefficients were calibrated once against a 60-digit
eigensolve of the same expansion (relative error <= ~1e-5 at the switch,
~1e-7 past c = 16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import erfi as _sp_erfi
from scipy.special import spherical_jn

from .numerics import NonConvergence

__all__ = [
    "log_erfi",
    "ProlateResult",
    "prolate_r00",
    "sinc_eigen_oracle",
    "two_t_m",
    "ghf_var_shape",
    "ghf_ent_shape",
    "bin_profile_norm",
]


# erfi(x) = e^{x^2} / (sqrt(pi) x) * (1 + 1/(2x^2) + 3/(4x^4) + 15/(8x^6) + ...)
_ERFI_ASYMP = (1.0, 0.5, 0.75, 1.875, 6.5625, 29.53125)


def log_erfi(x: float) -> float:
    """ln erfi(x) for x > 0, safe against the e^{x^2} overflow (x >~ 26)."""
    if x <= 0.0:
        raise ValueError("log_erfi requires x > 0")
    if x < 25.0:
        return math.log(float(_sp_erfi(x)))
    inv2 = 1.0 / (x * x)
    s = 0.0
    for a in reversed(_ERFI_ASYMP):
        s = a + s * inv2
    return x * x - math.log(math.sqrt(math.pi) * x) + math.log(s)


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
    corr = 1.0 - 7.0 / (16.0 * c) + _DEFICIT_D2 / c**2 + _DEFICIT_D3 / c**3
    # log-domain guard: e^{-2c} underflows past c ~ 354
    lg = math.log(4.0 * math.sqrt(math.pi * c)) - 2.0 * c
    if lg < -745.0:
        return 0.0
    return math.exp(lg) * corr


def _expansion(c: float, nterms: int) -> tuple[float, float, np.ndarray]:
    k = np.arange(nterms)
    r = 2.0 * k
    diag = r * (r + 1.0) + c * c * (2.0 * r * (r + 1.0) - 1.0) / ((2.0 * r - 1.0) * (2.0 * r + 3.0))
    rr = 2.0 * np.arange(nterms - 1)
    off = c * c * (rr + 1.0) * (rr + 2.0) / (
        (2.0 * rr + 3.0) * np.sqrt((2.0 * rr + 1.0) * (2.0 * rr + 5.0))
    )
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    v = vecs[:, 0]
    d = v * np.sqrt(4.0 * k + 1.0)  # undo the symmetrizing similarity scaling
    if d[0] < 0:
        d = -d
    num = np.sum((-1.0) ** k * d * spherical_jn((2 * k.astype(int)), c))
    den = np.sum(d)
    r00 = float(num / den)
    lam = (2.0 * c / math.pi) * r00 * r00
    return r00, lam, d


def prolate_r00(c: float) -> ProlateResult:
    """R00(c, 1) and the concentration eigenvalue lambda0 = (2c/pi) R00^2.

    Truncation of the coefficient expansion grows until the eigenvalue
    stabilizes below 1e-12 and the trailing coefficients are negligible.
    """
    if c < 0:
        raise ValueError("prolate bandwidth parameter c must be >= 0")
    if c == 0.0:
        return ProlateResult(c=0.0, r00_at_1=1.0, lambda0=0.0, terms_used=0,
                             est_error=0.0, lambda0_deficit=1.0)
    if c >= _DEFICIT_SWITCH:
        # The series ratio R00 = sum((-1)^k d_2k j_2k(c)) / sum(d_2k) loses
        # all precision here (both sums shrink like exp(-const*c) against
        # O(1) coefficients), while the calibrated deficit expansion is at
        # its best, so the eigenvalue and R00 both come from the deficit.
        deficit = _deficit_asymptote(c)
        lam = 1.0 - deficit
        r00 = math.sqrt(math.pi * lam / (2.0 * c))
        return ProlateResult(c=float(c), r00_at_1=r00, lambda0=lam,
                             terms_used=0, est_error=3e-5 * deficit,
                             lambda0_deficit=deficit)
    # Truncation is set by coefficient decay alone: past the plunge region the
    # d_{2k} fall off superexponentially, while the tridiagonal solve's noise
    # grows like nterms**2, so the smallest sufficient truncation is also the
    # most accurate one.
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


# ---------------------------------------------------------------------------
# truncated-Gaussian bin-profile shapes
#
# The per-bin profile exp(-t v^2) on v in [-1/2, 1/2) (t = a*eta^2, either
# sign) has variance eta^2 * ghf_var_shape(t) and Shannon entropy
# ln(eta) + ghf_ent_shape(t).  Both reduce to the flat profile at t = 0
# (1/12 and 0).  The quantity 2tM(t) = exp(-t/4)/bin_profile_norm(t) drives
# everything; W(t) = 1 - 2tM(t) has a removable singularity at t = 0 handled
# by a frozen Maclaurin series (exact rational coefficients, radius ~22.6,
# used only for |t| <= 1/2 where it is correct to ~1e-17).

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

_SHAPE_SERIES_CUT = 0.5
_NEG_LOG_CUT = -625.0


def bin_profile_norm(t: float) -> float:
    """integral of exp(-t v^2) over v in [-1/2, 1/2], both signs of t."""
    if abs(t) <= _SHAPE_SERIES_CUT:
        total = 0.0
        term = 1.0
        for k in range(1, 14):
            total += term / (2 * k - 1)
            term *= -t / (4.0 * k)
        return total
    if t > 0.0:
        rt = math.sqrt(t)
        return math.sqrt(math.pi / t) * math.erf(0.5 * rt)
    s = -t
    if t <= _NEG_LOG_CUT:
        return math.exp(0.5 * math.log(math.pi / s) + log_erfi(0.5 * math.sqrt(s)))
    return math.sqrt(math.pi / s) * float(_sp_erfi(0.5 * math.sqrt(s)))


def two_t_m(t: float) -> float:
    """2 t M(t) = exp(-t/4) / bin_profile_norm(t); value 1 at t = 0.

    Decays to 0 as t -> +inf and grows like |t|/2 as t -> -inf; both limits
    are reached without overflow (log-domain on the far negative branch).
    """
    if t == 0.0:
        return 1.0
    if t <= _NEG_LOG_CUT:
        s = -t
        ln_norm = 0.5 * math.log(math.pi / s) + log_erfi(0.5 * math.sqrt(s))
        return math.exp(0.25 * s - ln_norm)
    return math.exp(-0.25 * t) / bin_profile_norm(t)


def _w_of_t(t: float) -> float:
    if abs(t) <= _SHAPE_SERIES_CUT:
        w = 0.0
        for c in reversed(_W_SERIES):
            w = t * (c + w)
        return w
    return 1.0 - two_t_m(t)


def ghf_var_shape(t: float) -> float:
    """Variance of the unit-bin profile: W(t)/(2t), with the t -> 0 limit
    1/12.  Strictly decreasing, range (0, 1/4)."""
    if abs(t) <= _SHAPE_SERIES_CUT:
        # W(t)/(2t) as a polynomial: shift the W series down one power
        v = 0.0
        for c in reversed(_W_SERIES[1:]):
            v = t * (c + v)
        return 0.5 * (_W_SERIES[0] + v)
    return _w_of_t(t) / (2.0 * t)


def ghf_ent_shape(t: float) -> float:
    """Entropy of the unit-bin profile minus the flat-profile value:
    ln(bin_profile_norm(t)) + W(t)/2, nonpositive, 0 at t = 0."""
    if abs(t) <= _SHAPE_SERIES_CUT:
        v = 0.0
        for c in reversed(_ENT_SERIES):
            v = t * v + c
        return t * t * v + 0.0
    if t <= _NEG_LOG_CUT:
        s = -t
        ln_norm = 0.5 * math.log(math.pi / s) + log_erfi(0.5 * math.sqrt(s))
    else:
        ln_norm = math.log(bin_profile_norm(t))
    return ln_norm + 0.5 * _w_of_t(t)
