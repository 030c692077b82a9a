"""Special functions behind the entropic bounds: the radial prolate
spheroidal function R00(c, 1) of the first kind with the sinc-kernel
concentration eigenvalue lambda0, and the shape functions of the
truncated-Gaussian histogram profile (variance and entropy of exp(-t v^2)
restricted to one bin, as functions of t alone).

prolate_r00 sums one of two checked-in Chebyshev series, built by
tests/gen_prolate_table.py from a high-precision Legendre-expansion
eigensolve (2c/ln 10 + 60 digits).  For c in [0, 2], R00(c, 1) =
1 + c^2 S(c^2), and lambda0 = (2c/pi) R00^2.  For c past 2, lambda0 is
near 1 and the complement 1 - lambda0 carries the precision:
    1 - lambda0 = 4 sqrt(pi c) e^{-2c} e^{g(c)},
with g a series in x = 2/c over c in [2, 380] (g -> 0 as c -> inf; past
380 the complement underflows to 0 whatever g is, and x is clamped to its
end).  Against the reference, lambda0 is within 2e-15 relative where it is
below 1/2, and 1 - lambda0 within 1e-14 relative where it is not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
    terms_used: int  # Chebyshev coefficients summed
    # 1 - lambda0 evaluated without cancellation; authoritative for large c
    # where the lambda0 field itself rounds to 1.0.
    lambda0_deficit: float


# Chebyshev coefficients from tests/gen_prolate_table.py; its --check mode
# rebuilds and compares them.  S(c^2) = (R00(c, 1) - 1)/c^2 in
# t = c^2/2 - 1 over c in [0, 2]:
_R00_SERIES = (
    -0.048461800570712525, 0.006718850732415452, -0.00036381735884660017,
    1.134868452887099e-05, 2.1210113234614886e-07, -4.791221625041045e-08,
    1.9107849163827254e-09, 1.1410962280134154e-10, -1.8445613540753143e-11,
    6.970843161698917e-13, 5.77157424420945e-14, -8.710067801697773e-15,
    3.107654287478506e-16, 3.1965480114529783e-17,
)
# g(c) = ln[(1 - lambda0)/(4 sqrt(pi c) e^{-2c})] in t = (760/c - 191)/189,
# that is x = 2/c over c in [2, 380]:
_G_SERIES = (
    -0.18514168935140937, -0.2163303473864575, -0.03403902781387414,
    0.0016430474282128878, 0.004073614979664024, 0.00019715770313373445,
    -0.0006659283712624855, -9.253620584112088e-06, 0.00013131378511360684,
    -1.801008897869429e-05, -2.4487831264543918e-05, 9.95851470096589e-06,
    2.6718025220506886e-06, -3.178551873996781e-06, 5.382201788895646e-07,
    5.51927425429756e-07, -3.8041737425450626e-07, 4.1245287113542985e-08,
    8.039415338882305e-08, -5.565446165902276e-08, 9.044744891295417e-09,
    1.1101395818745572e-08, -9.696683549347563e-09, 2.752535044920107e-09,
    1.2835626174503917e-09, -1.759374258910992e-09, 7.898933851557291e-10,
    3.075496533773003e-11, -2.8834676669103656e-10, 2.0033461971327743e-10,
    -4.983947759740963e-11, -3.197083104328792e-11, 4.216846091346775e-11,
    -2.1668352521076006e-11, 2.1056543742929865e-12, 6.148609086188751e-12,
    -5.80259660402085e-12, 2.5455169910150217e-12, 2.0681953390819753e-14,
    -9.733677814391065e-13, 8.301813763906461e-13, -3.5124001884376654e-13,
    -1.0355371859566216e-14, 1.4546964487091877e-13, -1.2664384906050738e-13,
    5.758755905176622e-14, -2.4875859078159398e-15, -2.07014160553399e-14,
    2.0281217065503294e-14, -1.0667374279663647e-14, 1.8373880976717646e-15,
    2.617871212996746e-15, -3.271852807294175e-15, 2.080356034750386e-15,
    -6.630060724218055e-16, -2.2141685277988837e-16, 4.9769285447070045e-16,
    -4.005005074948102e-16, 1.8843746073035563e-16, -1.82092667437677e-17,
    -6.250469759917872e-17, 7.138224001164738e-17, -4.586465245886759e-17,
    1.605478435290894e-17, 3.4658250982146397e-18, -1.0643358892833001e-17,
    9.573613375527553e-18, -5.323804821725357e-18,
)

_SEAM = 2.0
_4_SQRT_PI = 4.0 * math.sqrt(math.pi)


def _chebyshev(coeffs: tuple, t: float) -> float:
    # Clenshaw's recurrence for sum_k coeffs[k] T_k(t)
    b1 = b2 = 0.0
    for a in reversed(coeffs[1:]):
        b1, b2 = a + 2.0 * t * b1 - b2, b1
    return coeffs[0] + t * b1 - b2


def prolate_r00(c: float) -> ProlateResult:
    """R00(c, 1) and the concentration eigenvalue lambda0 = (2c/pi) R00^2,
    from the series for R00 up to c = 2 and the one for 1 - lambda0 past it.
    """
    if not math.isfinite(c):
        raise ValueError(f"prolate bandwidth parameter c = {c!r} is not finite")
    if c < 0:
        raise ValueError("prolate bandwidth parameter c must be >= 0")
    if 0.0 < c < sys.float_info.min:
        # lambda0 ~ 2c/pi would be subnormal, with too few significant bits
        # for R = -ln lambda0; bound_L rejects such width products too
        raise ValueError(f"prolate bandwidth parameter c = {c!r} is subnormal")
    c = float(c)
    if c <= _SEAM:
        r00 = 1.0 + c * c * _chebyshev(_R00_SERIES, 0.5 * c * c - 1.0)
        lam = (2.0 * c / math.pi) * r00 * r00
        return ProlateResult(c=c, r00_at_1=r00, lambda0=lam,
                             terms_used=len(_R00_SERIES), lambda0_deficit=1.0 - lam)
    g = _chebyshev(_G_SERIES, max(-1.0, (760.0 / c - 191.0) / 189.0))
    # e^{-2c} as the square of e^{-c}, whose argument is exact and which
    # stays normal up to c = 708: the product rounds once, on its last step
    half = math.exp(-c)
    deficit = half * (_4_SQRT_PI * math.sqrt(c) * math.exp(g)) * half
    lam = 1.0 - deficit
    # 0.5 pi lam / c, not pi lam / (2c): 2c overflows past c = 2^1023
    return ProlateResult(c=c, r00_at_1=math.sqrt(0.5 * math.pi * lam / c), lambda0=lam,
                         terms_used=len(_G_SERIES), lambda0_deficit=deficit)


# ---------------------------------------------------------------------------
# truncated-Gaussian bin-profile shapes
#
# The per-bin profile exp(-t v^2) on v = u/eta in [-1/2, 1/2) (t >= 0)
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


def ghf_var_shape(t: float) -> float:
    """Variance of the unit-bin profile: W(t)/(2t), with the t -> 0 limit
    1/12.  Strictly decreasing, range (0, 1/12]."""
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
    return log_bin_profile_norm(t) + 0.5 * _w_of_t(t)
