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
"""

import math
import sys
import warnings

import numpy as np
from scipy import integrate, optimize

from cg_uncert.numerics import NonConvergence


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
