"""Deterministic numerical kernels shared by every other module.

A contract-enforcing wrapper around QUADPACK adaptive Gauss-Kronrod
quadrature (scipy.integrate, imported on first use), Brent's bracketed root
finder in plain Python floats, and fixed-order Gauss-Legendre panels.  All
functions here are pure; callers are responsible for splitting integrals at
known discontinuities (bin edges, compact-support boundaries) so integrands
are piecewise smooth.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_QUAD",
    "DEFAULT_ROOT",
    "QuadSpec",
    "RootSpec",
    "NonConvergence",
    "InvalidBracket",
    "Divergent",
    "DomainError",
    "integrate",
    "find_root_bracketed",
    "gauss_legendre_panels",
]


class NonConvergence(RuntimeError):
    """Subdivision/iteration budget exhausted before the tolerance was met."""


class InvalidBracket(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class Divergent(RuntimeError):
    """An improper integral failed to settle within the tail budget."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the requested quantity."""


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class RootSpec:
    x_tol: float = 1e-13  # relative bracket width
    max_iter: int = 200

    def __post_init__(self):
        if not self.x_tol > 0:
            raise ValueError("root tolerance x_tol must be strictly positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_QUAD = QuadSpec()
DEFAULT_ROOT = RootSpec()


def integrate(f: Callable[[float], float], a: float, b: float,
              spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Integral of f over the finite interval [a, b].

    f must be defined and finite on [a, b]; accuracy per spec tolerances for
    piecewise-smooth integrands. Raises NonConvergence when the subdivision
    budget runs out.
    """
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    # scipy.integrate costs about 0.15 s to import, and only user densities,
    # reconstructions and the continuous checks reach this point
    from scipy import integrate as _sp_integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", _sp_integrate.IntegrationWarning)
        try:
            val, err = _sp_integrate.quad(
                f, a, b,
                epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                limit=spec.max_subdivisions,
            )
        except _sp_integrate.IntegrationWarning as exc:
            raise NonConvergence(f"quadrature on [{a}, {b}] did not converge: {exc}") from exc
    if not np.isfinite(val):
        raise NonConvergence(f"quadrature on [{a}, {b}] returned non-finite value")
    if err > 10 * max(spec.abs_tol, spec.rel_tol * abs(val)):
        raise NonConvergence(
            f"quadrature on [{a}, {b}] error estimate {err:.3e} exceeds tolerance"
        )
    return val


# the smallest positive xtol, so that rtol alone decides even for roots near
# the bottom of the double range; scipy's brentq rejects an rtol below 4 eps
_ROOT_XTOL = 5e-324
_ROOT_RTOL_MIN = 4.0 * sys.float_info.epsilon


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float,
                        spec: RootSpec = DEFAULT_ROOT) -> float:
    """Root of f inside [lo, hi] where f(lo) and f(hi) have opposite signs.

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4), ported step for step from the brentq C routine of SciPy
    (scipy/optimize/Zeros/brentq.c by Charles Harris; BSD licence, Copyright
    (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers).  It returns
    the same bits as scipy.optimize.brentq(f, lo, hi, xtol=5e-324,
    rtol=max(spec.x_tol, 4 eps), maxiter=spec.max_iter), evaluates each end
    once, and works in Python floats throughout.  A NaN at either end raises
    InvalidBracket, a NaN inside the bracket NonConvergence.
    """
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise InvalidBracket(f"f({lo})={fpre!r} and f({hi})={fcur!r}: NaN at an end")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise InvalidBracket(f"f({lo})={fpre:.6g} and f({hi})={fcur:.6g} have the same sign")
    rtol = max(spec.x_tol, _ROOT_RTOL_MIN)
    xblk = fblk = spre = scur = 0.0
    for _ in range(spec.max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C arithmetic gives an inf or NaN step here, which bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NonConvergence(f"root finder met f({xcur!r}) = NaN on [{lo}, {hi}]")
    raise NonConvergence(f"root finder exhausted {spec.max_iter} iterations on [{lo}, {hi}]")


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _GL_CACHE.get(order)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = cached
    return cached


def gauss_legendre_panels(f_vec: Callable[[np.ndarray], np.ndarray],
                          lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    """Fixed-order Gauss-Legendre integrals of a vectorized integrand over many
    panels at once.  lo/hi are equal-length arrays of panel edges; returns one
    integral per panel.  No error control here: callers cross-check orders.
    """
    x, w = _gl_nodes(order)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # node-major: row i holds node i of every panel, so each row is contiguous
    pts = mid[None, :] + half[None, :] * x[:, None]
    vals = f_vec(pts.ravel()).reshape(pts.shape)
    return half * (w @ vals)
