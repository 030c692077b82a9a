"""Deterministic numerical kernels shared by every other module.

Brent's bracketed root finder in plain Python floats, fixed-order
Gauss-Legendre panels, and the one adaptive quadrature routine built on
them: many panels of a vectorized integrand at once, each halved until its
16- and 32-point values agree, summed per group.  All functions here are
pure; callers are responsible for splitting integrals at known
discontinuities (bin edges, compact-support boundaries) so integrands are
piecewise smooth.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_ROOT",
    "RootSpec",
    "NonConvergence",
    "InvalidBracket",
    "Divergent",
    "DomainError",
    "find_root_bracketed",
    "gauss_legendre_panels",
    "adaptive_panels",
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
class RootSpec:
    x_tol: float = 1e-13  # relative bracket width
    max_iter: int = 200

    def __post_init__(self):
        if not self.x_tol > 0:
            raise ValueError("root tolerance x_tol must be strictly positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_ROOT = RootSpec()


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


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


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


# adaptive_panels: the halving limit, and the most panels one fixed-order
# call evaluates (2^15 panels of 32 points keep each node array at 8 MB)
_MAX_HALVINGS = 40
_CHUNK = 1 << 15


def adaptive_panels(f_vec: Callable[[np.ndarray], np.ndarray], lo, hi, group,
                    n_groups: int) -> np.ndarray:
    """Integrals of a vectorized integrand over the panels [lo[i], hi[i]],
    summed per group: panel i joins sum group[i] of n_groups.  A panel whose
    16- and 32-point Gauss-Legendre values differ by more than
    max(1e-15 S, 1e-12 |value|) is halved and its halves checked again; S,
    the sum of |value| over the panels given, scales the floor with the
    integral.  Raises NonConvergence, naming the first unsettled panel,
    after 40 halvings or when more than max(2^16, 4 n) of the n panels given
    are unsettled at once."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    group = np.asarray(group, dtype=np.intp)
    limit = max(1 << 16, 4 * lo.size)
    total = np.zeros(n_groups)
    floor = None
    for halvings in range(_MAX_HALVINGS + 1):
        v16, v32 = np.empty(lo.size), np.empty(lo.size)
        for start in range(0, lo.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            v16[part] = gauss_legendre_panels(f_vec, lo[part], hi[part], 16)
            v32[part] = gauss_legendre_panels(f_vec, lo[part], hi[part], 32)
        if floor is None:
            floor = 1e-15 * float(np.sum(np.abs(v32)))
        # written so that a NaN counts as unsettled
        bad = ~(np.abs(v32 - v16) <= np.maximum(floor, 1e-12 * np.abs(v32)))
        total += np.bincount(group[~bad], v32[~bad], minlength=n_groups)
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return total
        if halvings == _MAX_HALVINGS or n_bad > limit:
            i = int(np.argmax(bad))
            raise NonConvergence(f"quadrature on [{float(lo[i])!r}, {float(hi[i])!r}] did not "
                                 f"settle: {n_bad} panels unsettled after {halvings} halvings")
        lo, hi, group = lo[bad], hi[bad], group[bad]
        mid = 0.5 * (lo + hi)
        lo, hi, group = np.r_[lo, mid], np.r_[mid, hi], np.r_[group, group]
