"""Deterministic numerical kernels shared by every other module.

Thin, contract-enforcing wrappers around QUADPACK adaptive Gauss-Kronrod
quadrature and Brent's bracketed root finder.  All functions here are pure;
callers are responsible for splitting integrals at known discontinuities
(bin edges, compact-support boundaries) so integrands are piecewise smooth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _sp_integrate
from scipy import optimize as _sp_optimize

__all__ = [
    "QuadSpec",
    "RootSpec",
    "NonConvergence",
    "InvalidBracket",
    "Divergent",
    "integrate",
    "integrate_halfline",
    "find_root_bracketed",
    "gauss_legendre_panels",
]


class NonConvergence(RuntimeError):
    """Subdivision/iteration budget exhausted before the tolerance was met."""


class InvalidBracket(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class Divergent(RuntimeError):
    """An improper integral failed to settle within the tail budget."""


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


def _run_quad(f, a, b, spec, points=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error", _sp_integrate.IntegrationWarning)
        try:
            val, err = _sp_integrate.quad(
                f, a, b,
                epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                limit=spec.max_subdivisions, points=points,
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


def integrate(f: Callable[[float], float], a: float, b: float,
              spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Integral of f over the finite interval [a, b].

    f must be defined and finite on [a, b]; accuracy per spec tolerances for
    piecewise-smooth integrands. Raises NonConvergence when the subdivision
    budget runs out.
    """
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    return _run_quad(f, a, b, spec)


def integrate_halfline(f: Callable[[float], float], a: float,
                       spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Integral of f over [a, +inf) via QUADPACK's mapped semi-infinite rule."""
    if not np.isfinite(a):
        raise ValueError(f"need finite lower endpoint, got {a}")
    return _run_quad(f, a, np.inf, spec)


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float,
                        spec: RootSpec = DEFAULT_ROOT) -> float:
    """Root of f inside [lo, hi] where f(lo) and f(hi) have opposite signs."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise InvalidBracket(f"f({lo})={flo:.6g} and f({hi})={fhi:.6g} have the same sign")
    rtol = max(spec.x_tol, 4 * np.finfo(float).eps)
    try:
        root, res = _sp_optimize.brentq(
            f, lo, hi, xtol=1e-300, rtol=rtol, maxiter=spec.max_iter, full_output=True,
        )
    except RuntimeError as exc:
        raise NonConvergence(f"root finder failed on [{lo}, {hi}]: {exc}") from exc
    if not res.converged:
        raise NonConvergence(f"root finder exhausted {spec.max_iter} iterations on [{lo}, {hi}]")
    return root


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
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = f_vec(pts.ravel()).reshape(pts.shape)
    return half * (vals @ w)
