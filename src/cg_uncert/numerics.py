"""Deterministic numerical kernels shared by every other module.

Fixed-order Gauss-Legendre panels and the one adaptive quadrature routine
built on them: many panels of a vectorized integrand at once, each halved
until its 16- and 32-point values agree, summed per group.  All functions
here are pure; callers are responsible for splitting integrals at known
discontinuities (bin edges, compact-support boundaries) so integrands are
piecewise smooth.  The one equation the package solves, M(t) = u, takes
Newton steps in bounds.func_M_inv.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

__all__ = [
    "NonConvergence",
    "Divergent",
    "DomainError",
    "gauss_legendre_panels",
    "adaptive_panels",
]


class NonConvergence(RuntimeError):
    """Subdivision/iteration budget exhausted before the tolerance was met."""


class Divergent(RuntimeError):
    """An improper integral failed to settle within the tail budget."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the requested quantity."""


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
                    n_groups: int, scale: float = 0.0) -> np.ndarray:
    """Integrals of a vectorized integrand over the panels [lo[i], hi[i]],
    summed per group: panel i joins sum group[i] of n_groups.  A panel whose
    16- and 32-point Gauss-Legendre values differ by more than
    max(1e-15 S, 1e-12 |value|) is halved and its halves checked again; S,
    the larger of scale and the sum of |value| over the panels given, scales
    the floor with the integral (a caller integrating one piece of a larger
    integral passes that integral's magnitude as scale).  Raises
    NonConvergence, naming the first unsettled panel, after 40 halvings or
    when more than max(2^16, 4 n) of the n panels given are unsettled at
    once."""
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
            floor = 1e-15 * max(float(np.sum(np.abs(v32))), scale)
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
