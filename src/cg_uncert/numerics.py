"""Deterministic numerical kernels shared by every other module.

Fixed-order Gauss-Legendre panels and the one adaptive quadrature routine
built on them: many panels of a vectorized integrand at once, each halved
until its 16- and 32-point values agree and its centre value meets the
32 nodes' interpolant, summed per group.  All functions
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


# (node, weight) of each node >= 0 of leggauss(order), for the orders the package uses
_GL_HALVES = {
    4: (0.33998104358485626, 0.6521451548625464, 0.8611363115940526, 0.34785484513745357),
    5: (0.0, 0.5688888888888887, 0.5384693101056831, 0.4786286704993663, 0.906179845938664,
        0.23692688505618928),
    6: (0.2386191860831969, 0.46791393457269104, 0.6612093864662645, 0.3607615730481387,
        0.9324695142031519, 0.17132449237917027),
    7: (0.0, 0.4179591836734693, 0.4058451513773972, 0.3818300505051187, 0.7415311855993945,
        0.27970539148927687, 0.9491079123427586, 0.12948496616886973),
    8: (0.18343464249564978, 0.36268378337836166, 0.525532409916329, 0.3137066458778869,
        0.7966664774136267, 0.22238103445337443, 0.9602898564975362, 0.10122853629037706),
    10: (0.14887433898163122, 0.2955242247147528, 0.4333953941292472, 0.2692667193099965,
        0.6794095682990244, 0.219086362515982, 0.8650633666889845, 0.1494513491505804,
        0.9739065285171717, 0.06667134430868814),
    16: (0.09501250983763744, 0.18945061045506864, 0.2816035507792589, 0.18260341504492364,
        0.45801677765722737, 0.16915651939500265, 0.6178762444026438, 0.1495959888165767,
        0.755404408355003, 0.12462897125553407, 0.8656312023878318, 0.0951585116824926,
        0.9445750230732326, 0.062253523938647456, 0.9894009349916499, 0.027152459411754176),
    32: (0.048307665687738324, 0.09654008851472766, 0.1444719615827965, 0.09563872007927471,
        0.23928736225213706, 0.09384439908080451, 0.33186860228212767, 0.09117387869576378,
        0.42135127613063533, 0.08765209300440378, 0.5068999089322294, 0.08331192422694671,
        0.5877157572407623, 0.07819389578707023, 0.6630442669302152, 0.07234579410884834,
        0.7321821187402897, 0.06582222277636168, 0.7944837959679424, 0.058684093478535565,
        0.84936761373257, 0.05099805926237609, 0.8963211557660521, 0.042835898022226836,
        0.9349060759377397, 0.034273862913021765, 0.9647622555875064, 0.025392065309262024,
        0.9856115115452684, 0.016274394730905743, 0.9972638618494816, 0.007018610009470506),
}


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy.polynomial.legendre.leggauss(order), which is symmetric bit for bit: mirrored
    from _GL_HALVES for the orders there, so numpy.polynomial (1.8 MB) loads only for others."""
    if order not in _GL_HALVES:
        return np.polynomial.legendre.leggauss(order)
    x, w = np.array(_GL_HALVES[order]).reshape(-1, 2).T
    return np.r_[-x[::-1][:order // 2], x], np.r_[w[::-1][:order // 2], w]


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


def _centre_weights() -> tuple:
    """(b, d): b @ f(x) is the value at 0 of the degree-31 polynomial through
    f at the 32 Gauss-Legendre nodes x, from their barycentric weights
    (-1)^i sqrt((1 - x_i^2) w_i); d is the innermost node."""
    x, w = _gl_nodes(32)
    b = (-1.0) ** np.arange(32) * np.sqrt((1.0 - x * x) * w) / -x
    return b / b.sum(), float(x[16])


_CENTRE, _INNER = _centre_weights()


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
    once.

    Both rules are symmetric, so a jump between the 32-point rule's two
    innermost nodes, |x - centre| < 0.048 half-widths, moves them alike.  A
    panel is also unsettled when its centre value differs by D from the
    degree-31 interpolant of its 32 nodes there (D is half the jump, for a
    jump there) and 2 |D| times that distance exceeds the tolerance."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    group = np.asarray(group, dtype=np.intp)
    limit = max(1 << 16, 4 * lo.size)
    total = np.zeros(n_groups)
    floor = None
    for halvings in range(_MAX_HALVINGS + 1):
        err, v32 = np.empty(lo.size), np.empty(lo.size)
        for start in range(0, lo.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            v16 = gauss_legendre_panels(f_vec, lo[part], hi[part], 16)
            nodes = []  # the 32-point rule's values, node-major, let go once read
            v32[part] = gauss_legendre_panels(lambda x: nodes.append(f_vec(x)) or nodes[0],
                                              lo[part], hi[part], 32)
            at_mid = f_vec(0.5 * (lo[part] + hi[part]))
            centre = at_mid - _CENTRE @ np.reshape(nodes.pop(), (32, -1))
            err[part] = np.maximum(np.abs(v32[part] - v16),
                                   _INNER * np.abs(centre * (hi[part] - lo[part])))
        if floor is None:
            floor = 1e-15 * max(float(np.sum(np.abs(v32))), scale)
        # written so that a NaN counts as unsettled
        bad = ~(err <= np.maximum(floor, 1e-12 * np.abs(v32)))
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
