"""Lower bounds for coarse-grained conjugate-pair uncertainty relations.

Entropy bounds for a conjugate pair measured with bin widths (delta_x,
delta_p): the family B_alpha valid for fine graining, the eigenvalue-based
bound R that stays tight when the bins are coarse, and their maximum
L_alpha.  On the variance side, the chain M -> M^{-1} -> F -> K turns the
scaled discrete variance u = sigma^2/width^2 into the optimal factor K(u),
giving the product relation ln K(u_x) + ln K(u_p) >= 2 L_1 and, from it,
the forbidden region in the (u_x, u_p) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coarse import (
    GhfSpec,
    WidthMismatch,
    bin_density,
    discrete_renyi,
    discrete_variance,
    ghf_entropy,
    ghf_variance,
    rectangle,
)
from .numerics import DEFAULT_QUAD, NonConvergence, QuadSpec, RootSpec, find_root_bracketed
from .relations import (
    DomainError,
    RelationReport,
    beta_conjugate,
    conjugate_constant,
    verdict_from_margin,
)
from .specfun import ProlateResult, _w_of_t, bin_profile_norm, ghf_var_shape, prolate_r00
from .states import StateModel, momentum_density, position_density

__all__ = [
    "BoundSet",
    "FeasibilityRegion",
    "bound_B",
    "bound_R",
    "bound_L",
    "func_M",
    "func_M_inv",
    "func_F",
    "func_K",
    "moment_relation_reports",
    "binned_relation_reports",
    "check_coarse_relations",
    "feasibility_region",
]

_LN_2PIE = math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class BoundSet:
    """Bounds for one (delta_x, delta_p, hbar, alpha) configuration.

    b_alpha, r and l_alpha = max(b_alpha, r) bound the discrete entropy sum
    H_alpha + H_beta; log_rhs_heis = 2 max(b_one, r) = 2 L_1 is the log of
    the right-hand side of the optimized variance-product relation, and
    g = exp(log_rhs_heis) * (delta_x delta_p / (pi e hbar))^2 >= 1 is the
    improvement factor over the fine-grained form.
    """

    delta_x: float
    delta_p: float
    hbar: float
    alpha: float
    b_alpha: float
    r: float
    l_alpha: float
    g: float
    log_rhs_heis: float


def _check_widths(delta_x: float, delta_p: float, hbar: float) -> None:
    for name, v in (("delta_x", delta_x), ("delta_p", delta_p), ("hbar", hbar)):
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"{name} must be positive and finite, got {v}")


def bound_B(delta_x: float, delta_p: float, hbar: float = 1.0,
            alpha: float = 1.0) -> float:
    """Fine-graining entropy bound B_alpha, exact as widths -> 0.

    B_{1/2} = ln(2 pi hbar / (dx dp)), B_1 = ln(pi e hbar / (dx dp)), with a
    smooth interpolation between; alpha outside [1/2, 1] is rejected.
    """
    _check_widths(delta_x, delta_p, hbar)
    return conjugate_constant(alpha) - math.log(delta_x * delta_p / (math.pi * hbar))


def _neg_log_lambda0(res: ProlateResult) -> float:
    """-ln lambda_0 at full relative precision: from lambda_0 itself when it
    is small (fine graining), from the deficit 1 - lambda_0 otherwise."""
    if res.lambda0 < 0.5:
        return -math.log(res.lambda0)
    return -math.log1p(-res.lambda0_deficit)


def bound_R(delta_x: float, delta_p: float, hbar: float = 1.0) -> float:
    """Coarse-graining entropy bound R = -ln lambda_0(c), c = dx dp/(4 hbar).

    Positive for every width pair, and accurate both when lambda_0 is close
    to 1 and in the fine-graining limit lambda_0 -> 0.
    """
    _check_widths(delta_x, delta_p, hbar)
    return _neg_log_lambda0(prolate_r00(delta_x * delta_p / (4.0 * hbar)))


def bound_L(delta_x: float, delta_p: float, hbar: float = 1.0,
            alpha: float = 1.0) -> BoundSet:
    """Full bound set at one configuration; see BoundSet."""
    _check_widths(delta_x, delta_p, hbar)
    b_alpha = bound_B(delta_x, delta_p, hbar, alpha)
    b_one = bound_B(delta_x, delta_p, hbar, 1.0)
    res = prolate_r00(delta_x * delta_p / (4.0 * hbar))
    r = _neg_log_lambda0(res)
    # 2 max(b_one, r) = 2 b_one + ln g with ln g = max(0, 2 ln(2/e) - 4 ln R00)
    ln_g = max(0.0, 2.0 * math.log(2.0 / math.e) - 4.0 * math.log(res.r00_at_1))
    return BoundSet(delta_x=delta_x, delta_p=delta_p, hbar=hbar, alpha=alpha,
                    b_alpha=b_alpha, r=r, l_alpha=max(b_alpha, r),
                    g=float(np.exp(ln_g)), log_rhs_heis=2.0 * max(b_one, r))


# ---------------------------------------------------------------------------
# the M -> F -> K chain

_M_SERIES_CUT = 1e-8
_M_INV_ROOT = RootSpec(x_tol=1e-15, max_iter=200)


def func_M(t: float) -> float:
    """M(t) = e^{-t/4} / (2 sqrt(pi t) erf(sqrt(t)/2)) for t > 0.

    Strictly decreasing from +inf to 0; ~ 1/(2t) - 1/12 near 0.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"func_M requires t > 0, got {t}")
    if t < _M_SERIES_CUT:
        return 1.0 / (2.0 * t) - 1.0 / 12.0 + t / 180.0
    if t <= 700.0:
        return math.exp(-0.25 * t) / (2.0 * math.sqrt(math.pi * t) * math.erf(0.5 * math.sqrt(t)))
    return math.exp(_log_M(t))


def _log_M(t: float) -> float:
    """ln M(t); usable far beyond where M itself underflows."""
    if t < _M_SERIES_CUT:
        return math.log(func_M(t))
    # erf factor is exactly 1.0 in double precision once sqrt(t)/2 > 5.9
    return -0.25 * t - 0.5 * math.log(4.0 * math.pi * t) - math.log(math.erf(0.5 * math.sqrt(t)))


def func_M_inv(u: float) -> float:
    """The t > 0 with M(t) = u, for u > 0."""
    if not (u > 0.0 and math.isfinite(u)):
        raise DomainError(f"func_M_inv requires u > 0, got {u}")
    lu = math.log(u)
    # from the small-t form M ~ 1/(2t) - 1/12
    t0 = 1.0 / (2.0 * u + 1.0 / 6.0)
    lo = hi = t0
    steps = 0
    while _log_M(lo) <= lu:
        lo *= 0.5
        steps += 1
        if steps > 2100:
            raise NonConvergence(f"no lower bracket for M^-1({u})")
    while _log_M(hi) >= lu:
        hi *= 2.0
        steps += 1
        if steps > 2100:
            raise NonConvergence(f"no upper bracket for M^-1({u})")
    return find_root_bracketed(lambda t: _log_M(t) - lu, lo, hi, _M_INV_ROOT)


def func_F(u: float, t: float) -> float:
    """Two-parameter variance factor F(u, t); K(u) is its minimum over t.

    Evaluated as 2 pi (u + V(t)) e^{1 - W(t)} / N(t)^2 with the per-bin
    profile variance shape V, W = 2t V, and the profile normalization N;
    this form has no cancellation or overflow for any t > 0.
    """
    if not (u >= 0.0 and math.isfinite(u)):
        raise DomainError(f"func_F requires u >= 0, got {u}")
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"func_F requires t > 0, got {t}")
    n = bin_profile_norm(t)
    return 2.0 * math.pi * (u + ghf_var_shape(t)) * math.exp(1.0 - _w_of_t(t)) / (n * n)


def func_K(u: float) -> float:
    """Optimal variance factor K(u) = F(u, M^{-1}(u)); K(0) = 1, K >= 1."""
    if not (u >= 0.0 and math.isfinite(u)):
        raise DomainError(f"func_K requires u >= 0, got {u}")
    if u == 0.0:
        return 1.0
    return func_F(u, func_M_inv(u))


# ---------------------------------------------------------------------------
# relation checking


def _heis_reports(var_x: float, var_p: float, bset: BoundSet,
                  ghf_x: GhfSpec, ghf_p: GhfSpec, infeasible: bool) -> list:
    """The three variance-product reports from discrete second moments."""
    for name, v in (("var_x", var_x), ("var_p", var_p)):
        if not (v >= 0.0 and math.isfinite(v)):
            raise DomainError(f"{name} must be nonnegative and finite, got {v}")
    dx, dp, hbar = bset.delta_x, bset.delta_p, bset.hbar
    out = []

    # profile-smoothed product against the pre-optimization entropy bound
    lhs_log = (math.log(var_x + ghf_variance(ghf_x))
               + math.log(var_p + ghf_variance(ghf_p)))
    rhs_log = (bset.log_rhs_heis + 2.0 * ghf_entropy(ghf_x)
               + 2.0 * ghf_entropy(ghf_p) - 2.0 * _LN_2PIE)
    margin = lhs_log - rhs_log
    out.append(RelationReport(
        relation_id="HeisPreopt", lhs=float(np.exp(lhs_log)),
        rhs=float(np.exp(rhs_log)), margin=margin,
        verdict=verdict_from_margin(margin, infeasible=infeasible)))

    # flat-profile product against hbar^2/4
    lhs_log = (math.log(var_x + dx * dx / 12.0)
               + math.log(var_p + dp * dp / 12.0))
    rhs_log = 2.0 * math.log(0.5 * hbar)
    margin = lhs_log - rhs_log
    out.append(RelationReport(
        relation_id="HeisRect", lhs=float(np.exp(lhs_log)),
        rhs=float(np.exp(rhs_log)), margin=margin,
        verdict=verdict_from_margin(margin, infeasible=infeasible)))

    # optimized form, kept in the log domain
    lhs = (math.log(func_K(var_x / dx ** 2))
           + math.log(func_K(var_p / dp ** 2)))
    margin = lhs - bset.log_rhs_heis
    out.append(RelationReport(
        relation_id="HeisOptimal", lhs=lhs, rhs=bset.log_rhs_heis,
        margin=margin,
        verdict=verdict_from_margin(margin, infeasible=infeasible)))
    return out


def moment_relation_reports(var_x: float, var_p: float, delta_x: float,
                            delta_p: float, hbar: float = 1.0,
                            ghfs: Optional[tuple] = None) -> list:
    """Variance-product reports for hypothetical discrete second moments.

    The moments are taken at face value, so a failed inequality is verdicted
    infeasible_inputs: no physical state binned on these grids can produce
    such moments.
    """
    bset = bound_L(delta_x, delta_p, hbar, 1.0)
    ghf_x, ghf_p = ghfs if ghfs is not None else (rectangle(delta_x), rectangle(delta_p))
    if abs(ghf_x.eta - delta_x) > 1e-12 * delta_x:
        raise WidthMismatch(f"position profile width {ghf_x.eta} != {delta_x}")
    if abs(ghf_p.eta - delta_p) > 1e-12 * delta_p:
        raise WidthMismatch(f"momentum profile width {ghf_p.eta} != {delta_p}")
    return _heis_reports(var_x, var_p, bset, ghf_x, ghf_p, infeasible=True)


def binned_relation_reports(bx, bp, alpha: float = 1.0, hbar: float = 1.0,
                            ghfs: Optional[tuple] = None) -> list:
    """All four coarse-grained reports for a binned conjugate pair.

    bx, bp are BinnedDistributions of position and momentum; ghfs optionally
    supplies the per-bin profile pair for the pre-optimization relation
    (flat profiles by default).
    """
    bset = bound_L(bx.width, bp.width, hbar, alpha)
    beta = beta_conjugate(alpha)
    lhs = discrete_renyi(bx, alpha) + discrete_renyi(bp, beta)
    margin = lhs - bset.l_alpha
    renyi = RelationReport(relation_id="RenyiDiscrete", lhs=lhs,
                           rhs=bset.l_alpha, margin=margin,
                           verdict=verdict_from_margin(margin))
    ghf_x, ghf_p = ghfs if ghfs is not None else (rectangle(bx.width), rectangle(bp.width))
    if abs(ghf_x.eta - bx.width) > 1e-12 * bx.width:
        raise WidthMismatch(f"position profile width {ghf_x.eta} != {bx.width}")
    if abs(ghf_p.eta - bp.width) > 1e-12 * bp.width:
        raise WidthMismatch(f"momentum profile width {ghf_p.eta} != {bp.width}")
    return [renyi] + _heis_reports(discrete_variance(bx), discrete_variance(bp),
                                   bset, ghf_x, ghf_p, infeasible=False)


def check_coarse_relations(state: StateModel, delta_x: float, delta_p: float,
                           alpha: float = 1.0, offsets: tuple = (0.0, 0.0),
                           ghfs: Optional[tuple] = None,
                           spec: QuadSpec = DEFAULT_QUAD) -> list:
    """Bin a state's marginals and report all four coarse-grained relations.

    offsets = (position grid offset, momentum grid offset).
    """
    _check_widths(delta_x, delta_p, state.hbar)
    bx = bin_density(position_density(state), delta_x, offsets[0], spec)
    bp = bin_density(momentum_density(state), delta_p, offsets[1], spec)
    return binned_relation_reports(bx, bp, alpha=alpha, hbar=state.hbar, ghfs=ghfs)


# ---------------------------------------------------------------------------
# feasibility region


@dataclass(frozen=True)
class FeasibilityRegion:
    """Forbidden-region scan over scaled variances u = sigma^2 / width^2.

    forbidden[i, j] is True when (u_x[i], u_p[j]) violates the optimized
    product relation, so no state binned on these grids can realize it.
    """

    u_x: tuple
    u_p: tuple
    forbidden: tuple  # row-major tuples of bool, indexed [i_x][i_p]
    fraction: float
    log_rhs: float


def feasibility_region(delta_x: float, delta_p: float, u_x: Sequence[float],
                       u_p: Sequence[float], hbar: float = 1.0) -> FeasibilityRegion:
    """Classify each grid point as allowed or forbidden.

    A point is forbidden iff ln K(u_x) + ln K(u_p) < 2 L_1.
    """
    bset = bound_L(delta_x, delta_p, hbar, 1.0)
    ux = [float(u) for u in u_x]
    up = [float(u) for u in u_p]
    if not ux or not up:
        raise ValueError("need at least one point on each axis")
    lkx = np.array([math.log(func_K(u)) for u in ux])
    lkp = np.array([math.log(func_K(u)) for u in up])
    bad = lkx[:, None] + lkp[None, :] < bset.log_rhs_heis
    return FeasibilityRegion(
        u_x=tuple(ux), u_p=tuple(up),
        forbidden=tuple(tuple(bool(v) for v in row) for row in bad),
        fraction=float(np.mean(bad)), log_rhs=bset.log_rhs_heis)
