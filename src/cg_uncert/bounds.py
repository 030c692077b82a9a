"""Lower bounds for coarse-grained conjugate-pair uncertainty relations, and
every relation report.

Entropy bounds for a conjugate pair measured with bin widths (delta_x,
delta_p): the family B_alpha valid for fine graining, the eigenvalue-based
bound R that stays tight when the bins are coarse, and their maximum
L_alpha.  On the variance side, the chain M -> M^{-1} -> F -> K turns the
scaled discrete variance u = sigma^2/width^2 into the optimal factor K(u),
giving the product relation ln K(u_x) + ln K(u_p) >= 2 L_1 and, from it,
the forbidden region in the (u_x, u_p) plane, symmetric in its two axes.
K(u) is the minimum over t of F(u, t), the factor a truncated-Gaussian bin
profile exp(-t v^2) gives; the flat bin is its t = 0 member, with
F(u, 0) = 2 pi e (u + 1/12), and HeisPreopt reports it.

Every relation is reported here, the three continuous and the four
coarse-grained ones, as a RelationReport whose margin is lhs - rhs for sum
forms and ln(lhs) - ln(rhs) for product forms, and whose verdict follows.
The three variance relations take one axis's share each from its variance
and width; a binning's share is computed once and kept in its memo.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

import numpy as np

from .coarse import MAX_WIDTH, bin_density, discrete_renyi, discrete_variance
from .numerics import DomainError, NonConvergence
from .specfun import (
    ProlateResult,
    _w_of_t,
    bin_profile_norm,
    ghf_var_shape,
    log_bin_profile_norm,
    prolate_r00,
    two_t_m,
)
from .states import (
    StateModel,
    momentum_density,
    position_density,
    renyi_entropy_cont,
    variance,
)

__all__ = [
    "VERDICT_TOL",
    "RelationReport",
    "BoundSet",
    "FeasibilityRegion",
    "beta_conjugate",
    "conjugate_constant",
    "bound_B",
    "bound_R",
    "bound_L",
    "func_M",
    "func_M_inv",
    "func_F",
    "func_K",
    "func_M_inv_and_K",
    "check_continuous_relations",
    "moment_relation_reports",
    "binned_relation_reports",
    "check_coarse_relations",
    "feasibility_region",
]

_LN_2PIE = math.log(2.0 * math.pi * math.e)
_LN_MAX_FLOAT = math.log(sys.float_info.max)

VERDICT_TOL = 1e-9


@dataclass(frozen=True, init=False)
class RelationReport:
    """One relation's two sides and margin; the verdict follows from the
    margin: "holds" when margin >= -VERDICT_TOL, otherwise "violated", or
    "infeasible_inputs" when the sides came from hypothetical inputs that no
    state can produce (infeasible=True).

    No report holds against its margin.  A failing verdict passed by keyword
    is kept as given, so dataclasses.replace carries a failing verdict and the
    infeasible flag over to the copy, and replace(r, verdict="violated")
    forges a failing copy of a holding report, as a gate's self-test does.
    """

    relation_id: str
    lhs: float
    rhs: float
    margin: float
    _: KW_ONLY
    infeasible: bool = False
    verdict: str = "holds"  # "holds" | "violated" | "infeasible_inputs"

    def __init__(self, relation_id: str, lhs: float, rhs: float, margin: float, *,
                 infeasible: bool = False, verdict: str = "holds") -> None:
        if verdict == "holds" and not margin >= -VERDICT_TOL:
            verdict = "infeasible_inputs" if infeasible else "violated"
        d = self.__dict__  # all six fields in one step, past the frozen __setattr__
        d["relation_id"], d["lhs"], d["rhs"], d["margin"], d["infeasible"], d["verdict"] = (
            relation_id, lhs, rhs, margin, infeasible, verdict)


def beta_conjugate(alpha: float) -> float:
    """beta with 1/alpha + 1/beta = 2; diverges at alpha = 1/2."""
    if not 0.5 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [1/2, 1], got {alpha}")
    if alpha == 0.5:
        return math.inf
    return alpha / (2.0 * alpha - 1.0)


def _half_term(eps: float) -> float:
    # -ln(1 - eps) / (2 eps), continuous value 1/2 at eps = 0
    if abs(eps) < 1e-5:
        return 0.5 * (1.0 + eps * (0.5 + eps * (1.0 / 3.0 + eps * 0.25)))
    return -math.log1p(-eps) / (2.0 * eps)


def conjugate_constant(alpha: float) -> float:
    """K_alpha = -[ln(alpha)/(2(1-alpha)) + ln(beta)/(2(1-beta))] for the
    conjugate pair; equals ln 2 at alpha = 1/2 and 1 at alpha = 1.

    The continuous Renyi relation's right side is ln(pi*hbar) + K_alpha and
    the discrete bound is B_alpha = K_alpha - ln(Delta*delta/(pi*hbar)).
    """
    if not 0.5 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [1/2, 1], got {alpha}")
    if alpha == 0.5:
        return math.log(2.0)
    if alpha == 1.0:
        return 1.0
    beta = beta_conjugate(alpha)
    return _half_term(1.0 - alpha) + _half_term(1.0 - beta)


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
    c = delta_x * delta_p / (4.0 * hbar)
    if not (sys.float_info.min <= c and math.isfinite(c)):
        raise DomainError(
            f"delta_x*delta_p/(4*hbar) must be finite and at least "
            f"{sys.float_info.min!r}, got {c!r} (delta_x={delta_x!r}, "
            f"delta_p={delta_p!r}, hbar={hbar!r})")


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


@functools.lru_cache(maxsize=1024, typed=True)
def bound_L(delta_x: float, delta_p: float, hbar: float = 1.0,
            alpha: float = 1.0) -> BoundSet:
    """Full bound set at one configuration; see BoundSet.  Memoized per
    configuration, argument types included: every report set on a width pair
    asks for the same set, and the frozen result is safe to share."""
    _check_widths(delta_x, delta_p, hbar)
    b_alpha = bound_B(delta_x, delta_p, hbar, alpha)
    b_one = bound_B(delta_x, delta_p, hbar, 1.0)
    res = prolate_r00(delta_x * delta_p / (4.0 * hbar))
    r = _neg_log_lambda0(res)
    # 2 max(b_one, r) = 2 b_one + ln g with ln g = max(0, 2 ln(2/e) - 4 ln R00)
    ln_g = max(0.0, 2.0 * math.log(2.0 / math.e) - 4.0 * math.log(res.r00_at_1))
    # g leaves the double range past a width product of about 1e155
    g = float(np.exp(ln_g)) if ln_g < _LN_MAX_FLOAT else math.inf
    return BoundSet(delta_x=delta_x, delta_p=delta_p, hbar=hbar, alpha=alpha,
                    b_alpha=b_alpha, r=r, l_alpha=max(b_alpha, r),
                    g=g, log_rhs_heis=2.0 * max(b_one, r))


# ---------------------------------------------------------------------------
# the M -> F -> K chain

# the most Newton iterations M^-1 takes; over the double range it needs 7
_M_INV_STEPS = 50
# below this u, ln K is the closed form's exponent (within 2.6e-16 relative), K 1 plus its
# expm1; ln F keeps only K's absolute precision there (9e-15 at 1e-3), above it 4.7e-16
_LN_K_EXPONENT = 0.05


def func_M(t: float) -> float:
    """M(t) = e^{-t/4} / (2 sqrt(pi t) erf(sqrt(t)/2)) for t > 0.

    Strictly decreasing from +inf to 0; ~ 1/(2t) - 1/12 near 0.  Taken from
    the profile kernel 2tM(t), whose exp(-t/4) has an exact argument, so M
    keeps its relative precision at large t too.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"func_M requires t > 0, got {t}")
    return two_t_m(t) / (2.0 * t)


def _log_M(t: float) -> float:
    """ln M(t) = -t/4 - ln(2t) - ln N(t), N the bin-profile norm; usable far
    beyond where M itself underflows or overflows."""
    return -0.25 * t - math.log(2.0 * t) - log_bin_profile_norm(t)


def func_M_inv(u: float) -> float:
    """The t > 0 with M(t) = u, for u > 0."""
    if not (u > 0.0 and math.isfinite(u)):
        raise DomainError(f"func_M_inv requires u > 0, got {u}")
    lu = math.log(u)
    # from the small-t form M = 1/(2t) - V(t) with 0 < V <= 1/12: t0 lies
    # left of the root, and is written so that it cannot overflow to t0 = 0
    # for u near the top of the double range
    t = 0.5 / (u + 1.0 / 12.0)
    # Newton on h(t) = ln M(t) - ln u, with h' = -(M + 1/4 + 1/(2t)): h is
    # decreasing and convex, so from the left every step rises to the root
    # and the first one that does not ends the solve; scaled by t, so that
    # nothing overflows at subnormal t
    for _ in range(_M_INV_STEPS):
        step = t * (_log_M(t) - lu) / (0.5 * two_t_m(t) + 0.25 * t + 0.5)
        if not t + step > t:
            break
        t += step
    else:
        raise NonConvergence(f"M^-1({u}) still rising after {_M_INV_STEPS} Newton steps")
    # one Newton step on M(t) - u with the exact slope
    # M' = -M (M + 1/4 + 1/(2t)) removes the eps |ln u| error of the solve
    # on ln M; scaled by t, so that nothing overflows at subnormal t
    m = func_M(t)
    return t + t * (1.0 - u / m) / (t * m + 0.25 * t + 0.5)


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
    """Optimal variance factor K(u) = F(u, M^{-1}(u)); K(0) = 1, and K is
    nondecreasing."""
    if not (u >= 0.0 and math.isfinite(u)):
        raise DomainError(f"func_K requires u >= 0, got {u}")
    if u == 0.0:
        return 1.0
    return func_M_inv_and_K(u)[1]


def func_M_inv_and_K(u: float) -> tuple:
    """(M^{-1}(u), K(u)) for u > 0 from one root solve.  Below _LN_K_EXPONENT, where _ln_K
    is the closed form's exponent at the root (_root_exponent), K - 1 is its expm1, precise
    relative to itself: K rises with u as ln K does, not scattered by F's 1-2 ulp rounding."""
    t = func_M_inv(u)
    if u < _LN_K_EXPONENT:
        return t, 1.0 + math.expm1(_root_exponent(t, u))
    return t, func_F(u, t)


def _root_exponent(t: float, u: float) -> float:
    """ln F(u, t) at the root t = M^{-1}(u), where V(t) = 1/(2t) - u: 2tu - 2 ln erf(sqrt(t)/2)."""
    return 2.0 * t * u - 2.0 * math.log1p(-math.erfc(0.5 * math.sqrt(t)))


def _ln_K(u: float) -> float:
    """ln K(u) for u >= 0 to full relative precision (see _LN_K_EXPONENT)."""
    if not 0.0 < u < _LN_K_EXPONENT:
        return math.log(func_K(u))
    return _root_exponent(func_M_inv(u), u)


# ---------------------------------------------------------------------------
# relation checking


def check_continuous_relations(s: StateModel, alpha: float = 1.0) -> list:
    """Variance-product and entropic checks on the continuous marginals.

    alpha is the Renyi order on the position side, restricted to (1/2, 1];
    at alpha = 1/2 the conjugate order diverges and the check is unsupported.
    Returns reports for HUR, RenyiCont and ShannonCont.
    """
    if not 0.5 < alpha <= 1.0:
        raise DomainError(
            f"alpha must lie in (1/2, 1]; the conjugate order diverges toward "
            f"alpha = 1/2 (got {alpha})")
    rho_x = position_density(s)
    rho_p = momentum_density(s)
    hbar = s.hbar

    var_product = variance(rho_x) * variance(rho_p)
    hur_rhs = hbar * hbar / 4.0
    hur_margin = (-math.inf if var_product <= 0.0
                  else math.log(var_product) - math.log(hur_rhs))
    hur = RelationReport("HUR", var_product, hur_rhs, hur_margin)

    h1_x = renyi_entropy_cont(rho_x, 1.0)
    h1_p = renyi_entropy_cont(rho_p, 1.0)
    if alpha == 1.0:
        ha_x, hb_p = h1_x, h1_p
    else:
        beta = beta_conjugate(alpha)
        ha_x = renyi_entropy_cont(rho_x, alpha)
        hb_p = renyi_entropy_cont(rho_p, beta)
    sums = (
        ("RenyiCont", ha_x + hb_p, math.log(math.pi * hbar) + conjugate_constant(alpha)),
        ("ShannonCont", h1_x + h1_p, math.log(math.pi * math.e * hbar)),
    )
    return [hur] + [RelationReport(rid, lhs, rhs, lhs - rhs) for rid, lhs, rhs in sums]


# the narrowest width whose square, which the variance relations take, is a
# normal double: the lower counterpart of coarse.MAX_WIDTH
_MIN_WIDTH = math.sqrt(sys.float_info.min)
_AXES = (("var_x", "delta_x"), ("var_p", "delta_p"))


def _axis_factors(var: float, eta: float, axis: tuple) -> tuple:
    """One axis's share of the variance relations, on flat bins eta wide:
    ln(var + eta^2/12) of HeisPreopt and HeisRect, 2 ln eta, twice the flat
    bin's entropy, of HeisPreopt, and ln K(var/eta^2) of HeisOptimal.  axis
    is an _AXES entry, whose fields a DomainError names."""
    var_name, width_name = axis
    if not (var >= 0.0 and math.isfinite(var)):
        raise DomainError(f"{var_name} must be nonnegative and finite, got {var}")
    if not eta >= _MIN_WIDTH:
        raise DomainError(f"{width_name} must be at least {_MIN_WIDTH!r}, so that its square "
                          f"is a normal double, got {eta!r}")
    if not eta <= MAX_WIDTH:
        raise DomainError(f"{width_name} must be at most {MAX_WIDTH!r}, so that its square "
                          f"is finite, got {eta!r}")
    ln_rect = math.log(var + eta ** 2 * ghf_var_shape(0.0))
    u = var / eta ** 2
    if not math.isfinite(u):
        raise DomainError(f"{var_name}/{width_name}^2 overflows: {var_name}={var!r}, "
                          f"{width_name}={eta!r}")
    return ln_rect, 2.0 * math.log(eta), _ln_K(u)


def _binned_factors(b, axis: tuple) -> tuple:
    """_axis_factors of a binning, computed on the first report set that
    reads it and kept in its memo next to its variance."""
    memo = b._stats
    if "heis" not in memo:
        memo["heis"] = _axis_factors(discrete_variance(b), b.width, axis)
    return memo["heis"]


def _product_report(rid: str, lhs_log: float, rhs_log: float, bset: BoundSet,
                    infeasible: bool) -> RelationReport:
    """A product relation's report from the logs of its two sides."""
    if not max(lhs_log, rhs_log) <= _LN_MAX_FLOAT:
        raise DomainError(
            f"{rid} sides exp({lhs_log!r}) and exp({rhs_log!r}) leave the double range "
            f"(delta_x={bset.delta_x!r}, delta_p={bset.delta_p!r}, hbar={bset.hbar!r})")
    return RelationReport(rid, float(np.exp(lhs_log)), float(np.exp(rhs_log)),
                          lhs_log - rhs_log, infeasible=infeasible)


def _heis_reports(fx: tuple, fp: tuple, bset: BoundSet, infeasible: bool) -> list:
    """The three variance-product reports from the two axes' _axis_factors: the
    flat-bin product against the pre-optimization entropy bound and against
    hbar^2/4, and the optimized form in the log domain."""
    (rect_x, ent_x, lk_x), (rect_p, ent_p, lk_p) = fx, fp
    rhs = bset.log_rhs_heis
    return [_product_report("HeisPreopt", rect_x + rect_p, rhs + ent_x + ent_p - 2.0 * _LN_2PIE,
                            bset, infeasible),
            _product_report("HeisRect", rect_x + rect_p, 2.0 * math.log(0.5 * bset.hbar),
                            bset, infeasible),
            RelationReport("HeisOptimal", lk_x + lk_p, rhs, lk_x + lk_p - rhs,
                           infeasible=infeasible)]


def moment_relation_reports(var_x: float, var_p: float, delta_x: float,
                            delta_p: float, hbar: float = 1.0) -> list:
    """HeisPreopt, HeisRect and HeisOptimal reports for hypothetical discrete
    second moments on flat bins.

    The moments are taken at face value, so a failed inequality is verdicted
    infeasible_inputs: no physical state binned on these grids can produce
    such moments.
    """
    bset = bound_L(delta_x, delta_p, hbar, 1.0)
    return _heis_reports(_axis_factors(var_x, delta_x, _AXES[0]),
                         _axis_factors(var_p, delta_p, _AXES[1]), bset, infeasible=True)


def binned_relation_reports(bx, bp, alpha: float = 1.0, hbar: float = 1.0) -> list:
    """All four coarse-grained reports for a binned conjugate pair.

    bx, bp are BinnedDistributions of position and momentum; the variance
    relations read each binning's share from its memo, on flat bins.
    """
    bset = bound_L(bx.width, bp.width, hbar, alpha)
    beta = beta_conjugate(alpha)
    lhs = discrete_renyi(bx, alpha) + discrete_renyi(bp, beta)
    renyi = RelationReport("RenyiDiscrete", lhs, bset.l_alpha, lhs - bset.l_alpha)
    return [renyi] + _heis_reports(_binned_factors(bx, _AXES[0]), _binned_factors(bp, _AXES[1]),
                                   bset, infeasible=False)


def check_coarse_relations(state: StateModel, delta_x: float, delta_p: float,
                           alpha: float = 1.0, offsets: tuple = (0.0, 0.0)) -> list:
    """Bin a state's marginals and report all four coarse-grained relations.

    offsets = (position grid offset, momentum grid offset).
    """
    _check_widths(delta_x, delta_p, state.hbar)
    bx = bin_density(position_density(state), delta_x, offsets[0])
    bp = bin_density(momentum_density(state), delta_p, offsets[1])
    return binned_relation_reports(bx, bp, alpha=alpha, hbar=state.hbar)


# ---------------------------------------------------------------------------
# feasibility region


@dataclass(frozen=True, eq=False)
class FeasibilityRegion:
    """Forbidden-region scan over scaled variances u = sigma^2 / width^2 on
    the square grid u x u.

    forbidden[i, j] is True when (u_x, u_p) = (u[i], u[j]) violates the
    optimized product relation, so no state binned on these grids can
    realize it; the relation is symmetric, so forbidden is too.
    """

    u: tuple
    forbidden: np.ndarray  # read-only bool, shape (len(u), len(u))
    fraction: float
    log_rhs: float


def feasibility_region(delta_x: float, delta_p: float, u: Sequence[float],
                       hbar: float = 1.0) -> FeasibilityRegion:
    """Classify each point (u_x, u_p) of the square grid u x u: it is
    forbidden iff ln K(u_x) + ln K(u_p) < 2 L_1."""
    bset = bound_L(delta_x, delta_p, hbar, 1.0)
    axis = tuple(float(v) for v in u)
    if not axis:
        raise ValueError("need at least one point on the axis")
    lk = np.array([_ln_K(v) for v in axis])
    bad = lk[:, None] + lk[None, :] < bset.log_rhs_heis
    bad.flags.writeable = False
    return FeasibilityRegion(u=axis, forbidden=bad, fraction=float(np.mean(bad)),
                             log_rhs=bset.log_rhs_heis)
