import copy
import dataclasses
import math
import pickle
from dataclasses import replace
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from cg_uncert import bounds
from cg_uncert.bounds import (
    VERDICT_TOL,
    BoundSet,
    RelationReport,
    beta_conjugate,
    binned_relation_reports,
    bound_B,
    bound_L,
    bound_R,
    check_coarse_relations,
    check_continuous_relations,
    conjugate_constant,
    feasibility_region,
    func_F,
    func_K,
    func_M,
    func_M_inv,
    moment_relation_reports,
)
from cg_uncert.coarse import (
    MAX_WIDTH,
    BinnedDistribution,
    bin_density,
    discrete_renyi,
    discrete_variance,
    sample_counts,
)
from cg_uncert.numerics import DomainError, NonConvergence
from cg_uncert.specfun import prolate_r00
from cg_uncert.states import (
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    catalog_states,
    momentum_density,
    position_density,
)
from oracles import heis_reports, ln_k_mp, root

TWO_PI_E = 2.0 * math.pi * math.e


# ---------------------------------------------------------------------------
# conjugate order helpers


def test_beta_conjugate():
    assert beta_conjugate(1.0) == pytest.approx(1.0)
    assert beta_conjugate(0.75) == pytest.approx(1.5)
    assert math.isinf(beta_conjugate(0.5))
    for bad in (0.49, 1.01, 0.0, -1.0):
        with pytest.raises(DomainError):
            beta_conjugate(bad)


def test_conjugate_constant_endpoints_and_monotone():
    assert conjugate_constant(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    assert conjugate_constant(1.0) == pytest.approx(1.0, rel=1e-15)
    grid = np.linspace(0.5, 1.0, 20)
    vals = [conjugate_constant(float(a)) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# entropy bounds


def test_bound_b_endpoints():
    assert bound_B(2.0 * math.pi, 1.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert bound_B(math.pi * math.e, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    # hbar scaling: only the combination dx dp / hbar matters
    assert bound_B(1.0, 1.0, 1.0, 0.8) == pytest.approx(
        bound_B(2.0, 1.5, 3.0, 0.8), rel=1e-14)


def test_bound_b_alpha_domain_and_monotonicity():
    for bad in (0.4, 1.1):
        with pytest.raises(DomainError):
            bound_B(1.0, 1.0, 1.0, bad)
    with pytest.raises(DomainError):
        bound_B(-1.0, 1.0, 1.0, 1.0)
    grid = np.linspace(0.5, 1.0, 20)
    vals = [bound_B(1.0, 1.0, 1.0, float(a)) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bound_r_dominates_b_half():
    for dd in np.geomspace(1e-3, 1e3, 40):
        r = bound_R(float(dd), 1.0)
        bh = bound_B(float(dd), 1.0, 1.0, 0.5)
        assert r >= bh - 1e-12, f"dd={dd}"
        assert r > 0.0
    # and approaches it in the fine-graining limit
    assert bound_R(1e-3, 1.0) - bound_B(1e-3, 1.0, 1.0, 0.5) < 1e-8


def test_bound_r_fine_graining_limit():
    # lambda_0 -> dx dp / (2 pi hbar), so R -> ln(2 pi hbar / (dx dp)); the
    # deficit 1 - lambda_0 rounds to 1 here and cannot give R
    for dd in (1e-12, 1e-300):
        want = math.log(2.0 * math.pi / dd)
        assert bound_R(dd, 1.0) == pytest.approx(want, rel=1e-12)
        assert bound_L(dd, 1.0, 1.0, 0.5).r == pytest.approx(want, rel=1e-12)


def test_bound_set_invariants():
    for dd in np.geomspace(1e-2, 1e2, 15):
        for alpha in (0.5, 0.75, 1.0):
            bs = bound_L(float(dd), 1.0, 1.0, alpha)
            bh = bound_B(float(dd), 1.0, 1.0, 0.5)
            b1 = bound_B(float(dd), 1.0, 1.0, 1.0)
            assert bh - 1e-14 <= bs.b_alpha <= b1 + 1e-14
            assert bs.l_alpha == pytest.approx(max(bs.b_alpha, bs.r), rel=1e-15)
            assert bs.l_alpha >= 0.0
            assert bs.g >= 1.0
            assert bs.log_rhs_heis == pytest.approx(2.0 * max(b1, bs.r), rel=1e-15)


def test_bound_set_where_twice_c_overflows():
    # c = 1.25e308, where 2c overflows: R underflows to 0 and g overflows,
    # and neither raises
    bs = bound_L(1e154, 1e154, 0.2)
    assert bs.r == 0.0 and bs.l_alpha == 0.0 and bs.g == math.inf
    assert bs.log_rhs_heis == 0.0


def test_r_b1_crossing_matches_g_switch():
    # R - B_1 changes sign exactly once on the sweep range
    dds = np.geomspace(0.1, 100.0, 400)
    diffs = [bound_R(float(d), 1.0) - bound_B(float(d), 1.0, 1.0, 1.0) for d in dds]
    signs = np.sign(diffs)
    flips = np.nonzero(signs[:-1] != signs[1:])[0]
    assert len(flips) == 1
    cross = root(lambda d: bound_R(d, 1.0) - bound_B(d, 1.0, 1.0, 1.0),
                 float(dds[flips[0]]), float(dds[flips[0] + 1]))
    # at the crossing the improvement factor leaves g = 1: the two transition
    # points coincide (both sit where R00^2 = 2/e)
    below = bound_L(cross * (1.0 - 1e-7), 1.0, 1.0, 1.0)
    above = bound_L(cross * (1.0 + 1e-7), 1.0, 1.0, 1.0)
    assert below.g == pytest.approx(1.0, abs=1e-7)
    assert above.g > 1.0
    from cg_uncert.specfun import prolate_r00
    r00_sq = prolate_r00(cross / 4.0).r00_at_1 ** 2
    assert abs(r00_sq - 2.0 / math.e) < 1e-9


# ---------------------------------------------------------------------------
# M / F / K chain


def test_func_m_domain_and_seams():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            func_M(bad)
    # frozen 40-digit reference values
    assert func_M(1.0) == pytest.approx(0.42208587186791158799, rel=1e-14)
    assert func_M(10.0) == pytest.approx(0.0075129237535438403164, rel=1e-14)
    assert func_M(50.0) == pytest.approx(1.4867203670757580421e-7, rel=1e-13)
    assert func_M(1e-8) == pytest.approx(49999999.916666666722, rel=1e-14)
    assert func_M(699.9) == pytest.approx(1.0894319310387593922e-78, rel=1e-12)
    assert func_M(700.1) == pytest.approx(1.0361516765521348934e-78, rel=1e-12)
    # the 300-point kfun sweep from 1e-6 to 1e6, wherever M is a normal double
    with mpmath.workdps(50):
        for t in np.geomspace(1e-6, 1e6, 300):
            tm = mpmath.mpf(float(t))
            ref = mpmath.exp(-tm / 4) / (
                2 * mpmath.sqrt(mpmath.pi * tm) * mpmath.erf(mpmath.sqrt(tm) / 2))
            if ref >= sys.float_info.min:
                assert abs(func_M(float(t)) - ref) <= 1e-15 * ref, f"t={t}"


def test_func_m_monotone_decreasing():
    ts = np.geomspace(1e-6, 50.0, 300)
    vals = [func_M(float(t)) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_m_inverse_roundtrip():
    for u in np.geomspace(1e-6, 1e6, 100):
        t = func_M_inv(float(u))
        assert abs(func_M(t) - u) <= 1e-12 * max(1.0, u), f"u={u}"
    for bad in (0.0, -0.0, math.nan, math.inf, -1.0):
        for f in (func_M_inv, bounds.func_M_inv_and_K):
            with pytest.raises(DomainError):
                f(bad)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log10_u=st.floats(-300.0, math.log10(1.7e308)))
def test_m_inverse_roundtrip_over_the_double_range(log10_u):
    # M^-1 is solved on ln M, and ln u as a double is only known to about
    # eps |ln u| / 2, so the round trip can only be held to 3e-14 plus a term
    # that grows with |ln u| (it reaches 2.6e-13 near u = 1e-225)
    u = 10.0 ** log10_u
    tol = 3e-14 + 4.0 * sys.float_info.epsilon * abs(math.log(u))
    assert abs(func_M(func_M_inv(u)) - u) <= tol * u


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log10_u=st.floats(-300.0, 300.0))
def test_m_inverse_matches_scipy_brentq(log10_u):
    # brentq on M(t) - u in the linear domain, where M is a normal double,
    # from a bracket of its own
    u = 10.0 ** log10_u
    lo = hi = 0.25 / (u + 1.0 / 12.0)
    while func_M(hi) >= u:
        hi *= 2.0
    ref = root(lambda t: func_M(t) - u, lo, hi)
    assert abs(func_M_inv(u) - ref) <= 4.0 * np.spacing(ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(u=st.floats(-323.3, 308.2).map(lambda x: 10.0 ** x))
@example(u=5e-324)
@example(u=sys.float_info.max)
def test_m_inverse_evaluates_log_m_at_most_8_times(u):
    # the bracket search and Brent solve took up to 90 evaluations of ln M
    calls = []
    log_m = bounds._log_M

    def counted(t):
        calls.append(t)
        return log_m(t)

    bounds._log_M = counted
    try:
        func_M_inv(u)
    finally:
        bounds._log_M = log_m
    assert len(calls) <= 8, f"u={u!r}"
    # each iterate rose, up to the one that ended the solve
    assert all(b > a for a, b in zip(calls, calls[1:]))


def test_m_inverse_step_budget(monkeypatch):
    # an ln M that never comes down to ln u keeps every step rising
    monkeypatch.setattr(bounds, "_log_M", lambda t: 1.0)
    with pytest.raises(NonConvergence, match="Newton steps"):
        func_M_inv(1.0)


def test_func_f_limits_and_domain():
    with pytest.raises(DomainError):
        func_F(-1e-9, 1.0)
    with pytest.raises(DomainError):
        func_F(1.0, 0.0)
    # t -> 0 flat limit and t -> inf edge limit
    assert func_F(2.0, 1e-12) == pytest.approx(TWO_PI_E * (2.0 + 1.0 / 12.0), rel=1e-9)
    assert func_F(0.0, 4000.0) == pytest.approx(1.0, rel=1e-10)
    assert func_F(3.0, 4000.0) == pytest.approx(2.0 * 4000.0 * 3.0 + 1.0, rel=1e-9)


def test_func_k_is_the_minimum_of_f():
    # independent route: minimize the textbook form of F numerically
    for u in (1e-3, 0.1, 1.0, 25.0):
        def f_direct(t: float) -> float:
            m = func_M(t)
            return ((2.0 * t * (u - m) + 1.0) * math.exp(2.0 * t * m)
                    / math.erf(0.5 * math.sqrt(t)) ** 2)

        res = minimize_scalar(f_direct, bracket=(1e-4, func_M_inv(u), 50.0),
                              method="brent", options={"xtol": 1e-12})
        assert func_K(u) == pytest.approx(res.fun, rel=1e-10), f"u={u}"


def test_func_k_properties():
    assert func_K(0.0) == 1.0
    us = np.geomspace(1e-6, 1e6, 120)
    ks = [func_K(float(u)) for u in us]
    for u, k in zip(us, ks):
        assert 1.0 <= k <= TWO_PI_E * (u + 1.0 / 12.0) * (1.0 + 1e-14), f"u={u}"
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    # tends to the unconstrained-variance line for wide scaled variance
    assert ks[-1] / (TWO_PI_E * us[-1]) == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(DomainError):
        func_K(-0.1)


def test_func_k_is_at_least_one_near_zero():
    # K - 1 falls below the rounding of F for u under about 4e-19
    for u in np.geomspace(1e-320, 1e-3, 4000):
        assert func_K(float(u)) >= 1.0, f"u={u!r}"


def test_func_k_is_nondecreasing_over_the_double_range():
    # where F rounds to within a few ulps of 1, K taken from F fell between
    # neighbours: 1,006 times on 5,001 points from 1e-300 to 1e-18, and 530
    # times on 5,001 points from 1e-18 to 1e-12, by up to 6.7e-16 relative
    us = np.unique(np.concatenate([np.geomspace(1e-300, 1e300, 6001),
                                   np.geomspace(1e-20, 1e-12, 3001)]))
    ks = np.array([func_K(float(u)) for u in us])
    falls = np.flatnonzero(np.diff(ks) < 0.0)
    assert falls.size == 0, f"K falls after u = {us[falls[:5]]}"


def _k_excess_mp(u: float):
    # K - 1 = exp(2tu) / erf(sqrt(t)/2)^2 - 1 at t = M^-1(u), 40 digits
    with mpmath.workdps(40):
        mu = mpmath.mpf(u)

        def log_m(t):
            return (-t / 4 - mpmath.log(2 * mpmath.sqrt(mpmath.pi * t))
                    - mpmath.log1p(-mpmath.erfc(mpmath.sqrt(t) / 2)))

        t = mpmath.findroot(lambda t: log_m(t) - mpmath.log(mu), mpmath.mpf(func_M_inv(u)))
        return mpmath.expm1(2 * t * mu - 2 * mpmath.log1p(-mpmath.erfc(mpmath.sqrt(t) / 2)))


def test_func_k_below_the_closed_form_switch_against_mpmath():
    # below the switch K is 1 + (K - 1) with K - 1 precise relative to
    # itself, so K is the correctly rounded value up to 1e-14 of K - 1
    for u in np.geomspace(1e-300, 0.99 * bounds._LN_K_EXPONENT, 12):
        ref = _k_excess_mp(float(u))
        k = func_K(float(u))
        assert abs((k - 1.0) - ref) <= 2.0 ** -53 + 1e-14 * ref, f"u={u!r}"


@pytest.mark.parametrize("centre", [2.0 ** -40, 1e-9, 1e-3, 0.04, 0.05],
                         ids=["2^-40", "1e-9", "1e-3", "0.04", "0.05"])
def test_func_k_does_not_fall_between_close_neighbours(centre):
    # with F(u, M^-1(u)) above u = 2^-40, whose rounding is 1-2 ulps, K fell
    # 271, 111 and 3 times on the three grids about 2^-40; one switch at
    # u = 0.05 serves K and ln K, and K does not fall across it either
    for spacing in (1e-7, 1e-6, 3e-6):
        us = centre * (1.0 + spacing * np.arange(-1000, 1001))
        ks = np.array([func_K(float(u)) for u in us])
        falls = np.flatnonzero(np.diff(ks) < 0.0)
        assert falls.size == 0, f"spacing {spacing}: K falls after u = {us[falls[:3]]}"


def test_ln_k_keeps_its_relative_precision_over_the_double_range():
    # log(func_K(u)) keeps only K's absolute precision where K sits next to
    # 1: 4.5e-13 relative at u = 1e-6, 5.5e-7 at 1e-12, 0 below about 1e-17
    assert bounds._ln_K(0.0) == 0.0
    us = [10.0 ** k for k in range(-300, 7, 3)] + np.geomspace(1e-3, 1.0, 31).tolist()
    for u in us:
        ref = ln_k_mp(u)
        assert abs(bounds._ln_K(u) - ref) <= 1e-14 * ref, f"u={u!r}"


@pytest.fixture(scope="module")
def catalog_grid_reports():
    # 6 catalog states x 7 x 7 widths 10^-1.5 ... 10^1.5, offset 0, alpha = 1
    widths = [float(w) for w in np.geomspace(10.0 ** -1.5, 10.0 ** 1.5, 7)]
    out = []
    for name, state in catalog_states():
        bxs = [bin_density(position_density(state), w) for w in widths]
        bps = [bin_density(momentum_density(state), w) for w in widths]
        out += [(name, bx.width, bp.width,
                 {r.relation_id: r for r in binned_relation_reports(bx, bp, 1.0)})
                for bx in bxs for bp in bps]
    assert len(out) == 294
    return out


def test_heis_optimal_margins_on_the_catalog_grid_are_nonnegative(catalog_grid_reports):
    # with ln K from log(func_K), six margins were negative, down to -2.7e-67,
    # and read "holds" only inside VERDICT_TOL
    for name, dx, dp, r in catalog_grid_reports:
        assert r["HeisOptimal"].margin >= 0.0, (name, dx, dp, r["HeisOptimal"].margin)


def test_heis_optimal_margin_is_at_least_twice_the_shannon_margin(catalog_grid_reports):
    # every lattice distribution has 2 H(b) <= ln K(var_b / eta^2), and both
    # relations share 2 L_1, so margin_HeisOptimal >= 2 margin_RenyiDiscrete
    # at alpha = 1; with ln K from log(func_K) it fell to -6.2e-19
    for name, dx, dp, r in catalog_grid_reports:
        gap = r["HeisOptimal"].margin - 2.0 * r["RenyiDiscrete"].margin
        assert gap >= 0.0, (name, dx, dp, gap)


def test_m_inverse_round_trip_for_large_u():
    # the solve on ln M alone left up to 9.3e-14 here; one Newton step on
    # M(t) - u in the linear domain brings it to the rounding of M
    for u in np.geomspace(1e50, 1e308, 2000):
        u = float(u)
        assert abs(func_M(func_M_inv(u)) / u - 1.0) <= 2e-15, f"u={u!r}"


def _m_inv_mp(u: float):
    # Newton on ln M(t) = ln u at 40 digits from the double root, with
    # d ln M/dt = -(M + 1/4 + 1/(2t))
    with mpmath.workdps(40):
        lu, t = mpmath.log(mpmath.mpf(u)), mpmath.mpf(func_M_inv(u))
        for _ in range(4):
            log_m = (-t / 4 - mpmath.log(2 * mpmath.sqrt(mpmath.pi * t))
                     - mpmath.log(mpmath.erf(mpmath.sqrt(t) / 2)))
            t += (log_m - lu) / (mpmath.exp(log_m) + mpmath.mpf(1) / 4 + 1 / (2 * t))
        return t


def test_m_inverse_against_mpmath_over_the_double_range():
    # the solve on ln M alone, polished only above u = 2^20 and there with
    # the small-t slope -M/t, left up to 7.8e-16 on this grid
    worst = 0.0
    for u in np.geomspace(1e-300, 1e300, 660):
        u = float(u)
        worst = max(worst, float(abs(func_M_inv(u) / _m_inv_mp(u) - 1)))
    assert worst <= 4e-16


_SETTINGS = dict(deadline=None, derandomize=True, database=None)


def _lattice_masses(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "dirichlet":
        p = rng.dirichlet(np.full(size, 10.0 ** rng.uniform(-2.0, 1.0)))
    elif kind == "spiky":  # one bin holds nearly all, the rest over many decades
        p = 10.0 ** rng.uniform(-280.0, -2.0, size)
        p[rng.integers(size)] = 1.0
    else:  # near-deterministic: a second bin holds 1e-290 .. 1e-6
        p = np.zeros(size)
        p[rng.integers(size)] = 1.0
        p[rng.integers(size)] += 10.0 ** rng.uniform(-290.0, -6.0)
    return p / p.sum()


@settings(max_examples=300, **_SETTINGS)
@given(kind=st.sampled_from(["dirichlet", "spiky", "near-deterministic"]),
       size=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
       j_min=st.sampled_from([0, 2 ** 62 - 64, -2 ** 62]), log_width=st.floats(-3.0, 3.0))
@example(kind="dirichlet", size=1, seed=0, j_min=0, log_width=0.0)
def test_shannon_entropy_is_bounded_by_ln_k_of_the_variance(kind, size, seed, j_min,
                                                             log_width):
    # 2 H(b) <= ln K(var_b / eta^2) on every lattice distribution, the theorem
    # that puts HeisOptimal above twice the Shannon relation at alpha = 1; at
    # single bins both sides are 0
    width = 10.0 ** log_width
    b = BinnedDistribution(width=width, offset=0.0, j_min=j_min,
                           masses=_lattice_masses(kind, size, np.random.default_rng(seed)))
    lhs = 2.0 * discrete_renyi(b, 1.0)
    rhs = bounds._ln_K(discrete_variance(b) / width ** 2)
    assert lhs <= rhs + 4.0 * math.ulp(rhs), (lhs, rhs)


@settings(max_examples=200, **_SETTINGS)
@given(log_u=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
       log_d=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
def test_k_is_the_minimum_of_f(log_u, log_d):
    # HeisPreopt's margin is ln F(u_x, 0) + ln F(u_p, 0) - 2 L_1 on flat bins,
    # HeisOptimal's the same with K = min_t F in place of F, so it is never
    # the larger; F >= K at every t is test_f_dominates_k_on_random_pairs
    (dx, dp), (ux, up) = [10.0 ** v for v in log_d], [10.0 ** v for v in log_u]
    reports = {r.relation_id: r for r in
               moment_relation_reports(ux * dx * dx, up * dp * dp, dx, dp)}
    assert reports["HeisPreopt"].margin >= reports["HeisOptimal"].margin - 1e-13


def test_f_dominates_k_on_random_pairs():
    rng = np.random.default_rng(4242)
    for _ in range(200):
        u = float(10.0 ** rng.uniform(-5.0, 4.0))
        t = float(10.0 ** rng.uniform(-4.0, 3.0))
        assert func_F(u, t) >= func_K(u) * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# relation checking


@pytest.mark.parametrize("dx, dp, hbar", [(1.3e154, 1.3e154, 1.0), (1.0, 1.0, 1e200)])
def test_variance_products_that_leave_the_double_range_are_refused(dx, dp, hbar):
    # HeisPreopt and HeisRect printed Infinity after a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="leave the double range"):
            moment_relation_reports(0.0, 0.0, dx, dp, hbar)


def test_moment_reports_infeasible_inputs():
    reports = moment_relation_reports(0.0, 0.0, 1.0, 1.0)
    assert [r.relation_id for r in reports] == ["HeisPreopt", "HeisRect", "HeisOptimal"]
    for r in reports:
        assert r.verdict == "infeasible_inputs"
        assert r.margin < 0.0
    # (iv) with both variances zero reads ln 1 >= 2 L_1
    opt = reports[-1]
    assert opt.lhs == 0.0
    assert opt.rhs == pytest.approx(bound_L(1.0, 1.0, 1.0, 1.0).log_rhs_heis)


# the verdict rule at its edge: a margin of exactly -VERDICT_TOL holds, the
# next double below it fails on every report path
_BELOW_TOL = math.nextafter(-VERDICT_TOL, -math.inf)


def _with_bound_set(monkeypatch, **fields):
    real = bounds.bound_L
    monkeypatch.setattr(bounds, "bound_L", lambda *args: replace(real(*args), **fields))


@pytest.mark.parametrize("margin, verdict", [(-VERDICT_TOL, "holds"), (_BELOW_TOL, "violated")])
def test_verdict_rule_on_continuous_reports(monkeypatch, margin, verdict):
    # at hbar = 1/(pi e) ShannonCont's right side ln(pi e hbar) is exactly 0,
    # so its margin is the sum of the two entropies given here
    monkeypatch.setattr(bounds, "position_density", lambda s: "x")
    monkeypatch.setattr(bounds, "momentum_density", lambda s: "p")
    monkeypatch.setattr(bounds, "variance", lambda d: 1.0)
    monkeypatch.setattr(bounds, "renyi_entropy_cont", lambda d, lam: margin if d == "x" else 0.0)
    shannon = check_continuous_relations(Gaussian(hbar=1.0 / (math.pi * math.e)))[2]
    assert (shannon.relation_id, shannon.rhs) == ("ShannonCont", 0.0)
    assert (shannon.margin, shannon.verdict) == (margin, verdict)


@pytest.mark.parametrize("margin, verdict", [(-VERDICT_TOL, "holds"), (_BELOW_TOL, "violated")])
def test_verdict_rule_on_binned_reports(monkeypatch, margin, verdict):
    # one bin holds all the mass, so both entropies are 0 and RenyiDiscrete's
    # margin is -L_alpha
    _with_bound_set(monkeypatch, l_alpha=-margin)
    b = BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[1.0])
    renyi = binned_relation_reports(b, b)[0]
    assert renyi.relation_id == "RenyiDiscrete"
    assert (renyi.margin, renyi.verdict) == (margin, verdict)


@pytest.mark.parametrize("margin, verdict",
                         [(-VERDICT_TOL, "holds"), (_BELOW_TOL, "infeasible_inputs")])
def test_verdict_rule_on_moment_reports(monkeypatch, margin, verdict):
    # K(0) = 1, so at zero moments HeisOptimal's margin is -2 L_1
    _with_bound_set(monkeypatch, log_rhs_heis=-margin)
    opt = moment_relation_reports(0.0, 0.0, 1.0, 1.0)[2]
    assert opt.relation_id == "HeisOptimal"
    assert (opt.margin, opt.verdict) == (margin, verdict)


def test_report_verdict_comes_from_its_margin_only():
    # no report holds against its margin, and an old positional verdict
    # string cannot be read as the infeasible flag
    with pytest.raises(TypeError):
        RelationReport("HUR", 1.0, 1.0, -1.0, "holds")
    assert RelationReport("HUR", 1.0, 1.0, -1.0).verdict == "violated"
    assert RelationReport("HUR", 1.0, 1.0, -1.0, verdict="holds").verdict == "violated"
    assert RelationReport("HUR", 1.0, 1.0, -1.0, infeasible=True).verdict == "infeasible_inputs"
    holds = RelationReport("HUR", 1.0, 1.0, 0.0)
    assert holds.verdict == "holds"
    assert replace(holds, margin=-1.0).verdict == "violated"


def test_replace_keeps_a_failing_verdict_and_the_infeasible_flag():
    # a gate's self-test forges a failing copy of a holding report by replace
    holds = RelationReport("HUR", 1.0, 1.0, 0.0)
    forged = replace(holds, verdict="violated")
    assert (forged.margin, forged.verdict) == (0.0, "violated")
    infeasible = RelationReport("HeisOptimal", 0.0, 2.0, -2.0, infeasible=True)
    copy = replace(infeasible, lhs=-1.0, margin=-3.0)
    assert (copy.infeasible, copy.verdict) == (True, "infeasible_inputs")


def test_a_report_keeps_its_frozen_dataclass_contract():
    # RelationReport fills its fields in its own __init__; everything a
    # frozen dataclass promises still holds
    r = RelationReport("HeisRect", 2.5, 0.25, math.log(10.0))
    assert [f.name for f in dataclasses.fields(RelationReport)] == [
        "relation_id", "lhs", "rhs", "margin", "infeasible", "verdict"]
    assert [f.kw_only for f in dataclasses.fields(RelationReport)] == [False] * 4 + [True] * 2
    for name in ("relation_id", "lhs", "verdict", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, name)
    assert repr(r) == ("RelationReport(relation_id='HeisRect', lhs=2.5, rhs=0.25, "
                       "margin=2.302585092994046, infeasible=False, verdict='holds')")
    twin = RelationReport("HeisRect", 2.5, 0.25, math.log(10.0))
    assert twin == r and hash(twin) == hash(r) and twin is not r
    assert r != RelationReport("HeisRect", 2.5, 0.25, math.log(10.0), infeasible=True)
    assert r != RelationReport("HeisRect", 2.5, 0.25, math.log(10.0), verdict="violated")
    failing = RelationReport("HeisOptimal", -1.0, 0.5, -1.5, infeasible=True)
    assert failing.verdict == "infeasible_inputs"
    for same in (pickle.loads(pickle.dumps(r)), pickle.loads(pickle.dumps(failing)),
                 copy.copy(r), copy.deepcopy(failing)):
        assert type(same) is RelationReport and same in (r, failing)
        with pytest.raises(dataclasses.FrozenInstanceError):
            same.margin = 0.0
    assert pickle.loads(pickle.dumps(failing)).verdict == "infeasible_inputs"
    with pytest.raises(TypeError):
        RelationReport("HUR", 1.0, 1.0, 0.0, False)
    with pytest.raises(TypeError):
        RelationReport("HUR", 1.0, 1.0)
    # the tolerance edge: a margin of exactly -VERDICT_TOL holds, a NaN fails
    assert RelationReport("HUR", 1.0, 1.0, -VERDICT_TOL).verdict == "holds"
    assert RelationReport("HUR", 1.0, 1.0, math.nan).verdict == "violated"
    assert RelationReport("HUR", 1.0, 1.0, math.nan, infeasible=True).verdict == "infeasible_inputs"


def test_moment_reports_feasible_moments_hold():
    # Gaussian-like moments: comfortably inside the allowed region
    reports = moment_relation_reports(1.0 + 1.0 / 12.0, 0.25 + 1.0 / 12.0, 1.0, 1.0)
    for r in reports:
        assert r.verdict == "holds"


def test_check_coarse_relations_gaussian():
    for dd in (0.1, 1.0, 10.0):
        reports = check_coarse_relations(Gaussian(), dd, dd, alpha=1.0)
        ids = [r.relation_id for r in reports]
        assert ids == ["RenyiDiscrete", "HeisPreopt", "HeisRect", "HeisOptimal"]
        for r in reports:
            assert r.verdict == "holds", f"dd={dd} {r.relation_id}"


def _sigma(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


def _pair(w, a, b):
    return Mixture(((w, a), (1.0 - w, b)))


# the catalog kinds and parameter ranges of the check_stream benchmark deck
_deck_states = st.one_of(
    st.builds(Gaussian, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), _sigma(-0.3, 0.3)),
    st.builds(HermiteGauss, st.sampled_from((2, 7)), _sigma(-0.2, 0.2)),
    st.sampled_from((SquareWell(1, 1.0), SquareWell(3, 1.5))),
    st.builds(_pair, st.floats(0.3, 0.7),
              st.builds(Gaussian, st.floats(-2.0, 0.0), st.just(0.0), _sigma(-0.2, 0.2)),
              st.builds(Gaussian, st.floats(0.0, 2.0), st.floats(-1.0, 1.0), _sigma(-0.2, 0.2))),
    st.builds(_pair, st.floats(0.4, 0.6), st.just(SquareWell(2, 1.0)),
              st.builds(Gaussian, st.floats(0.0, 1.0), st.just(0.0), _sigma(-0.5, 0.0))),
)


@settings(max_examples=150, **_SETTINGS)
@given(state=_deck_states, dx=_sigma(-1.5, 1.5), dp=_sigma(-1.5, 1.5),
       frac=st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                      st.floats(0.0, 1.0, exclude_max=True)),
       alpha=st.sampled_from((0.5, 0.75, 1.0)))
def test_catalog_states_hold_every_coarse_relation(state, dx, dp, frac, alpha):
    reports = check_coarse_relations(state, dx, dp, alpha,
                                     offsets=(frac[0] * dx, frac[1] * dp))
    assert [r.verdict for r in reports] == ["holds"] * 4, reports


def test_check_relations_alpha_half_uses_min_entropy():
    reports = check_coarse_relations(Gaussian(), 1.0, 1.0, alpha=0.5)
    renyi = reports[0]
    assert renyi.verdict == "holds"
    # lhs = H_{1/2}(position bins) + H_inf(momentum bins), both finite
    assert math.isfinite(renyi.lhs) and renyi.lhs > 0.0


def test_preopt_matches_rect_when_g_is_one():
    # below the g-switch the two product relations share the same rhs
    fine = check_coarse_relations(Gaussian(), 0.5, 0.5, alpha=1.0)
    pre = next(r for r in fine if r.relation_id == "HeisPreopt")
    rect = next(r for r in fine if r.relation_id == "HeisRect")
    assert pre.margin == pytest.approx(rect.margin, abs=1e-12)
    # above it the optimized rhs is strictly tighter
    coarse = check_coarse_relations(Gaussian(), 5.0, 5.0, alpha=1.0)
    pre = next(r for r in coarse if r.relation_id == "HeisPreopt")
    rect = next(r for r in coarse if r.relation_id == "HeisRect")
    assert pre.margin < rect.margin


def test_optimal_margin_shrinks_toward_fine_limit():
    margins = []
    for dd in (1e-1, 1e-2, 1e-3):
        reports = check_coarse_relations(Gaussian(), dd, dd, alpha=1.0)
        opt = next(r for r in reports if r.relation_id == "HeisOptimal")
        assert opt.verdict == "holds"
        margins.append(opt.margin)
    assert margins[0] > margins[1] > margins[2] > 0.0
    assert margins[2] / abs(reports[-1].rhs) < 1e-3


def test_square_well_centered_grid_zero_position_variance():
    s = SquareWell(n=1, length=1.0)
    reports = check_coarse_relations(s, 1.0, 50.0, alpha=1.0, offsets=(0.5, 0.0))
    for r in reports:
        assert r.verdict == "holds"
    # single position bin: the optimized relation leans entirely on momentum
    opt = next(r for r in reports if r.relation_id == "HeisOptimal")
    assert opt.margin >= 0.0


# ---------------------------------------------------------------------------
# feasibility region


def test_feasibility_origin_forbidden():
    for dd in (1.0, 10.0, 100.0):
        reg = feasibility_region(dd, 1.0, [0.0, 0.5])
        assert reg.forbidden[0][0], f"dd={dd}"
        assert 0.0 < reg.fraction <= 1.0


def test_feasibility_region_is_lower_left_set():
    # K is nondecreasing, so the forbidden set cannot re-enter along an axis
    us = [float(v) for v in np.linspace(0.0, 0.6, 25)]
    reg = feasibility_region(2.0, 1.0, us)
    arr = reg.forbidden
    assert arr.dtype == bool and arr.shape == (25, 25)
    assert not arr.flags.writeable
    for row in arr:
        assert all(int(a) >= int(b) for a, b in zip(row, row[1:]))
    for col in arr.T:
        assert all(int(a) >= int(b) for a, b in zip(col, col[1:]))


def test_feasibility_fraction_shrinks_with_coarseness():
    us = [0.0] + [float(v) for v in np.geomspace(1e-4, 10.0, 30)]
    fracs = [feasibility_region(dd, 1.0, us).fraction for dd in (1.0, 10.0, 100.0)]
    assert fracs[0] > fracs[1] > fracs[2] > 0.0


def test_feasibility_region_validation():
    with pytest.raises(ValueError):
        feasibility_region(1.0, 1.0, [])
    with pytest.raises(DomainError):
        feasibility_region(1.0, 1.0, [-0.5])


# ---------------------------------------------------------------------------
# the memoized bound set per configuration

_BOUND_FIELDS = [f.name for f in dataclasses.fields(BoundSet)]


def _same_bits(a, b) -> bool:
    """Equal values of one type; floats bit for bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def _same_bound_set(a: BoundSet, b: BoundSet) -> bool:
    return all(_same_bits(getattr(a, name), getattr(b, name)) for name in _BOUND_FIELDS)


def _counting(monkeypatch, owner, attr: str) -> list:
    """Rebind owner.attr to a wrapper that records each call's first argument."""
    calls = []
    real = getattr(owner, attr)

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_fresh_memos_clears_every_numeric_memo(fresh_memos):
    # a new memo has to be named here
    assert {f.__name__ for f in fresh_memos} == {"bound_L", "_tail_point", "_gl_nodes"}
    assert all(f.cache_info().currsize == 0 for f in fresh_memos)


@settings(max_examples=200, **_SETTINGS)
@given(dx=_sigma(-3.0, 3.0), dp=_sigma(-3.0, 3.0), hbar=_sigma(-3.0, 3.0),
       alpha=st.floats(0.5, 1.0))
@example(dx=1.0, dp=1.0, hbar=1.0, alpha=0.5)
def test_memoized_bound_set_keeps_every_field_and_type(dx, dp, hbar, alpha):
    fresh = bound_L.__wrapped__(dx, dp, hbar, alpha)
    for _ in range(2):
        assert _same_bound_set(bound_L(dx, dp, hbar, alpha), fresh)


_INT_AND_FLOAT = [((1, 1, 1, 1), (1.0, 1.0, 1.0, 1.0)),
                  ((1.0, 1.0, 1.0, 1), (1.0, 1.0, 1.0, 1.0)),
                  ((2.0, 3, 1.0, 1), (2.0, 3.0, 1.0, 1.0))]


@pytest.mark.parametrize("first, second", _INT_AND_FLOAT + [(b, a) for a, b in _INT_AND_FLOAT])
def test_bound_set_memo_keeps_int_and_float_arguments_apart(fresh_memos, first, second):
    # 1 == 1.0 with one hash, so the memo hands both callers one set: it is
    # built from floats, whichever caller came first
    for args in (first, second, first):
        got = bound_L(*args)
        assert _same_bound_set(got, bound_L.__wrapped__(*args))
        assert [type(getattr(got, name)) for name in _BOUND_FIELDS[:4]] == [float] * 4


@pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 0.3)])
def test_bound_set_memo_keeps_no_bad_input(fresh_memos, args):
    for _ in range(3):
        with pytest.raises(DomainError):
            bound_L(*args)
    info = bound_L.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


def test_a_grid_of_report_sets_solves_once_per_binning_and_width_pair(fresh_memos, monkeypatch):
    # every report set solved M^-1 for both of its binnings and built its
    # bound set afresh: 108 solves and 54 eigenvalues for this grid, where 12
    # binnings and 27 configurations need 12 and 27
    states = (Gaussian(0.1, -0.2, 1.0), HermiteGauss(2, 0.8))
    widths = (0.3, 0.7, 1.5)
    alphas = (0.5, 0.75, 1.0)
    binned = {(i, axis, w): bin_density(make(s), w, 0.013)
              for i, s in enumerate(states)
              for axis, make in (("x", position_density), ("p", momentum_density))
              for w in widths}
    us = {key: discrete_variance(b) / b.width ** 2 for key, b in binned.items()}
    assert len(set(us.values())) == 12 and min(us.values()) > 0.0
    solves = _counting(monkeypatch, bounds, "func_M_inv")
    eigenvalues = _counting(monkeypatch, bounds, "prolate_r00")
    # K was looked up twice per report set, 108 times; each binning keeps its
    # ln K in its memo, so K is read once per binning
    k_reads = _counting(monkeypatch, bounds, "func_K")
    runs = [(i, wx, wp, a, binned_relation_reports(binned[i, "x", wx], binned[i, "p", wp],
                                                   alpha=a)[-1])
            for i in range(len(states)) for wx in widths for wp in widths for a in alphas]
    assert sorted(solves) == sorted(set(us.values()))
    assert sorted(k_reads) == sorted(us.values())
    assert len(eigenvalues) == len(widths) ** 2 * len(alphas)
    monkeypatch.undo()
    # every report carries the values an uncached solve and bound set give
    k = bounds.func_M_inv_and_K
    for i, wx, wp, a, opt in runs:
        lhs = math.log(k(us[i, "x", wx])[1]) + math.log(k(us[i, "p", wp])[1])
        assert (opt.relation_id, opt.lhs) == ("HeisOptimal", lhs)
        assert opt.rhs == bound_L.__wrapped__(wx, wp, 1.0, a).log_rhs_heis


def test_feasibility_region_solves_each_axis_point_once(fresh_memos, monkeypatch):
    # the one axis serves as both u_x and u_p of the square grid; u = 0
    # takes no solve, K(0) = 1
    axis = [float(v) for v in np.linspace(0.0, 2.0, 33)]
    solves = _counting(monkeypatch, bounds, "func_M_inv")
    reg = feasibility_region(2.0, 1.0, axis)
    assert reg.u == tuple(axis)
    assert sorted(solves) == axis[1:]
    lk = np.array([0.0] + [math.log(bounds.func_M_inv_and_K(u)[1]) for u in axis[1:]])
    assert np.array_equal(reg.forbidden, lk[:, None] + lk[None, :] < reg.log_rhs)


# ---------------------------------------------------------------------------
# per-binning variance factors: each binning's share of HeisPreopt, HeisRect
# and HeisOptimal is computed once and kept in its memo


def _same_reports(got: list, want: list) -> bool:
    fields = [f.name for f in dataclasses.fields(RelationReport)]
    return len(got) == len(want) and all(
        _same_bits(getattr(a, name), getattr(b, name))
        for a, b in zip(got, want) for name in fields)


def _reference_reports(bx, bp, alpha: float, hbar: float = 1.0) -> list:
    bset = bound_L(bx.width, bp.width, hbar, alpha)
    renyi = binned_relation_reports(bx, bp, alpha, hbar)[0]
    return [renyi] + heis_reports(discrete_variance(bx), discrete_variance(bp), bset,
                                  infeasible=False)


def test_an_acceptance_grid_of_report_sets_keeps_every_bit():
    # 6 catalog states x 6 widths per axis x 2 offsets x 3 orders: 1296
    # report sets on 144 binnings, each report read twice, so that both a
    # fresh binning memo and a kept one are compared
    widths = [float(w) for w in np.geomspace(10.0 ** -1.5, 10.0 ** 1.5, 6)]
    count = 0
    for _, state in catalog_states():
        rho_x, rho_p = position_density(state), momentum_density(state)
        for frac in (0.0, 0.5):
            bxs = [bin_density(rho_x, w, frac * w) for w in widths]
            bps = [bin_density(rho_p, w, frac * w) for w in widths]
            for bx in bxs:
                for bp in bps:
                    for alpha in (0.5, 0.8, 1.0):
                        for _ in range(2):
                            assert _same_reports(binned_relation_reports(bx, bp, alpha),
                                                 _reference_reports(bx, bp, alpha))
                        count += 1
    assert count == 1296


@pytest.mark.parametrize("seed", [1, 7])
def test_report_sets_on_empirical_binnings_keep_every_bit(seed):
    for state, dx, dp in ((Gaussian(0.3, -0.1, 0.8), 0.2, 0.5), (SquareWell(3, 1.5), 0.1, 0.7),
                          (HermiteGauss(2, 0.8), 0.6, 0.3)):
        bx, bp = (BinnedDistribution(width=b.width, offset=b.offset, j_min=b.j_min,
                                     masses=sample_counts(b, 1000, s) / 1000)
                  for b, s in ((bin_density(position_density(state), dx), seed),
                               (bin_density(momentum_density(state), dp), seed + 1)))
        for alpha in (0.5, 0.8, 1.0):
            assert _same_reports(binned_relation_reports(bx, bp, alpha),
                                 _reference_reports(bx, bp, alpha))


def test_moment_reports_keep_every_bit():
    for var_x, var_p, dx, dp, hbar in ((0.0, 0.0, 1.0, 1.0, 1.0), (0.3, 1.7, 0.2, 2.5, 1.0),
                                      (1e-9, 4e3, 7.0, 0.01, 0.5), (2.0, 0.0, 1e3, 1e-3, 3.0)):
        bset = bound_L(dx, dp, hbar, 1.0)
        assert _same_reports(moment_relation_reports(var_x, var_p, dx, dp, hbar),
                             heis_reports(var_x, var_p, bset, infeasible=True))


def test_the_direct_assembly_matches_the_oracle():
    # _heis_reports builds its three reports without a tuple of products: the
    # same bits, float types and verdicts as the oracle, holding and failing,
    # with either infeasible flag
    verdicts = set()
    for var_x, var_p, dx, dp, hbar in ((0.0, 0.0, 1.0, 1.0, 1.0), (0.3, 1.7, 0.2, 2.5, 1.0),
                                      (1e-9, 4e3, 7.0, 0.01, 0.5), (2.0, 0.0, 1e3, 1e-3, 3.0),
                                      (0.01, 0.02, 0.5, 0.5, 1.0)):
        bset = bound_L(dx, dp, hbar, 1.0)
        fx = bounds._axis_factors(var_x, dx, bounds._AXES[0])
        fp = bounds._axis_factors(var_p, dp, bounds._AXES[1])
        for infeasible in (False, True):
            got = bounds._heis_reports(fx, fp, bset, infeasible)
            want = heis_reports(var_x, var_p, bset, infeasible=infeasible)
            assert [r.relation_id for r in got] == ["HeisPreopt", "HeisRect", "HeisOptimal"]
            assert _same_reports(got, want)
            assert all(type(getattr(r, k)) is float for r in got for k in ("lhs", "rhs", "margin"))
            verdicts.update(r.verdict for r in got)
    assert verdicts == {"holds", "violated", "infeasible_inputs"}


@pytest.mark.parametrize("args, name, var, width", [
    ((1e300, 1.0, 1e-10, 1.0), "var_x/delta_x^2", "var_x=1e+300", "delta_x=1e-10"),
    ((1.0, 1e300, 1.0, 1e-10), "var_p/delta_p^2", "var_p=1e+300", "delta_p=1e-10"),
    ((1.7e308, 0.0, 0.5, 1.0), "var_x/delta_x^2", "var_x=1.7e+308", "delta_x=0.5"),
])
def test_a_variance_ratio_that_overflows_is_refused_by_name(args, name, var, width):
    # var/eta^2 = inf reached func_K, whose "func_K requires u >= 0, got inf"
    # named no field
    with pytest.raises(DomainError) as e:
        moment_relation_reports(*args)
    assert str(e.value) == f"{name} overflows: {var}, {width}"


def test_a_binning_whose_variance_overflows_is_refused_on_every_read():
    # the variance (3 widths)^2 / 4 at a width of 1.3e154 is inf: nothing is
    # kept in the memo, so the second report set raises as the first did
    wide = BinnedDistribution(width=1.3e154, offset=0.0, j_min=0, masses=[0.5, 0.0, 0.0, 0.5])
    narrow = BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[1.0])
    for bx, bp, name in ((wide, narrow, "var_x"), (narrow, wide, "var_p")):
        for _ in range(2):
            with pytest.raises(DomainError, match=f"{name} must be nonnegative and finite, got inf"):
                binned_relation_reports(bx, bp)
    assert "heis" not in wide._stats


@pytest.mark.parametrize("var_x, var_p, dx, dp, name", [
    (1.0, 1.0, 1e-170, 1e150, "delta_x"),  # dx^2 was 0: ZeroDivisionError
    (0.0, 1.0, 1e-170, 1e150, "delta_x"),  # ln(0 + 0): ValueError
    (1.0, 1.0, 1e150, 1e-170, "delta_p"),
    (0.0, 0.0, 1e150, math.nextafter(math.sqrt(sys.float_info.min), 0.0), "delta_p"),
])
def test_widths_whose_square_underflows_are_refused_by_name(var_x, var_p, dx, dp, name):
    with pytest.raises(DomainError, match=f"{name} must be at least .* got {min(dx, dp)!r}"):
        moment_relation_reports(var_x, var_p, dx, dp)
    # the entropy bounds take no square, and keep such widths
    assert bound_L(dx, dp).log_rhs_heis > 0.0


@pytest.mark.parametrize("bound, width, c", [(bound_L, 1e-160, "2.5e-321"),
                                             (bound_B, 1e200, "inf")], ids=["subnormal", "inf"])
def test_bounds_refuse_a_width_product_outside_the_normal_range(bound, width, c):
    # c = delta_x delta_p / (4 hbar) subnormal, or past the double range
    with pytest.raises(DomainError) as e:
        bound(width, width)
    assert str(e.value) == (f"delta_x*delta_p/(4*hbar) must be finite and at least "
                            f"{sys.float_info.min!r}, got {c} (delta_x={width!r}, "
                            f"delta_p={width!r}, hbar=1.0)")


def test_widths_whose_square_overflows_are_refused_by_name():
    # the two-field profile refused such a width as "eta", a name no caller
    # passes
    wide = math.nextafter(MAX_WIDTH, math.inf)
    for dx, dp, name in ((1e200, 1e-200, "delta_x"), (wide, 1.0, "delta_x"),
                         (1.0, 1e200, "delta_p"), (1e-100, wide, "delta_p")):
        with pytest.raises(DomainError) as e:
            moment_relation_reports(1.0, 1.0, dx, dp)
        assert str(e.value) == (f"{name} must be at most {MAX_WIDTH!r}, so that its square is "
                                f"finite, got {max(dx, dp)!r}")
    # the widest width with a finite square is kept
    assert len(moment_relation_reports(1.0, 1.0, 1.0, MAX_WIDTH)) == 3


def test_refusals_print_numpy_scalars_as_floats():
    # under numpy 2 the repr of a caller's numpy scalar read "np.float64(...)"
    f = np.float64
    for call, text in (
            (lambda: moment_relation_reports(0.1, 0.1, f(1e-200), 1.0), "got 1e-200"),
            (lambda: bound_L(f(1e-160), f(1e-160)), "got 2.5e-321 (delta_x=1e-160, delta_p"),
            (lambda: bin_density(position_density(Gaussian()), 1.0, f(math.inf)),
             "offset must be finite, got inf"),
            (lambda: bin_density(position_density(Gaussian()), 1.0, f(1e300)),
             "offset 1e+300 is 2^63"),
            (lambda: moment_relation_reports(1e300, 1e300, f(1.0), f(1.0)),
             "(delta_x=1.0, delta_p=1.0, hbar=1.0)"),
            (lambda: prolate_r00(f(math.inf)), "c = inf is not finite"),
            (lambda: prolate_r00(f(1e-320)), "c = 1e-320 is subnormal")):
        with pytest.raises((DomainError, ValueError)) as e:
            call()
        assert text in str(e.value) and "np." not in str(e.value), str(e.value)


def test_a_bound_set_of_numpy_scalar_widths_prints_floats(fresh_memos):
    # the set echoed a caller's numpy widths: "BoundSet(delta_x=np.float64(1.0), ..."
    got = bound_L(np.float64(1.0), np.float64(2.0))
    assert "np.float64" not in repr(got) and got == bound_L(1.0, 2.0)


@pytest.mark.parametrize("alpha", [0.3, math.nan, 2])
def test_conjugate_constant_refuses_alpha_through_beta_conjugate(alpha):
    for f in (conjugate_constant, beta_conjugate):
        with pytest.raises(DomainError, match=f"^alpha must lie in \\[1/2, 1\\], got {alpha}$"):
            f(alpha)


def test_binnings_whose_width_squares_underflow_are_refused_by_name():
    fine = BinnedDistribution(width=1e-170, offset=0.0, j_min=0, masses=[1.0])
    coarse = BinnedDistribution(width=1e150, offset=0.0, j_min=0, masses=[1.0])
    for bx, bp, name in ((fine, coarse, "delta_x"), (coarse, fine, "delta_p")):
        with pytest.raises(DomainError, match=f"{name} must be at least .* got 1e-170"):
            binned_relation_reports(bx, bp)


def test_the_narrowest_width_with_a_normal_square_is_kept():
    w = math.sqrt(sys.float_info.min)
    assert w * w == sys.float_info.min
    opt = moment_relation_reports(0.0, 0.0, w, 1e150)[2]
    assert opt.lhs == 0.0 and opt.verdict == "infeasible_inputs"


def test_every_report_number_is_a_float():
    # numpy scalar widths or moments came through ln K as np.float64 in
    # HeisOptimal's lhs and margin below u = 0.05
    bx = bin_density(position_density(Gaussian()), np.float64(8.0))
    bp = bin_density(momentum_density(Gaussian()), np.float64(0.5))
    reports = (binned_relation_reports(bx, bp)
               + moment_relation_reports(np.float64(0.01), 0.01, 1.0, 1.0)
               + moment_relation_reports(np.float32(0.02), np.float64(3.0), np.float64(1.0),
                                         np.float64(0.5), np.float64(1.0)))
    assert len(reports) == 10
    for r in reports:
        assert all(type(getattr(r, k)) is float for k in ("lhs", "rhs", "margin")), r
        assert "np.float" not in repr(r) and "numpy" not in repr(r)
