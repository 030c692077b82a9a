import math
from dataclasses import replace
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from cg_uncert import bounds
from cg_uncert.bounds import (
    VERDICT_TOL,
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
from cg_uncert.coarse import BinnedDistribution, GhfSpec
from cg_uncert.numerics import DomainError, find_root_bracketed
from cg_uncert.states import Gaussian, HermiteGauss, Mixture, SquareWell

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


def test_r_b1_crossing_matches_g_switch():
    # R - B_1 changes sign exactly once on the sweep range
    dds = np.geomspace(0.1, 100.0, 400)
    diffs = [bound_R(float(d), 1.0) - bound_B(float(d), 1.0, 1.0, 1.0) for d in dds]
    signs = np.sign(diffs)
    flips = np.nonzero(signs[:-1] != signs[1:])[0]
    assert len(flips) == 1
    cross = find_root_bracketed(
        lambda d: bound_R(d, 1.0) - bound_B(d, 1.0, 1.0, 1.0),
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
    with pytest.raises(DomainError):
        func_M_inv(0.0)
    with pytest.raises(DomainError):
        func_M_inv(-1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log10_u=st.floats(-300.0, math.log10(1.7e308)))
def test_m_inverse_roundtrip_over_the_double_range(log10_u):
    # M^-1 is solved on ln M, and ln u as a double is only known to about
    # eps |ln u| / 2, so the round trip can only be held to 3e-14 plus a term
    # that grows with |ln u| (it reaches 2.6e-13 near u = 1e-225)
    u = 10.0 ** log10_u
    tol = 3e-14 + 4.0 * sys.float_info.epsilon * abs(math.log(u))
    assert abs(func_M(func_M_inv(u)) - u) <= tol * u


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
    for u in np.geomspace(1e-300, 0.99 * bounds._K_CLOSED_FORM, 12):
        ref = _k_excess_mp(float(u))
        k = func_K(float(u))
        assert abs((k - 1.0) - ref) <= 2.0 ** -53 + 1e-14 * ref, f"u={u!r}"


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


@settings(max_examples=200, **_SETTINGS)
@given(log_u=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
       ts=st.one_of(st.none(), st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0))),
       log_d=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
def test_k_is_the_minimum_of_f(log_u, ts, log_d):
    # HeisPreopt's margin is ln F(u_x, t_x) + ln F(u_p, t_p) - 2 L_1 for the
    # profile pair, HeisOptimal's the same with K = min_t F in place of F; at
    # t = M^-1(u) (ts None) the two coincide
    (dx, dp), (ux, up) = [10.0 ** v for v in log_d], [10.0 ** v for v in log_u]
    tx, tp = ts if ts is not None else (func_M_inv(ux), func_M_inv(up))
    ghfs = (GhfSpec(dx, tx / dx ** 2), GhfSpec(dp, tp / dp ** 2))
    reports = {r.relation_id: r for r in
               moment_relation_reports(ux * dx * dx, up * dp * dp, dx, dp, ghfs=ghfs)}
    gap = reports["HeisPreopt"].margin - reports["HeisOptimal"].margin
    assert gap >= -1e-13
    if ts is None:
        assert gap <= 1e-12


def test_f_dominates_k_on_random_pairs():
    rng = np.random.default_rng(4242)
    for _ in range(200):
        u = float(10.0 ** rng.uniform(-5.0, 4.0))
        t = float(10.0 ** rng.uniform(-4.0, 3.0))
        assert func_F(u, t) >= func_K(u) * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# relation checking


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
        reg = feasibility_region(dd, 1.0, [0.0, 0.5], [0.0, 0.5])
        assert reg.forbidden[0][0], f"dd={dd}"
        assert 0.0 < reg.fraction <= 1.0


def test_feasibility_region_is_lower_left_set():
    # K is nondecreasing, so the forbidden set cannot re-enter along an axis
    us = [float(v) for v in np.linspace(0.0, 0.6, 25)]
    reg = feasibility_region(2.0, 1.0, us, us)
    arr = reg.forbidden
    assert arr.dtype == bool and arr.shape == (25, 25)
    assert not arr.flags.writeable
    for row in arr:
        assert all(int(a) >= int(b) for a, b in zip(row, row[1:]))
    for col in arr.T:
        assert all(int(a) >= int(b) for a, b in zip(col, col[1:]))


def test_feasibility_fraction_shrinks_with_coarseness():
    us = [0.0] + [float(v) for v in np.geomspace(1e-4, 10.0, 30)]
    fracs = [feasibility_region(dd, 1.0, us, us).fraction for dd in (1.0, 10.0, 100.0)]
    assert fracs[0] > fracs[1] > fracs[2] > 0.0


def test_feasibility_region_validation():
    with pytest.raises(ValueError):
        feasibility_region(1.0, 1.0, [], [0.0])
    with pytest.raises(DomainError):
        feasibility_region(1.0, 1.0, [-0.5], [0.0])
