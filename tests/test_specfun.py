import math
import sys

import mpmath
import numpy as np
import pytest

from cg_uncert import specfun
from cg_uncert.specfun import (
    bin_profile_norm,
    ghf_ent_shape,
    ghf_var_shape,
    log_bin_profile_norm,
    prolate_r00,
    two_t_m,
)
from oracles import prolate_mp, sinc_eigen_oracle

# ---------------------------------------------------------------------------
# concentration eigenvalue / R00

# frozen reference values: the 60-digit oracles.prolate_mp eigenvalues,
# 0.57258178063789512222... and 0.88055992231730930270..., rounded to double
LAM_REF = {
    1.0: 0.5725817806378951,
    2.0: 0.8805599223173093,
}
R00_REF_C1 = 0.948371951196200

# frozen 1 - lambda0 references from a 60-digit eigensolve, each tolerance
# set by the digits the frozen value carries
DEFICIT_REF = [
    (10.0, 4.40880806e-8, 2e-9),
    (12.0, 8.92009265194e-10, 1e-12),
    (13.0, 1.26046553e-10, 1e-8),
    (16.0, 3.49044078e-13, 3e-9),
    (20.0, 1.31688446e-16, 3e-9),
]


def test_prolate_frozen_eigenvalues():
    for c, lam in LAM_REF.items():
        got = prolate_r00(c)
        assert got.lambda0 == pytest.approx(lam, rel=4e-16)
        assert got.lambda0 + got.lambda0_deficit == pytest.approx(1.0, abs=1e-13)
    assert prolate_r00(1.0).r00_at_1 == pytest.approx(R00_REF_C1, rel=1e-12)


def test_prolate_matches_independent_discretization():
    # two fully independent routes: Legendre expansion vs Nystrom sinc kernel
    for c in (0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0):
        lam = prolate_r00(c).lambda0
        ref = sinc_eigen_oracle(c)
        assert abs(lam - ref) <= 1e-6 * ref, f"c={c}: {lam} vs {ref}"


def test_prolate_deficit_references():
    for c, ref, tol in DEFICIT_REF:
        got = prolate_r00(c).lambda0_deficit
        assert got == pytest.approx(ref, rel=tol), f"c={c}"


def test_prolate_eigenvalue_monotone_in_c():
    cs = np.linspace(0.05, 14.0, 60)
    lams = [prolate_r00(float(c)).lambda0 for c in cs]
    assert all(0.0 < v < 1.0 for v in lams)
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_prolate_identity_lambda_from_r00():
    # lambda0 = (2c/pi) R00(c,1)^2 ties the two reported fields together
    for c in (0.3, 1.0, 3.0, 7.0):
        res = prolate_r00(c)
        assert (2.0 * c / math.pi) * res.r00_at_1 ** 2 == pytest.approx(
            res.lambda0, rel=1e-12)


def test_prolate_table_seam():
    # the series for R00 hands over to the one for 1 - lambda0 at c = 2: both
    # give the same deficit there, and lambda0 keeps rising across the seam
    r00 = 1.0 + 4.0 * specfun._chebyshev(specfun._R00_SERIES, 1.0)
    below = 1.0 - (4.0 / math.pi) * r00 * r00
    above = (specfun._4_SQRT_PI * math.sqrt(2.0) * math.exp(-4.0)
             * math.exp(specfun._chebyshev(specfun._G_SERIES, 1.0)))
    assert abs(above - below) <= 4e-15 * below
    assert prolate_r00(2.0).terms_used == len(specfun._R00_SERIES)
    assert prolate_r00(2.0 + 1e-15).terms_used == len(specfun._G_SERIES)
    cs = np.linspace(2.0 - 1e-6, 2.0 + 1e-6, 401)
    lams = [prolate_r00(float(c)).lambda0 for c in cs]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_prolate_edge_cases():
    res = prolate_r00(0.0)
    assert res.lambda0 == 0.0 and res.r00_at_1 == 1.0
    with pytest.raises(ValueError):
        prolate_r00(-1.0)
    # subnormal c is rejected, not answered with a NaN eigenvalue
    with pytest.raises(ValueError, match="subnormal"):
        prolate_r00(1e-310)
    assert prolate_r00(sys.float_info.min).lambda0 > 0.0
    # far beyond the switch the deficit underflows cleanly to zero
    far = prolate_r00(400.0)
    assert far.lambda0 == 1.0 and far.lambda0_deficit == 0.0
    assert far.r00_at_1 == pytest.approx(math.sqrt(math.pi / 800.0), rel=1e-12)


def test_prolate_rejects_non_finite_c_by_name():
    # inf used to give an all-NaN result, and nan failed converting to an int
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"parameter c = -?(inf|nan) is not finite"):
            prolate_r00(c)


# ---------------------------------------------------------------------------
# per-bin profile shape functions

# (t, variance shape, entropy shape) from a 40-digit quadrature oracle
SHAPE_REF = [
    (0.0, 0.0833333333333333333, 0.0),
    (0.49, 0.0806433698419756257, -0.00065638666922284594),
    (0.51, 0.0805349670371909712, -0.00071058788709822741),
    (10.0, 0.0424870762464561597, -0.17973093683957614),
    (50.0, 0.00999985132796329242, -0.883654566694516418),
    (2000.0, 0.00025, -2.72808628684634109),
]


def test_shape_functions_frozen_oracle():
    for t, var_ref, ent_ref in SHAPE_REF:
        assert ghf_var_shape(t) == pytest.approx(var_ref, rel=2e-13), f"t={t}"
        assert ghf_ent_shape(t) == pytest.approx(ent_ref, rel=1e-10, abs=1e-12), f"t={t}"


def test_shape_limits_and_signs():
    assert ghf_var_shape(0.0) == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert ghf_ent_shape(0.0) == 0.0
    # flat profile maximizes entropy; any shaping loses some
    for t in (1e-4, 2.0, 300.0):
        assert ghf_ent_shape(t) < 0.0
    # variance shape decreasing, pinned to (0, 1/4)
    ts = np.linspace(0.0, 50.0, 201)
    vals = [ghf_var_shape(float(t)) for t in ts]
    assert all(0.0 < v < 0.25 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_shape_series_seam_continuity():
    # the Maclaurin branch hands over to the closed form at t = 0.5
    # both shapes have O(1e-2) slopes there, so 2e-9 of genuine drift rides
    # along; anything above 1e-10 would be a real branch mismatch
    lo, hi = 0.5 - 1e-9, 0.5 + 1e-9
    dv = abs(ghf_var_shape(lo) - ghf_var_shape(hi))
    de = abs(ghf_ent_shape(lo) - ghf_ent_shape(hi))
    assert dv < 1e-10 and de < 1e-10


def test_bin_profile_norm():
    assert bin_profile_norm(0.0) == 1.0
    # wide flat limit
    assert bin_profile_norm(100.0) == pytest.approx(math.sqrt(math.pi / 100.0), rel=1e-10)
    ts = np.linspace(0.0, 40.0, 41)
    vals = [bin_profile_norm(float(t)) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_bin_profile_norm_series_keeps_its_bits():
    # the series reads its divisors from a table; the loop that formed them
    # as it went is the reference, bit for bit
    def loop(t):
        total, term = 0.0, 1.0
        for k in range(1, 14):
            total += term / (2 * k - 1)
            term *= -t / (4.0 * k)
        return total

    ts = np.random.default_rng(5).uniform(0.0, 0.5, 2000).tolist() + [0.0, 5e-324, 1e-300, 0.5]
    assert all(bin_profile_norm(t) == loop(t) for t in ts)


def test_log_bin_profile_norm():
    for t in np.geomspace(1e-300, 2000.0, 60):
        ref = math.log(bin_profile_norm(float(t)))
        assert log_bin_profile_norm(float(t)) == pytest.approx(ref, rel=1e-13, abs=1e-15), f"t={t}"
    # subnormal t
    assert log_bin_profile_norm(5e-324) == pytest.approx(0.0, abs=1e-15)


def test_two_t_m_endpoints():
    assert two_t_m(0.0) == 1.0
    # -> 0 for strong center concentration
    assert two_t_m(1e4) < 1e-8
    ts = np.linspace(0.0, 30.0, 61)
    vals = [two_t_m(float(t)) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# accuracy against mpmath

# points of the accuracy ledger, part of the check grid of
# tests/gen_prolate_table.py: where 1 - lambda0 was hardest to resolve before
# the tables (up to c = 12), and on out towards its underflow
MP_C_GRID = (8.0, 9.0, 10.0, 10.5, 11.0, 11.5, 11.8, 11.9, 11.99, 11.999999, 12.0,
             16.0, 30.0, 60.0, 120.0, 300.0)
SMALL_C = (1e-6, 1e-3, 1e-2, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0, 6.0)


def _profile_mp(t: float) -> tuple:
    """(variance shape, entropy shape) at t > 0 to 50 digits, from
    N = sqrt(pi/t) erf(sqrt(t)/2) and W = 1 - exp(-t/4)/N."""
    with mpmath.workdps(50):
        tm = mpmath.mpf(t)
        n = mpmath.sqrt(mpmath.pi / tm) * mpmath.erf(mpmath.sqrt(tm) / 2)
        w = 1 - mpmath.exp(-tm / 4) / n
        return w / (2 * tm), mpmath.log(n) + w / 2


def test_wide_profiles_against_mpmath():
    # GhfSpec admits any finite t = a eta^2 >= 0; widths past 2500 were refused
    for t in (1e3, 1e6, 1e12, 1e300):
        var_ref, ent_ref = _profile_mp(t)
        assert abs(ghf_var_shape(t) / var_ref - 1) <= 1e-13, f"t={t}"
        assert abs(ghf_ent_shape(t) / ent_ref - 1) <= 1e-13, f"t={t}"


def test_prolate_deficit_against_mpmath():
    # 1 - lambda0 is within 1e-14 relative wherever lambda0 >= 1/2, and
    # lambda0 within 2e-15 where it is smaller
    for c in SMALL_C + MP_C_GRID:
        _, ref = prolate_mp(c)
        got = prolate_r00(c)
        if got.lambda0 < 0.5:
            assert float(abs(got.lambda0 / (1 - ref) - 1)) <= 2e-15, f"c={c}"
        else:
            assert float(abs(got.lambda0_deficit / ref - 1)) <= 1e-14, f"c={c}"


def test_prolate_deficit_underflows_gracefully():
    # e^{-2c} is taken as (e^{-c})^2, so 1 - lambda0 rounds once as it passes
    # through the subnormal range, and reaches 0 past c = 374.7
    for c in (356.0, 365.0, 374.0, 374.8):
        _, ref = prolate_mp(c)
        got = prolate_r00(c).lambda0_deficit
        assert float(abs(got - ref)) <= 1e-14 * ref + 5e-324, f"c={c}"
    cs = np.geomspace(2.0, 1e308, 400).tolist() + [sys.float_info.max]
    res = [prolate_r00(c) for c in cs]
    deficits = [r.lambda0_deficit for r in res]
    assert all(b < a or b == 0.0 for a, b in zip(deficits, deficits[1:]))
    assert deficits[-1] == 0.0 and prolate_r00(374.0).lambda0_deficit > 0.0
    assert all(0.0 < r.r00_at_1 < 1.0 for r in res)


def test_prolate_r00_against_mpmath():
    for c in SMALL_C + MP_C_GRID:
        ref, _ = prolate_mp(c)
        got = prolate_r00(c).r00_at_1
        assert float(abs(got - ref) / ref) <= 1e-15, f"c={c}"
