import math
import sys

import mpmath
import numpy as np
import pytest

from cg_uncert import specfun
from cg_uncert.numerics import NonConvergence
from cg_uncert.specfun import (
    bin_profile_norm,
    ghf_ent_shape,
    ghf_var_shape,
    log_bin_profile_norm,
    prolate_r00,
    two_t_m,
)
from oracles import sinc_eigen_oracle

# ---------------------------------------------------------------------------
# concentration eigenvalue / R00

# frozen reference values (40+ digit eigensolve of the sinc kernel)
LAM_REF = {
    1.0: 0.5725817806378951,
    2.0: 0.8805599223173105,
}
R00_REF_C1 = 0.948371951196200

# frozen 1 - lambda0 references from the 60-digit eigensolve; tolerance per
# point reflects which branch computes it (expansion below c = 12, calibrated
# asymptote at and above)
DEFICIT_REF = [
    # expansion side: deficit = 1 - lambda0 carries the eigensolve's absolute
    # noise (~1e-12), so its relative tolerance widens as the deficit shrinks
    (10.0, 4.40880806e-8, 5e-4),
    # asymptote side: deterministic formula, calibrated residual
    (12.0, 8.92009265194e-10, 2e-5),
    (13.0, 1.26046553e-10, 1e-5),
    (16.0, 3.49044078e-13, 1e-6),
    (20.0, 1.31688446e-16, 1e-6),
]


def test_prolate_frozen_eigenvalues():
    for c, lam in LAM_REF.items():
        got = prolate_r00(c)
        assert got.lambda0 == pytest.approx(lam, rel=1e-12)
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


def test_prolate_branch_seam():
    below = prolate_r00(11.999999)
    above = prolate_r00(12.000001)
    assert below.terms_used > 0
    assert above.terms_used == 0
    # the eigenvalue itself hands over seamlessly (absolute statement); the
    # deficit is ~9e-10 at the switch, so the expansion side's ~1e-12 absolute
    # eigensolve noise caps cross-branch deficit agreement near 1e-3 relative
    assert abs(above.lambda0 - below.lambda0) < 1e-11
    rel = abs(above.lambda0_deficit - below.lambda0_deficit) / above.lambda0_deficit
    assert rel < 5e-3


def test_prolate_is_memoized_per_c():
    # a report set asks for the same c as its neighbours; the frozen result
    # is computed once and shared
    assert prolate_r00(1.25) is prolate_r00(1.25)
    assert prolate_r00(13.0) is prolate_r00(13.0)
    assert prolate_r00(1.25) is not prolate_r00(1.5)


def _count_eigvalsh(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or real(a))
    return calls


def test_prolate_makes_one_eigensolve_per_fresh_c(monkeypatch):
    # the drift check at 16 more terms reuses the first expansion's shift,
    # and the asymptotic branch makes none
    calls = _count_eigvalsh(monkeypatch)
    for c in np.logspace(-6, math.log10(12.0), 40, endpoint=False):
        calls.clear()
        prolate_r00.__wrapped__(float(c))
        assert len(calls) == 1, f"c={c}: {calls}"
    for c in (12.0, 12.5, 30.0, 400.0):
        calls.clear()
        prolate_r00.__wrapped__(c)
        assert calls == [], f"c={c}"


def test_prolate_truncation_is_sized_by_c():
    # the start grows with c from 8 terms, so a fixed floor of 32 fails this
    for c in np.logspace(-6, math.log10(12.0), 200, endpoint=False):
        assert 0 < prolate_r00.__wrapped__(float(c)).terms_used <= 26, f"c={c}"


@pytest.mark.parametrize("c", [0.3, 5.0, 11.5])
def test_prolate_shift_above_the_spectrum_is_solved_afresh(monkeypatch, c):
    n = 30
    fresh = specfun._expansion(c, n)
    diag0 = c * c / 3.0  # A[0, 0]; the smallest eigenvalue lies below it
    calls = _count_eigvalsh(monkeypatch)
    # first pivot negative, and a shift between the smallest eigenvalue and
    # A[0, 0], whose negative pivot comes later
    for mu in (diag0 + 1.0, 0.5 * (fresh[3] + diag0)):
        calls.clear()
        assert specfun._expansion(c, n, mu) == fresh
        assert calls == [n]
    # a shift that passes the pivot check is kept, with no eigensolve
    calls.clear()
    r00, lam, _, mu = specfun._expansion(c, n, fresh[3] - 1e-6)
    assert calls == [] and mu == fresh[3] - 1e-6
    assert abs(r00 - fresh[0]) <= 1e-15 and abs(lam - fresh[1]) <= 1e-15
    # an eigensolve whose shift fails the check too is a numerical failure
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([diag0 + 1.0]))
    with pytest.raises(NonConvergence, match="not below the spectrum"):
        specfun._expansion(c, n)


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

# the c grid of the accuracy ledger: where 1 - lambda0 is smallest on the
# expansion branch, and so hardest to resolve
MP_C_GRID = (8.0, 9.0, 10.0, 10.5, 11.0, 11.5, 11.8, 11.9, 11.99, 11.999999)


def _prolate_mp(c: float, nterms: int = 48) -> tuple:
    """(R00(c, 1), 1 - lambda0) at 50 digits, independent of prolate_r00:
    Rayleigh-quotient iteration on the symmetrized tridiagonal matrix from a
    dense double-precision start, then the spherical-Bessel series
    R00 = sum (-1)^k d_2k j_2k(c) / sum d_2k at xi = 1."""
    n = nterms
    with mpmath.workdps(50):
        cc = mpmath.mpf(c) ** 2
        diag = [mpmath.mpf(2 * k * (2 * k + 1)) + cc * (2 * (2 * k) * (2 * k + 1) - 1)
                / ((4 * k - 1) * (4 * k + 3)) for k in range(n)]
        off = [cc * (2 * k + 1) * (2 * k + 2)
               / ((4 * k + 3) * mpmath.sqrt((4 * k + 1) * (4 * k + 5))) for k in range(n - 1)]
        dense = np.diag([float(v) for v in diag]) + np.diag([float(v) for v in off], -1)
        vals, vecs = np.linalg.eigh(dense)
        x = [mpmath.mpf(float(v)) for v in vecs[:, 0]]
        for _ in range(4):
            ax = [diag[i] * x[i] + (off[i - 1] * x[i - 1] if i else 0)
                  + (off[i] * x[i + 1] if i < n - 1 else 0) for i in range(n)]
            sigma = mpmath.fsum(a * b for a, b in zip(x, ax)) / mpmath.fsum(v * v for v in x)
            # Thomas solve of (A - sigma) y = x
            w, g = [mpmath.mpf(0)] * n, [mpmath.mpf(0)] * n
            piv = diag[0] - sigma
            w[0], g[0] = (off[0] / piv if n > 1 else 0), x[0] / piv
            for i in range(1, n):
                piv = diag[i] - sigma - off[i - 1] * w[i - 1]
                w[i] = off[i] / piv if i < n - 1 else 0
                g[i] = (x[i] - off[i - 1] * g[i - 1]) / piv
            y = g[:]
            for i in range(n - 2, -1, -1):
                y[i] = g[i] - w[i] * y[i + 1]
            norm = mpmath.sqrt(mpmath.fsum(v * v for v in y))
            x = [v / norm for v in y]
        d = [x[k] * mpmath.sqrt(4 * k + 1) for k in range(n)]
        cm = mpmath.mpf(c)
        num = mpmath.fsum((-1) ** k * d[k] * mpmath.sqrt(mpmath.pi / (2 * cm))
                          * mpmath.besselj(2 * k + mpmath.mpf(0.5), cm) for k in range(n))
        r00 = abs(num / mpmath.fsum(d))
        return r00, 1 - 2 * cm / mpmath.pi * r00 ** 2


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
    # 1 - lambda0 is 9e-10 at the top of the grid; the Bessel-series ratio
    # in double precision had up to 1.7e-3 relative error there
    worst = 0.0
    for c in MP_C_GRID:
        _, ref = _prolate_mp(c)
        got = prolate_r00.__wrapped__(c).lambda0_deficit
        worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 1e-6


def test_prolate_r00_against_mpmath():
    for c in (1e-6, 1e-3, 1e-2, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0, 6.0) + MP_C_GRID:
        ref, _ = _prolate_mp(c)
        got = prolate_r00.__wrapped__(c).r00_at_1
        assert float(abs(got - ref) / ref) <= 1e-15, f"c={c}"
