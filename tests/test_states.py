import math

import mpmath
import numpy as np
import pytest

from cg_uncert.numerics import Divergent, gauss_legendre_panels, integrate
from cg_uncert.relations import DomainError
from cg_uncert.states import (
    Density1D,
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    catalog_states,
    check_continuous_relations,
    momentum_density,
    position_density,
    renyi_entropy_cont,
    variance,
)


def _mass(d: Density1D) -> float:
    lo, hi = d.support
    panels = 2048
    if not (math.isfinite(lo) and math.isfinite(hi)):
        m = d.known_mean or 0.0
        half = 500.0 if d.heavy_tail else 180.0
        lo, hi = m - half, m + half
        if d.heavy_tail:
            panels = 16384
    cuts = [lo] + [c for c in d.discontinuities if lo < c < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(a, b, panels + 1)
        total += float(np.sum(gauss_legendre_panels(d.eval, edges[:-1], edges[1:], 12)))
    return total


def test_all_catalog_marginals_normalized():
    for name, s in catalog_states():
        for axis, density in (("x", position_density(s)), ("p", momentum_density(s))):
            # power-law tails put ~1e-7 of mass beyond any fixed window, so
            # heavy-tailed marginals get a window-limited tolerance
            tol = 1e-6 if density.heavy_tail else 1e-10
            assert _mass(density) == pytest.approx(1.0, abs=tol), f"{name}/{axis}"


def test_gaussian_moments():
    s = Gaussian(x0=0.7, p0=-0.3, sigma=0.5)
    assert variance(position_density(s)) == pytest.approx(0.25, rel=1e-11)
    assert variance(momentum_density(s)) == pytest.approx(1.0, rel=1e-11)
    dx = position_density(s)
    assert dx.known_mean == pytest.approx(0.7)
    assert dx.known_m2 == pytest.approx(0.25 + 0.49)


def test_hermite_moments():
    # oscillator-length convention: <x^2> = sigma^2 (n + 1/2)
    for n in (0, 1, 3):
        s = HermiteGauss(n=n, sigma=0.8)
        assert variance(position_density(s)) == pytest.approx(
            0.64 * (n + 0.5), rel=1e-10)
        assert variance(momentum_density(s)) == pytest.approx(
            (n + 0.5) / 0.64, rel=1e-10)


def test_square_well_position():
    s = SquareWell(n=3, length=1.5)
    d = position_density(s)
    assert d.support == (0.0, 1.5)
    # (2/L) sin^2(n pi x / L), zero at the interior nodes
    for m in (1, 2):
        node = m * 1.5 / 3
        assert node in d.discontinuities or float(d.eval(node)) < 1e-20
    var_exact = 1.5 ** 2 * (1.0 / 12.0 - 1.0 / (2.0 * (3 * math.pi) ** 2))
    assert variance(d) == pytest.approx(var_exact, rel=1e-10)


def test_square_well_momentum_against_fourier_quadrature():
    # independent route: brute-force Fourier transform of the position
    # wavefunction psi(x) = sqrt(2/L) sin(n pi x / L) on [0, L]
    n, length, hbar = 4, 1.0, 1.0
    s = SquareWell(n=n, length=length, hbar=hbar)
    dp = momentum_density(s)
    kn = n * math.pi / length
    xs_edges = np.linspace(0.0, length, 4097)

    def rho_ref(p: float) -> float:
        q = p / hbar

        def re_part(x):
            return np.sqrt(2.0 / length) * np.sin(kn * x) * np.cos(q * x)

        def im_part(x):
            return np.sqrt(2.0 / length) * np.sin(kn * x) * np.sin(q * x)

        re = float(np.sum(gauss_legendre_panels(re_part, xs_edges[:-1], xs_edges[1:], 8)))
        im = float(np.sum(gauss_legendre_panels(im_part, xs_edges[:-1], xs_edges[1:], 8)))
        return (re * re + im * im) / (2.0 * math.pi * hbar)

    for p in (0.0, 0.3, 0.5 * hbar * kn, hbar * kn, 2.0 * hbar * kn, 37.7):
        got = float(dp.eval(p))
        assert got == pytest.approx(rho_ref(p), abs=1e-8), f"p={p}"
        assert got == pytest.approx(float(dp.eval(-p)), abs=1e-15)  # parity


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(2), SquareWell(3, 1.5),
                                   SquareWell(7, 0.3, 0.5)], ids=["n1", "n2", "n3", "n7"])
def test_square_well_momentum_pdf_against_mpmath(state):
    # Near a zero of sin a, rounding a = n pi/2 - p L/(2 hbar) to its ulp sets
    # the relative error of any double evaluation, so the error is measured
    # against the envelope (n pi)^2 L / (4 pi hbar max(1, m^2) o^2), m and o
    # the nearer and farther of |a| and |b| from 0, which bounds the density
    # and equals it at the peaks.
    d = momentum_density(state)
    grid = np.geomspace(1e-3, 1e4, 301)
    kn = state.n * math.pi * state.hbar / state.length
    ps = np.concatenate([grid, -grid, [0.0, kn, -kn],
                         np.random.default_rng(1).uniform(-1e4, 1e4, 200)])
    got = d.eval(ps)
    with mpmath.workdps(40):
        npi, half = state.n * mpmath.pi, mpmath.mpf(state.length) / (2 * mpmath.mpf(state.hbar))
        scale = npi ** 2 * half / (2 * mpmath.pi)
        for p, v in zip(ps.tolist(), got.tolist()):
            a = npi / 2 - mpmath.mpf(p) * half
            b = npi - a
            ref = scale * mpmath.sin(a) ** 2 / (a * b) ** 2
            m, o = sorted((abs(a), abs(b)))
            envelope = scale / (max(1, m * m) * o * o)
            assert abs(v - ref) <= 1e-10 * envelope, f"p={p!r}: {v!r} vs {float(ref)!r}"


def test_square_well_momentum_moments():
    s = SquareWell(n=2, length=2.0, hbar=0.7)
    dp = momentum_density(s)
    kn = 2 * math.pi / 2.0
    assert dp.known_mean == 0.0
    assert dp.known_m2 == pytest.approx((0.7 * kn) ** 2, rel=1e-14)
    # p^{-4} tails: variance must come from the known moments, not quadrature
    assert dp.heavy_tail
    assert variance(dp) == pytest.approx((0.7 * kn) ** 2, rel=1e-14)


def test_heavy_tail_without_moments_diverges():
    cauchy = Density1D(
        eval=lambda x: 1.0 / (math.pi * (1.0 + np.asarray(x) ** 2)),
        support=(-math.inf, math.inf), heavy_tail=True)
    with pytest.raises(Divergent):
        variance(cauchy)


def test_mixture_density_linearity_and_moments():
    a = Gaussian(x0=-1.0, sigma=1.0)
    b = Gaussian(x0=2.0, p0=0.5, sigma=1.5)
    mix = Mixture(components=((0.6, a), (0.4, b)))
    dm = position_density(mix)
    da, db = position_density(a), position_density(b)
    for x in (-2.0, -1.0, 0.0, 1.3, 2.0, 4.5):
        assert float(dm.eval(x)) == pytest.approx(
            0.6 * float(da.eval(x)) + 0.4 * float(db.eval(x)), rel=1e-14)
    mean = 0.6 * -1.0 + 0.4 * 2.0
    m2 = 0.6 * (1.0 + 1.0) + 0.4 * (1.5 ** 2 + 4.0)
    assert dm.known_mean == pytest.approx(mean)
    assert dm.known_m2 == pytest.approx(m2)
    assert variance(dm) == pytest.approx(m2 - mean * mean, rel=1e-11)


def test_mixture_validation():
    g = Gaussian()
    with pytest.raises(ValueError):
        Mixture(components=((0.6, g), (0.5, g)))  # weights off
    with pytest.raises(ValueError):
        Mixture(components=((-0.5, g), (1.5, g)))
    inner = Mixture(components=((0.5, g), (0.5, Gaussian(x0=1.0))))
    with pytest.raises(ValueError):
        Mixture(components=((0.5, g), (0.5, inner)))  # no nesting
    with pytest.raises(ValueError):
        Mixture(components=((0.5, g), (0.5, Gaussian(hbar=2.0))))


def test_gaussian_renyi_closed_form():
    s = Gaussian(sigma=1.3)
    d = position_density(s)
    var = 1.3 ** 2
    for lam in (0.6, 0.75, 1.0):
        if lam == 1.0:
            ref = 0.5 * math.log(2.0 * math.pi * math.e * var)
        else:
            ref = 0.5 * math.log(2.0 * math.pi * var) + math.log(lam) / (2.0 * (lam - 1.0))
        assert renyi_entropy_cont(d, lam) == pytest.approx(ref, abs=1e-11), f"lam={lam}"


def test_renyi_rejects_bad_order():
    d = position_density(Gaussian())
    with pytest.raises(DomainError):
        renyi_entropy_cont(d, 0.0)
    with pytest.raises(DomainError):
        renyi_entropy_cont(d, -1.0)


def test_gaussian_saturates_continuous_relations():
    for alpha in (0.6, 0.8, 1.0):
        reports = check_continuous_relations(Gaussian(x0=0.2, sigma=0.9), alpha=alpha)
        by_id = {r.relation_id: r for r in reports}
        assert set(by_id) == {"HUR", "RenyiCont", "ShannonCont"}
        for r in reports:
            assert r.verdict == "holds"
            assert abs(r.margin) < 1e-9, f"{r.relation_id} at alpha={alpha}"


def test_hermite_hur_margin():
    # <x^2><p^2> = (hbar/2)^2 (2n+1)^2, so the log margin is 2 ln(2n+1)
    for n in (1, 2):
        reports = check_continuous_relations(HermiteGauss(n=n), alpha=1.0)
        hur = next(r for r in reports if r.relation_id == "HUR")
        assert hur.margin == pytest.approx(2.0 * math.log(2 * n + 1), abs=1e-9)


def test_catalog_holds_continuous_relations():
    for name, s in catalog_states():
        for alpha in (0.75, 1.0):
            for r in check_continuous_relations(s, alpha=alpha):
                assert r.verdict == "holds", f"{name} alpha={alpha} {r.relation_id}"
                assert r.margin >= -1e-9


def test_alpha_domain_for_continuous_checks():
    with pytest.raises(DomainError):
        check_continuous_relations(Gaussian(), alpha=0.5)  # conjugate diverges
    with pytest.raises(DomainError):
        check_continuous_relations(Gaussian(), alpha=1.2)
