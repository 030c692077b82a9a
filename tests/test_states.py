import math
import os
import pathlib
import re
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cg_uncert import coarse, states
from cg_uncert.bounds import check_continuous_relations
from cg_uncert.numerics import Divergent, DomainError, NonConvergence, gauss_legendre_panels
from cg_uncert.states import (
    Density1D,
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    catalog_states,
    grid_edges,
    momentum_density,
    position_density,
    renyi_entropy_cont,
    split_widths,
    variance,
)
from cg_uncert.states import _erfc
import oracles


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
    assert dx.known_var == pytest.approx(0.25)


def test_hermite_moments():
    # oscillator-length convention: <x^2> = sigma^2 (n + 1/2)
    for n in (0, 1, 3):
        s = HermiteGauss(n=n, sigma=0.8)
        assert variance(position_density(s)) == pytest.approx(
            0.64 * (n + 0.5), rel=1e-10)
        assert variance(momentum_density(s)) == pytest.approx(
            (n + 0.5) / 0.64, rel=1e-10)


# reproducible examples, nothing written to disk
_SETTINGS = dict(deadline=None, derandomize=True, database=None)
_scale = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
# a block of bins (r, width, j_lo, n) in units of sd, around mu
_z_grid = st.tuples(st.floats(-12.0, 12.0), _scale, st.integers(-12, 12), st.integers(1, 24))


def _assert_same_density(a: Density1D, b: Density1D, mu: float, sd: float, z_grid) -> None:
    x = mu + sd * np.linspace(-12.0, 12.0, 97)
    assert np.array_equal(a.eval(x), b.eval(x))
    z_r, z_width, j_lo, n = z_grid
    grid = (mu + sd * z_r, sd * z_width, j_lo, n)
    assert np.array_equal(a.interval_masses(*grid), b.interval_masses(*grid))
    for name in ("support", "discontinuities", "known_mean", "known_var", "heavy_tail",
                 "osc_scale"):
        assert repr(getattr(a, name)) == repr(getattr(b, name)), name


@settings(max_examples=60, **_SETTINGS)
@given(x0=st.floats(-5.0, 5.0), p0=st.floats(-5.0, 5.0), sigma=_scale, hbar=_scale,
       z_grid=_z_grid)
def test_gaussian_momentum_is_the_position_gaussian_at_the_conjugate_width(
        x0, p0, sigma, hbar, z_grid):
    sd = hbar / (2.0 * sigma)
    _assert_same_density(momentum_density(Gaussian(x0, p0, sigma, hbar)),
                         position_density(Gaussian(p0, 0.0, sd)), p0, sd, z_grid)


@pytest.mark.parametrize("sigma", [0.3, 1.0 / math.sqrt(2.0), 1.0, 2.5])
@pytest.mark.parametrize("width, offset", [(0.05, 0.0), (0.3, 0.11), (1.7, -0.4)])
def test_a_gaussian_bins_as_the_ground_state_hermite_function(sigma, width, offset):
    # N(0, sigma^2) is phi_0(x / (sigma sqrt 2))^2 / (sigma sqrt 2), and one
    # builder makes both, so they bin bit for bit alike
    g = coarse.bin_density(position_density(Gaussian(0.0, 0.0, sigma)), width, offset)
    h = coarse.bin_density(position_density(HermiteGauss(0, sigma * math.sqrt(2.0))), width,
                           offset)
    assert (g.j_min, g.tail_mass) == (h.j_min, h.tail_mass)
    assert np.array_equal(g.masses, h.masses)


@pytest.mark.parametrize("sigma", [0.3, 1.0 / math.sqrt(2.0), 1.0, 2.5])
def test_gaussian_pdf_out_to_infinity(sigma):
    # the n = 0 pdf takes no Hermite recurrence; its argument is still
    # clipped, so 1e200 and inf raise no overflow warning (warnings are errors)
    far = [1e6, -1e6, 1.0000001e6, 1e200, -1e300, math.inf, -math.inf]
    x = np.concatenate((np.linspace(-8.0, 8.0, 8192) * sigma, far))
    got = position_density(Gaussian(0.0, 0.0, sigma)).eval(x)
    ref = np.exp(-0.5 * (x[:-len(far)] / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    assert np.allclose(got[:-len(far)], ref, rtol=1e-13, atol=0.0)
    assert np.array_equal(got[-len(far):], np.zeros(len(far)))


@settings(max_examples=60, **_SETTINGS)
@given(n=st.integers(0, 40), sigma=_scale, hbar=_scale, z_grid=_z_grid)
def test_hermite_momentum_is_the_position_hermite_at_the_conjugate_scale(
        n, sigma, hbar, z_grid):
    sd = hbar / sigma
    _assert_same_density(momentum_density(HermiteGauss(n, sigma, hbar)),
                         position_density(HermiteGauss(n, sd)), 0.0, sd, z_grid)


def test_erfc_against_mpmath():
    # math.erfc elementwise; scipy's erfc was up to 5.6e-14 off on this range
    x = np.concatenate((np.linspace(0.0, 26.5, 1001), np.geomspace(1e-8, 26.5, 200)))
    got = _erfc(x)
    with mpmath.workdps(40):
        for xi, gi in zip(x.tolist(), got.tolist()):
            ref = mpmath.erfc(xi)
            assert float(abs(gi - ref) / ref) <= 4e-16, f"x={xi}"


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50, 200, 1000])
def test_hermite_tail_is_exactly_zero_past_its_span(n):
    # _hermite gives a bin with both edges past _tail_point(n, 0) on one side
    # mass 0 without forming its tails, so S_n must be exactly 0 from there on
    span = states._tail_point(n, 0.0)
    z = np.concatenate((span + np.linspace(0.0, 4.0, 40_001),
                        np.geomspace(span + 4.0, 1e300, 2_000)))
    tail = 0.5 * _erfc(z) + (states._hermite_phi(n, z)[1] if n else 0.0)
    assert not np.any(tail), z[np.flatnonzero(tail)[:3]]
    # and the span is not wider than it needs to be
    before = np.array([span - 1e-3])
    assert 0.5 * _erfc(before)[0] + (states._hermite_phi(n, before)[1][0] if n else 0.0) > 0.0


def _hermite_masses_from_every_edge(n, sd, mu, r, width, j_lo, count):
    """Hermite block masses from the tails of all of its edges, past the span
    too, by the three-way rule for edges below, above and around 0."""
    mu_r, k_mu = split_widths(mu, width)
    z = grid_edges(r - mu_r, width, j_lo - k_mu, count) / sd
    tail = 0.5 * np.array([math.erfc(v) for v in np.abs(z).tolist()])
    if n:
        tail += states._hermite_phi(n, np.abs(z))[1]
    return _three_way_masses(z, tail)


def _three_way_masses(z, tail):
    lo, hi, t_lo, t_hi = z[:-1], z[1:], tail[:-1], tail[1:]
    return np.where(lo >= 0.0, t_lo - t_hi, np.where(hi <= 0.0, t_hi - t_lo, 1.0 - t_lo - t_hi))


def test_masses_from_tails_keep_the_bits_of_the_three_way_rule():
    # one difference of the tails, negated from the first edge >= 0 on, and
    # the interval around 0 apart: -0.0 edges count as >= 0, and equal tails
    # above 0 give +0.0, as t_lo - t_hi does
    rng = np.random.default_rng(5)
    edges = [[-2.0, -0.0, 1.0], [-1.0, 0.0, 0.5], [-0.0, 0.0, 3.0], [-3.0, -1.0], [0.5, 2.0],
             [-1.0, 1.0], [0.0], np.sort(rng.normal(size=40))]
    for z in map(np.array, edges):
        for tail in (rng.uniform(0.0, 0.5, z.size), np.zeros(z.size), np.full(z.size, 0.25)):
            got = states._masses_from_tails(z, tail)
            assert got.tobytes() == _three_way_masses(z, tail).tobytes(), (z, tail)


@pytest.mark.parametrize("n, sd, mu", [(0, 0.7, 0.1), (3, 0.7, 0.1), (60, 0.01, -3e5)])
def test_hermite_blocks_past_the_span_keep_the_bits_of_every_edge(n, sd, mu):
    d = states._hermite(n, sd, mu)
    for width in (0.01, 0.5, 3.0, 1e3):
        k = split_widths(mu, width)[1]  # whole widths to mu: blocks about it cross the span
        for j_lo in (-10 ** 6, -3000, -60, -5, 0, 17, 3000, 2 ** 62, -2 ** 62 - 5,
                     k - 5000, k - 40, k + 20):
            for count in (1, 2, 100, 8192):
                got = d.interval_masses(0.013, width, j_lo, count)
                want = _hermite_masses_from_every_edge(n, sd, mu, 0.013, width, j_lo, count)
                assert got.tobytes() == want.tobytes(), (width, j_lo, count)


def _masses_mp(edges, scale, shift, tail_beyond) -> list:
    """Exact masses between edges for a density even about shift, given the
    mass beyond z = (x - shift) * scale as tail_beyond(z) for z >= 0."""
    out = []
    with mpmath.workdps(40):
        for lo, hi in zip(edges[:-1], edges[1:]):
            zl = (mpmath.mpf(lo) - shift) * scale
            zh = (mpmath.mpf(hi) - shift) * scale
            if zh <= 0:
                out.append(tail_beyond(-zh) - tail_beyond(-zl))
            elif zl >= 0:
                out.append(tail_beyond(zl) - tail_beyond(zh))
            else:
                out.append(1 - tail_beyond(-zl) - tail_beyond(zh))
    return out


def _hermite_tail_mp(n):
    # int_z^inf phi_n^2 = erfc(z)/2 + sum_{k=1}^n phi_k(z) phi_{k-1}(z) / sqrt(2k)
    def phi(k, z):
        return (mpmath.hermite(k, z) * mpmath.exp(-z * z / 2)
                / mpmath.sqrt(2 ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi)))

    def tail(z):
        return mpmath.erfc(z) / 2 + mpmath.fsum(phi(k, z) * phi(k - 1, z) / mpmath.sqrt(2 * k)
                                                for k in range(1, n + 1))
    return tail


@pytest.mark.parametrize("state", [Gaussian(0.3, 0.0, 0.8), HermiteGauss(2, 1.3),
                                   HermiteGauss(7, 0.7)], ids=["gauss", "herm2", "herm7"])
def test_far_tail_masses_against_mpmath(state):
    # out to where the masses underflow; the rounding of the edges' scaled
    # arguments, not erfc, sets the worst figure (3e-13 on the Gaussian).
    # 87 bins from -38 sd to 38 sd, one of them across 0
    d = position_density(state)
    sd = state.sigma
    grid = (0.123, 0.875 * sd, -43, 87)
    edges = grid_edges(*grid)
    if isinstance(state, Gaussian):
        with mpmath.workdps(40):
            refs = _masses_mp(edges, 1 / (mpmath.sqrt(2) * mpmath.mpf(sd)), mpmath.mpf(state.x0),
                              lambda z: mpmath.erfc(z) / 2)
        ceiling = 3e-13
    else:
        with mpmath.workdps(40):
            refs = _masses_mp(edges, 1 / mpmath.mpf(sd), 0, _hermite_tail_mp(state.n))
        ceiling = 1.3e-13
    got = d.interval_masses(*grid)
    for lo, g, ref in zip(edges.tolist(), got.tolist(), refs):
        if ref > 1e-290:
            assert float(abs(g - ref) / ref) <= ceiling, f"bin from {lo}: {g!r} vs {ref}"


@pytest.mark.parametrize("name", ["x0", "p0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_gaussian_rejects_a_non_finite_location_by_name(name, value):
    # x0 = nan failed the binning's normalization check, and x0 = inf scanned
    # a million bins before the tail budget gave out
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Gaussian(**{name: value})


@pytest.mark.parametrize("cls, kwargs, message", [
    (Gaussian, {"hbar": -1.0}, "hbar must be positive and finite, got -1.0"),
    (HermiteGauss, {"n": 1, "hbar": math.nan}, "hbar must be positive and finite, got nan"),
    (SquareWell, {"n": 1, "length": -2.0}, "length must be positive and finite, got -2.0"),
    (SquareWell, {"n": 1, "hbar": 0.0}, "hbar must be positive and finite, got 0.0"),
], ids=["gaussian-hbar", "hermite-hbar", "well-length", "well-hbar"])
def test_states_refuse_fields_the_descriptor_cannot_reach(cls, kwargs, message):
    # the command line refuses these first, by their flag or descriptor key
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)


@pytest.mark.parametrize("marginal", [position_density, momentum_density])
def test_marginals_refuse_what_is_not_a_state(marginal):
    with pytest.raises(TypeError, match="^unsupported state type str$"):
        marginal("gaussian")


def test_split_widths_counts_whole_widths_exactly():
    # counted in floats, round((x - fmod(x, w)) / w) was 131 widths off at
    # x = -3.21e18 and 1 off at 1.2345678e16, for w = 0.37
    rng = np.random.default_rng(28)
    n = 20_000
    widths = 10.0 ** rng.uniform(-290.0, 280.0, n)
    xs = rng.choice([-1.0, 1.0], n) * widths * 2.0 ** rng.uniform(-4.0, 63.0, n)
    whole = np.round(rng.uniform(-2.0 ** 62, 2.0 ** 62, 200)) * 0.37  # near whole widths
    pairs = list(zip(xs.tolist(), widths.tolist())) + [(x, 0.37) for x in whole.tolist()]
    pairs += [(-3.21e18, 0.37), (1.2345678e16, 0.37), (0.0, 0.37), (-0.0, 0.37),
              (0.37, 0.37), (-0.37, 0.37), (2.0 ** 62 * 0.37, 0.37), (5e-324, 1e-300)]
    for x, w in pairs:
        assert abs(x) < 2.0 ** 63 * w
        assert split_widths(x, w) == oracles.split_widths(x, w), (x, w)
    for x in (-3.21e18, 1.2345678e16):
        ref = oracles.split_widths(x, 0.37)
        assert coarse._reduce_offset(x, 0.37) == ref
    assert split_widths(-3.21e18, 0.37)[1] == -8675675675675675779


def test_mixture_moments_are_taken_about_the_first_mean():
    # in absolute coordinates the mean 1e17 + 8 rounds to a neighbouring
    # double, 16 from both components, and the variance read 129.0
    for a, b in ((1e17, 1e17 + 16.0), (1000.0, 1016.0)):
        for marginal, at in ((position_density, lambda x: Gaussian(x0=x)),
                             (momentum_density, lambda x: Gaussian(p0=x, sigma=0.5))):
            d = marginal(Mixture(((0.5, at(a)), (0.5, at(b)))))
            assert d.known_var == 65.0, (a, marginal)
            assert abs(d.known_mean - (a + 8.0)) <= 8.0
    d = position_density(Mixture(((0.25, Gaussian(x0=2.0)), (0.75, Gaussian(x0=-2.0)))))
    assert (d.known_mean, d.known_var) == (-1.0, 4.0)


@pytest.mark.parametrize("cls, kwargs, name", [
    (Gaussian, {"sigma": 1e200}, "sigma"),
    (Gaussian, {"sigma": 1e-200}, "hbar/(2 sigma)"),
    (Gaussian, {"hbar": 1e200}, "hbar/(2 sigma)"),
    (SquareWell, {"n": 1, "length": 1e200}, "L"),
    (SquareWell, {"n": 1, "length": 1e-200}, "hbar n pi/L"),
    (SquareWell, {"n": 3, "hbar": 1e200}, "hbar n pi/L"),
    (HermiteGauss, {"n": 2, "sigma": 1e200}, "sigma"),
    (HermiteGauss, {"n": 2, "sigma": 1e-200}, "hbar/sigma"),
    (HermiteGauss, {"n": 3, "hbar": 1e200}, "hbar/sigma"),
    (HermiteGauss, {"n": 1000, "sigma": 1e153}, "sigma"),
    (HermiteGauss, {"n": 1000, "sigma": 1e-153}, "hbar/sigma"),
], ids=["gaussian-sigma", "gaussian-small-sigma", "gaussian-hbar", "well-L", "well-small-L",
        "well-hbar", "hermite-sigma", "hermite-small-sigma", "hermite-hbar",
        "hermite-n-sigma", "hermite-n-small-sigma"])
def test_marginal_widths_whose_square_overflows_are_rejected_by_name(cls, kwargs, name):
    # the marginals' second moments raised a bare OverflowError (sd ** 2); a
    # Hermite function's, sd^2 (n + 1/2), came out inf, and its variance()
    # raised NonConvergence
    with pytest.raises(ValueError, match=f"^marginal width {re.escape(name)} = .* squares past"):
        cls(**kwargs)


def test_marginal_widths_just_below_the_square_limit_keep_finite_moments():
    for s in (Gaussian(sigma=1e154), Gaussian(sigma=1e-154), SquareWell(1, length=1e154),
              SquareWell(1, length=4e-154), HermiteGauss(0, 1.3e154), HermiteGauss(0, 7.7e-155),
              HermiteGauss(1000, 4e152), HermiteGauss(1000, 2.5e-153)):
        for d in (position_density(s), momentum_density(s)):
            assert math.isfinite(d.known_var) and d.known_var > 0.0


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
    assert dp.known_var == pytest.approx((0.7 * kn) ** 2, rel=1e-14)
    # p^{-4} tails: variance must come from the known moments, not quadrature
    assert dp.heavy_tail
    assert variance(dp) == pytest.approx((0.7 * kn) ** 2, rel=1e-14)


def _cauchy() -> Density1D:
    return Density1D(eval=lambda x: 1.0 / (math.pi * (1.0 + np.asarray(x, dtype=float) ** 2)),
                     support=(-math.inf, math.inf), heavy_tail=True)


def test_quadrature_refuses_what_it_cannot_integrate():
    def ones(x):
        return np.ones_like(np.asarray(x, dtype=float))

    with pytest.raises(ValueError, match=r"^degenerate support \[1\.0, 1\.0\]$"):
        variance(Density1D(eval=ones, support=(1.0, 1.0)))
    # the core [-0.01, 0] takes 100 panels; the first tail ring, 8 wide,
    # would take 80000 on a density that oscillates every 2e-4
    ring = Density1D(eval=np.exp, support=(-math.inf, 0.0), known_mean=7.99, known_var=1.0,
                     osc_scale=2e-4)
    with pytest.raises(Divergent, match="^tail ring of width 8.0 needs more than 65536 panels$"):
        variance(ring)
    zero = Density1D(eval=lambda x: 0.0 * ones(x), support=(0.0, 1.0))
    with pytest.raises(NonConvergence, match=r"^power integral came out nonpositive \(0\.0\)$"):
        renyi_entropy_cont(zero, 0.5)


def test_heavy_tail_without_moments_diverges():
    with pytest.raises(Divergent):
        variance(_cauchy())


def _student_t2() -> Density1D:
    # Student's t with 2 degrees of freedom: mean 0, tails like |x|^-3, so
    # its second moment grows like ln x without end
    return Density1D(eval=lambda x: (2.0 + np.asarray(x, dtype=float) ** 2) ** -1.5,
                     support=(-math.inf, math.inf))


def test_a_divergent_variance_is_divergent():
    # tails not marked heavy whose variance grows without end run out of
    # rings, which raised NonConvergence for variances and Divergent for
    # entropies alike; both are a tail that does not settle
    with pytest.raises(Divergent, match="did not settle"):
        variance(_student_t2())


def test_cauchy_entropies():
    # f^(1/2) falls like 1/|x|, so the order-1/2 integral diverges; Shannon
    # converges to ln(4 pi) (the ring sum's cut-off, 2.5e-11 a ring, leaves
    # 5e-11)
    with pytest.raises(Divergent):
        renyi_entropy_cont(_cauchy(), 0.5)
    assert abs(renyi_entropy_cont(_cauchy(), 1.0) - math.log(4.0 * math.pi)) <= 1e-10


def test_variance_far_from_the_origin():
    # the mean is taken relative to known_mean: 1e6 + int (x - 1e6) f read
    # 1.0000053e-4 as int x f, 5.3e-6 relative off, and 1.7e-10 now; the
    # rest is nodes rounded to ulp(1e6), which only binning each density in
    # its own frame removes
    got = variance(position_density(Gaussian(1e6, 0.0, 0.01)))
    assert abs(got - 1e-4) <= 1e-9 * 1e-4


def test_coherent_state_far_from_the_origin_holds_hur():
    # the raw second moment 1e14 + 1e-4 left a variance of exactly 0, so the
    # core fell back to unit width, its one panel missed the 0.01-wide peak,
    # and the variance, the entropy and the HUR verdict read 0, 0, "violated"
    s = Gaussian(1e7, 0.0, 0.01)
    d = position_density(s)
    assert d.known_var == 1e-4
    assert abs(variance(d) - 1e-4) <= 1e-9 * 1e-4
    h = 0.5 * math.log(2.0 * math.pi * math.e * 1e-4)
    assert abs(renyi_entropy_cont(d, 1.0) - h) <= 1e-9 * abs(h)
    hur = check_continuous_relations(s, alpha=1.0)[0]
    assert hur.relation_id == "HUR" and hur.verdict == "holds"


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
    assert dm.known_var == pytest.approx(m2 - mean * mean)
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
    with pytest.raises(ValueError, match="^mixture needs at least one component$"):
        Mixture(components=())
    with pytest.raises(TypeError, match="^unsupported component type str$"):
        Mixture(components=((1.0, "gaussian"),))


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


@pytest.mark.parametrize("state, momentum, lam, ref", [
    # 20-digit mpmath values: the Hermite ones by 30-digit quadrature split
    # at the zeros of H_n, where |phi_n|^(2 lam) has its kinks
    (HermiteGauss(7), False, 1.5, "1.7959511199747778939"),
    (HermiteGauss(2), False, 0.6, "1.6106293407982606936"),
    (SquareWell(5), True, 3.0, "2.81028557755698381"),
    (SquareWell(3, 1.5), True, 3.0, "2.3685504359267369"),
])
def test_renyi_entropy_against_mpmath(state, momentum, lam, ref):
    # QUADPACK quad on the finite core was 9.0e-10, 1.4e-11, 3.0e-10 and
    # 1.5e-12 off; the panel rule is within a few ulps
    d = momentum_density(state) if momentum else position_density(state)
    assert abs(renyi_entropy_cont(d, lam) - float(ref)) <= 1e-13


# Shannon entropies of square-well momentum marginals, with p^-4 tails.  Each
# reference is math.fsum of 80-point Gauss-Legendre panels, each a sixteenth
# of osc_scale wide, over |p| <= 4e5 (beyond, -f ln f holds about 1e-15):
#     x, w = np.polynomial.legendre.leggauss(80)
#     h = d.osc_scale / 16
#     edges = np.arange(-ceil(4e5 / h), ceil(4e5 / h) + 1) * h  # in chunks
#     p = mid + half * x[:, None]; panel = half * (w @ -f ln f(p))
#     math.fsum(all panels)
# 100-point panels a 32nd wide agree within 3e-15.  40-point panels a quarter
# wide read 1.3e-12, 1.5e-11 and 1.5e-11 low: each panel ends on a double zero
# of f, where -f ln f has a t^2 ln t kink.
@pytest.mark.parametrize("n, length, ref", [
    (1, 1.0, 2.518890907078633),
    (3, 1.5, 2.654529714614599),
    (5, 1.0, 3.1826519929140975),
])
def test_square_well_momentum_shannon_against_fine_panels(n, length, ref):
    # the tail rings stop after two rings below 2.5e-11 |H| in a row, which
    # leaves 1.3e-12, 4.5e-13 and 2.0e-12
    h = renyi_entropy_cont(momentum_density(SquareWell(n, length)), 1.0)
    assert abs(h - ref) <= 3e-12


def test_square_well_position_entropy_at_a_large_quantum_number():
    # -int f ln f = ln 2 - 1 for every n; the 19,999 nodes are listed cuts,
    # and quad took 46 s here for a 1.5e-11 error
    t0 = time.perf_counter()
    h = renyi_entropy_cont(position_density(SquareWell(20000)), 1.0)
    assert abs(h - (math.log(2.0) - 1.0)) <= 1e-11
    assert time.perf_counter() - t0 < 5.0


_PEAK_RSS = """
from cg_uncert.numerics import Divergent, NonConvergence
from cg_uncert.states import SquareWell, momentum_density, renyi_entropy_cont
try:
    renyi_entropy_cont(momentum_density(SquareWell(100000)), 1.0)
    print("value")
except (Divergent, NonConvergence) as exc:
    print(type(exc).__name__)
# the child's own peak: ru_maxrss carries the spawning process's across exec
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM in /proc on Linux")
def test_square_well_momentum_entropy_at_the_cap_stays_small():
    # the finite core takes 1.6 million panels, evaluated a chunk at a time;
    # the first tail ring would take 800,000, more than 2^16, and is refused
    # before any of them is allocated
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _PEAK_RSS], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    outcome, peak_kib = r.stdout.split()
    assert outcome in ("Divergent", "NonConvergence")
    assert int(peak_kib) < 160 * 1024


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
