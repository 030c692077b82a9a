import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cg_uncert import bounds, numerics
from cg_uncert.numerics import (
    InvalidBracket,
    NonConvergence,
    RootSpec,
    adaptive_panels,
    find_root_bracketed,
    gauss_legendre_panels,
)
from oracles import quad


def test_adaptive_panels_known_values():
    got = adaptive_panels(lambda x: x * x, [0.0], [1.0], [0], 1)
    assert got.shape == (1,) and got[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    got = adaptive_panels(lambda x: np.exp(-0.5 * x * x), [-8.0], [8.0], [0], 1)[0]
    assert got == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
    # one sum per group, in group order; a group with no panel sums to 0
    lo, hi = np.array([0.0, 1.0, 2.0, 0.0]), np.array([1.0, 2.0, 3.0, math.pi])
    got = adaptive_panels(np.cos, lo, hi, [2, 0, 2, 1], 4)
    want = [math.sin(2.0) - math.sin(1.0), 0.0, math.sin(1.0) + math.sin(3.0) - math.sin(2.0), 0.0]
    assert got == pytest.approx(want, abs=1e-15)


def test_adaptive_panels_settles_an_unlisted_jump():
    # a step not given as a panel edge is found by halving the panel that
    # straddles it.  At x = 1/3 it sits a third of a half-width from the
    # centre of every panel met on the way down; a step within about 5% of a
    # panel's centre would settle early and wrongly, since both rules weigh
    # the two halves of a panel alike.  Listed cuts avoid both problems.
    third = 1.0 / 3.0
    got = adaptive_panels(lambda x: np.exp(x) + 0.1 * (x >= third), [0.0], [1.0], [0], 1)[0]
    assert got == pytest.approx(math.e - 1.0 + 0.1 * (1.0 - third), abs=2e-14)
    # a step that dominates the integral is still unsettled after 40 halvings
    with pytest.raises(NonConvergence, match=r"\[0\.33333333333.*after 40 halvings"):
        adaptive_panels(lambda x: np.exp(x) + 10.0 * (x >= third), [0.0], [1.0], [0], 1)


def test_adaptive_panels_floor_scales_with_the_integral():
    # a Gaussian of height 1e-20 on one wide panel: under a fixed 1e-15
    # floor the first 16- and 32-point values agreed and the 32-point one,
    # 10% off, was taken
    f = lambda x: 1e-20 * np.exp(-0.5 * (x / 15.0) ** 2)
    got = adaptive_panels(f, [-400.0], [400.0], [0], 1)[0]
    assert got == pytest.approx(1e-20 * 15.0 * math.sqrt(2.0 * math.pi), rel=1e-13)


def test_adaptive_panels_evaluates_at_most_a_chunk_per_call(monkeypatch):
    sizes = []
    rule = numerics.gauss_legendre_panels

    def counted(f_vec, lo, hi, order):
        sizes.append(len(lo))
        return rule(f_vec, lo, hi, order)

    monkeypatch.setattr(numerics, "gauss_legendre_panels", counted)
    edges = np.linspace(0.0, 1.0, 100_001)
    got = adaptive_panels(lambda x: 2.0 * x, edges[:-1], edges[1:], np.arange(100_000) // 25_000, 4)
    assert max(sizes) == 2 ** 15 and sum(sizes) == 2 * 100_000
    assert got == pytest.approx([1 / 16, 3 / 16, 5 / 16, 7 / 16], rel=1e-12)


def test_adaptive_panels_refuses_a_runaway_panel_count():
    # every panel stays unsettled, so the live count doubles until it passes 2^16
    with pytest.raises(NonConvergence, match=r"131072 panels unsettled after 17 halvings"):
        adaptive_panels(lambda x: np.full(x.shape, np.nan), [0.0], [1.0], [0], 1)


def test_root_spec_validation():
    with pytest.raises(ValueError):
        RootSpec(x_tol=0.0)


def test_find_root_bracketed():
    r = find_root_bracketed(math.cos, 1.0, 2.0)
    assert r == pytest.approx(math.pi / 2.0, abs=1e-12)
    # endpoint roots short-circuit
    assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0


def test_find_root_requires_sign_change():
    with pytest.raises(InvalidBracket):
        find_root_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)


# reproducible examples, nothing written to disk
_SETTINGS = dict(deadline=None, derandomize=True, database=None)
_LOG10_U = st.floats(-300.0, math.log10(1.7e308))


def _scipy_root(f, lo, hi, spec):
    return brentq(f, lo, hi, xtol=5e-324, rtol=max(spec.x_tol, 4.0 * sys.float_info.epsilon),
                  maxiter=spec.max_iter)


def _m_inv_solve(u):
    """The (f, lo, hi, spec) that func_M_inv(u) hands to the root finder."""
    calls = []

    def record(f, lo, hi, spec):
        calls.append((f, lo, hi, spec))
        return find_root_bracketed(f, lo, hi, spec)

    with mock.patch.object(bounds, "find_root_bracketed", record):
        bounds.func_M_inv(u)
    (call,) = calls
    return call


@settings(max_examples=200, **_SETTINGS)
@given(log10_u=_LOG10_U)
def test_root_finder_matches_scipy_brentq_on_m_inverse(log10_u):
    f, lo, hi, spec = _m_inv_solve(10.0 ** log10_u)
    got = find_root_bracketed(f, lo, hi, spec)
    assert type(got) is float
    assert got.hex() == float(_scipy_root(f, lo, hi, spec)).hex()


@settings(max_examples=200, **_SETTINGS)
@given(root=st.floats(-3.0, 3.0), width=st.floats(0.01, 5.0), frac=st.floats(0.0, 1.0),
       curve=st.floats(-2.0, 2.0), x_tol=st.sampled_from([1e-15, 1e-13, 1e-8, 1e-3]))
def test_root_finder_matches_scipy_brentq_on_cubics(root, width, frac, curve, x_tol):
    lo = root - frac * width
    hi = lo + width
    f = lambda x: (x - root) * (1.0 + curve * x * x * x * x) ** 2 * (x * x + 0.5)
    if f(lo) * f(hi) > 0.0:
        return
    spec = RootSpec(x_tol=x_tol)
    assert find_root_bracketed(f, lo, hi, spec).hex() == float(_scipy_root(f, lo, hi, spec)).hex()


@settings(max_examples=50, **_SETTINGS)
@given(lo=st.floats(-10.0, 10.0), width=st.floats(1e-6, 10.0), nan_at_lo=st.booleans())
def test_root_finder_rejects_nan_at_an_end(lo, width, nan_at_lo):
    hi = lo + width
    nan_end = lo if nan_at_lo else hi
    f = lambda x: math.nan if x == nan_end else x - 0.5 * (lo + hi)
    with pytest.raises(InvalidBracket):
        find_root_bracketed(f, lo, hi)


def test_root_finder_stops_on_nan_inside_the_bracket():
    with pytest.raises(NonConvergence):
        find_root_bracketed(lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan, 0.0, 1.0)


def test_root_finder_evaluates_each_end_once():
    seen = []
    find_root_bracketed(lambda x: seen.append(x) or math.cos(x), 1.0, 2.0)
    assert seen.count(1.0) == 1 and seen.count(2.0) == 1


def test_root_finder_iteration_budget():
    with pytest.raises(NonConvergence):
        find_root_bracketed(math.cos, 1.0, 2.0, RootSpec(max_iter=2))


def test_gauss_legendre_panels_polynomial_exactness():
    # order-16 rule integrates degree-31 polynomials exactly
    lo = np.array([0.0, 0.5, -2.0])
    hi = np.array([0.5, 1.0, -1.0])
    got = gauss_legendre_panels(lambda x: 7.0 * x ** 9 - x ** 3 + 2.0, lo, hi, 16)
    exact = (0.7 * hi ** 10 - 0.25 * hi ** 4 + 2.0 * hi) - (
        0.7 * lo ** 10 - 0.25 * lo ** 4 + 2.0 * lo)
    assert np.allclose(got, exact, rtol=1e-14, atol=1e-15)


def test_gauss_legendre_panels_matches_adaptive():
    f = lambda x: np.exp(-0.5 * x * x)
    edges = np.linspace(-6.0, 6.0, 257)
    total = float(np.sum(gauss_legendre_panels(f, edges[:-1], edges[1:], 16)))
    ref = quad(lambda x: math.exp(-0.5 * x * x), -6.0, 6.0)
    assert total == pytest.approx(ref, rel=1e-13)


def test_nonconvergence_on_hard_singularity():
    # the panel at the endpoint singularity x^{-0.99} never settles: its
    # integral 100 x^{0.01} falls by under 1% a halving
    with pytest.raises(NonConvergence, match=r"\[0\.0, 9\.094947017729282e-13\].* after 40 halvings"):
        adaptive_panels(lambda x: np.abs(x) ** -0.99, [0.0], [1.0], [0], 1)
