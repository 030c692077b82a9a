import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cg_uncert import bounds
from cg_uncert.numerics import (
    DEFAULT_QUAD,
    InvalidBracket,
    NonConvergence,
    QuadSpec,
    RootSpec,
    find_root_bracketed,
    gauss_legendre_panels,
    integrate,
)


def test_integrate_known_values():
    assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-13)
    got = integrate(lambda x: math.exp(-x * x / 2.0), -8.0, 8.0)
    assert got == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


def test_integrate_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, math.inf)


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(max_subdivisions=0)


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
    ref = integrate(lambda x: math.exp(-0.5 * x * x), -6.0, 6.0)
    assert total == pytest.approx(ref, rel=1e-13)


def test_nonconvergence_on_hard_singularity():
    # endpoint singularity x^{-0.99} exhausts the subdivision budget
    tight = QuadSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
    with pytest.raises(NonConvergence):
        integrate(lambda x: abs(x) ** -0.99 if x != 0.0 else 1e300, 0.0, 1.0, tight)
