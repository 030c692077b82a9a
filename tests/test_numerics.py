import math

import numpy as np
import pytest

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
