import math

import numpy as np
import pytest

from cg_uncert import numerics, states
from cg_uncert.numerics import NonConvergence, adaptive_panels, gauss_legendre_panels
from oracles import quad


def test_node_table_is_numpys_gauss_legendre_rule():
    # the orders the package uses come from a checked-in copy of leggauss, so
    # numpy.polynomial is never loaded; numpy 2.4 matches it bit for bit, and
    # another build may differ in the last place
    from numpy.polynomial.legendre import leggauss
    assert set(numerics._GL_HALVES) == {n for n, _ in states._WELL_RULE} | {16, 32}
    for order in (*numerics._GL_HALVES, 3, 12):
        (x, w), (rx, rw) = numerics._gl_nodes(order), leggauss(order)
        assert x.shape == w.shape == (order,) and x.dtype == w.dtype == np.float64
        assert np.all(np.abs(x - rx) <= np.spacing(np.abs(rx))), order
        assert np.all(np.abs(w - rw) <= np.spacing(rw)), order
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), order


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
    # centre of every panel met on the way down (a step near a panel's centre
    # is seen by its centre value).  Listed cuts avoid the halvings.
    third = 1.0 / 3.0
    got = adaptive_panels(lambda x: np.exp(x) + 0.1 * (x >= third), [0.0], [1.0], [0], 1)[0]
    assert got == pytest.approx(math.e - 1.0 + 0.1 * (1.0 - third), abs=2e-14)
    # a step that dominates the integral is still unsettled after 40 halvings
    with pytest.raises(NonConvergence, match=r"\[0\.33333333333.*after 40 halvings"):
        adaptive_panels(lambda x: np.exp(x) + 10.0 * (x >= third), [0.0], [1.0], [0], 1)


@pytest.mark.parametrize("jump", [1.0 / math.sqrt(2.0), 0.49, 0.51, 0.74, 0.77,
                                  *np.linspace(0.01, 0.99, 99).tolist()])
def test_adaptive_panels_sees_a_jump_near_a_panel_centre(jump):
    # exp(x), tripled from the jump on.  Both rules weigh the two halves of a
    # panel alike, so a jump between the innermost 32-point nodes of a panel
    # met on the way down moved both alike and the panel settled with the
    # jump inside: 7.3e-12 off at 1/sqrt(2), 2.9e-8 at 0.77, relative.  It
    # must settle on the right value or raise
    exact = math.expm1(jump) + 3.0 * (math.e - math.exp(jump))
    try:
        got = adaptive_panels(lambda x: np.exp(x) * np.where(x >= jump, 3.0, 1.0),
                              [0.0], [1.0], [0], 1)[0]
    except NonConvergence:
        return
    assert abs(got - exact) <= 1e-13 * exact


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
