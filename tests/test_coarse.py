import dataclasses
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cg_uncert.coarse import (
    EPS_TAIL,
    MAX_WIDTH,
    BinnedDistribution,
    GhfSpec,
    ReconstructedPdf,
    TailBudgetExceeded,
    bin_density,
    decompose_stats,
    discrete_renyi,
    discrete_variance,
    ghf_entropy,
    ghf_variance,
    sample_counts,
)
from cg_uncert.coarse import _CHUNK, _renyi
from cg_uncert.numerics import DomainError, NonConvergence, gauss_legendre_panels
from cg_uncert import states as states_mod
from cg_uncert.states import (
    Density1D,
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    grid_edges,
    momentum_density,
    position_density,
    renyi_entropy_cont,
    variance,
)
from cg_uncert.states import _WELL_RULE
from oracles import quad, split_widths


def _gauss_bin_oracle(j: int, eta: float, offset: float) -> float:
    # unit Gaussian mass of bin j from the error function directly
    z = offset + j * eta
    a, b = (z - 0.5 * eta) / math.sqrt(2.0), (z + 0.5 * eta) / math.sqrt(2.0)
    return 0.5 * (math.erf(b) - math.erf(a))


# ---------------------------------------------------------------------------
# binning


def test_gaussian_binning_matches_erf_oracle():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    assert b.probs[0] == pytest.approx(math.erf(1.0 / (2.0 * math.sqrt(2.0))), abs=1e-12)
    assert b.probs[0] == pytest.approx(0.38292, abs=5e-6)
    for j in b.probs:
        assert b.probs[j] == pytest.approx(_gauss_bin_oracle(j, 1.0, 0.0), abs=1e-13)
    assert math.fsum(b.probs.values()) + b.tail_mass == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= b.tail_mass <= EPS_TAIL


def test_gaussian_binning_offset_grid():
    b = bin_density(position_density(Gaussian()), 0.7, 0.35)
    for j in b.probs:
        assert b.probs[j] == pytest.approx(_gauss_bin_oracle(j, 0.7, 0.35), abs=1e-13)
    # centers symmetric about the peak in pairs: p at z and -z agree
    assert b.probs[0] == pytest.approx(b.probs[-1], abs=1e-13)


def test_bin_symmetry():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    for j in b.probs:
        if -j in b.probs:
            assert b.probs[j] == pytest.approx(b.probs[-j], abs=1e-13)


def test_fine_grid_variance_follows_flat_correction():
    # discrete variance sits eta^2/12 ABOVE the continuous variance on fine
    # grids (the classic flat-binning correction), for centered and offset
    # grids alike
    d = position_density(Gaussian())
    for eta in (0.25, 0.1):
        for offset in (0.0, eta / 2.0):
            v = discrete_variance(bin_density(d, eta, offset))
            assert v == pytest.approx(1.0 + eta ** 2 / 12.0, abs=1e-6), (eta, offset)
    v = discrete_variance(bin_density(d, 0.01, 0.0))
    assert abs(v - 1.0) < 0.01 ** 2 / 12.0 + 1e-6


def test_huge_bins_collapse_all_statistics():
    # with the grid centered on the state, one bin swallows everything
    b = bin_density(position_density(Gaussian()), 100.0, 0.0)
    assert discrete_variance(b) < 1e-6
    assert discrete_renyi(b, 1.0) < 1e-6
    assert b.probs[0] == pytest.approx(1.0, abs=1e-9)


def test_square_well_bin_masses_closed_form():
    n, length = 2, 1.0
    d = position_density(SquareWell(n=n, length=length))
    k = n * math.pi / length

    def cdf(x: float) -> float:
        x = min(max(x, 0.0), length)
        return x / length - math.sin(2.0 * k * x) / (2.0 * k * length)

    eta, offset = 0.3, 0.1
    b = bin_density(d, eta, offset)
    for j, p in b.probs.items():
        lo = offset + (j - 0.5) * eta
        hi = lo + eta
        assert p == pytest.approx(cdf(hi) - cdf(lo), abs=1e-12), f"bin {j}"
    assert math.fsum(b.probs.values()) + b.tail_mass == pytest.approx(1.0, abs=1e-11)


def test_heavy_tail_momentum_binning():
    b = bin_density(momentum_density(SquareWell(n=3, length=1.5)), 2.0, 0.0)
    assert math.fsum(b.probs.values()) + b.tail_mass == pytest.approx(1.0, abs=1e-9)
    assert b.tail_mass <= EPS_TAIL
    # symmetric density, symmetric grid
    assert discrete_variance(b) > 0.0
    for j in b.probs:
        if -j in b.probs and b.probs[j] > 1e-12:
            assert b.probs[j] == pytest.approx(b.probs[-j], rel=1e-8)


def _well_anti_mp(n: int, a):
    # the Si/Cin antiderivative of the square-well momentum density in
    # a = n pi/2 - p L/(2 hbar), at the working precision
    npi = n * mpmath.pi
    b = npi - a

    def cin(x):
        return mpmath.euler + mpmath.log(abs(x)) - mpmath.ci(abs(x))

    return (-mpmath.sin(a) ** 2 / a + mpmath.si(2 * a) + mpmath.sin(b) ** 2 / b
            - mpmath.si(2 * b) + (cin(2 * a) - cin(2 * b)) / npi) / (2 * mpmath.pi)


def _well_momentum_mass_mp(s: SquareWell, lo, hi, dps: int = 40) -> float:
    # a dps-digit difference of the antiderivative
    with mpmath.workdps(dps):
        half = mpmath.mpf(s.length) / (2 * mpmath.mpf(s.hbar))
        a_lo, a_hi = (s.n * mpmath.pi / 2 - mpmath.mpf(p) * half for p in (lo, hi))
        return float(_well_anti_mp(s.n, a_lo) - _well_anti_mp(s.n, a_hi))


def _grid_mass_mp(s: SquareWell, r: float, eta: float, j: int, dps: int = 40) -> float:
    # bin j of the exact grid (eta, r): edges r + (j -/+ 1/2) eta, not rounded
    with mpmath.workdps(dps):
        r, eta = mpmath.mpf(r), mpmath.mpf(eta)
        return _well_momentum_mass_mp(s, r + (j - mpmath.mpf(0.5)) * eta,
                                      r + (j + mpmath.mpf(0.5)) * eta, dps)


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(3, 1.5)], ids=["well1", "well3"])
@pytest.mark.parametrize("log_eta", [-1.5, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
                                     2.5, 3.0])
def test_square_well_momentum_far_tail_against_mpmath(state, log_eta):
    # far-tail masses fall below 1e-20; differencing the antiderivative in
    # double precision leaves ~1e-16 per bin, up to 100% of such a mass, so
    # the masses must come from the density itself.  The references are the
    # bins of the exact grid, so rounding an edge or a node counts too.
    eta = 10.0 ** log_eta
    offset = 0.3 * eta
    b = bin_density(momentum_density(state), eta, offset)
    size = b.masses.size
    picks = {*range(5), *range(size - 5, size), *np.linspace(0, size - 1, 20).astype(int).tolist(),
             *np.argsort(b.masses)[:5].tolist()}
    for i in sorted(picks):
        j = b.j_min + i
        ref = _grid_mass_mp(state, offset, eta, j)
        assert abs(b.masses[i] - ref) <= 5e-11 * ref, f"bin {j}: {b.masses[i]!r} vs {ref!r}"


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(3)], ids=["well1", "well3"])
@pytest.mark.parametrize("eta", [0.045, 1.0, 20.0])
def test_square_well_momentum_bins_mirror(state, eta):
    # the density is even, so bin j of the grid (eta, r) carries the mass of
    # bin -j of the grid (eta, -r); the two sides of p = 0 take their seeds
    # from opposite ends of their runs
    d = momentum_density(state)
    b, m = bin_density(d, eta, 0.3 * eta), bin_density(d, eta, -0.3 * eta)
    mirrored, m_lo = m.masses[::-1], -(m.j_min + m.masses.size - 1)  # labels -j from m_lo on
    lo = max(b.j_min, m_lo)
    hi = min(b.j_min + b.masses.size, m_lo + m.masses.size)
    assert hi - lo >= 0.8 * b.masses.size
    ours, theirs = b.masses[lo - b.j_min:hi - b.j_min], mirrored[lo - m_lo:hi - m_lo]
    assert np.all(np.abs(ours - theirs) <= 1e-15 * theirs)


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(2)], ids=["well1", "well2"])
@pytest.mark.parametrize("eta", [0.045, 1.0, 20.0])
@pytest.mark.parametrize("phase", [0.5, 0.3], ids=["edge_at_0", "bin_across_0"])
def test_square_well_momentum_bins_around_zero_against_mpmath(state, eta, phase):
    # an edge exactly at p = 0 (r = eta / 2), or a bin across it, which is
    # split there; for n = 2 the density vanishes at 0, so the bins next to
    # it are small.  The worst is 1.5e-14, at eta = 20
    d = momentum_density(state)
    masses = d.interval_masses(phase * eta, eta, -6, 12)
    for i, mass in enumerate(masses):
        ref = _grid_mass_mp(state, phase * eta, eta, i - 6)
        assert abs(mass - ref) <= 3e-14 * ref, f"bin {i - 6}: {mass!r} vs {ref!r}"


def _count_rules(monkeypatch) -> list:
    """Record (panels, order) of every rule the square-well momentum masses
    take: one per bin width, whatever the number of bins."""
    calls = []
    rule = states_mod._well_rule

    def counting(h):
        calls.append(rule(h))
        return calls[-1]

    monkeypatch.setattr(states_mod, "_well_rule", counting)
    return calls


@pytest.mark.parametrize("panels_per_bin, order, width",
                         [(1, n, limit) for n, limit in _WELL_RULE] + [(2, 10, 8.0), (3, 10, 12.0)])
def test_square_well_rule_entries_at_their_limits(monkeypatch, panels_per_bin, order, width):
    # each entry of the panel rule at its limit width in a, and bins of two
    # and three 4-wide panels, on bins of the exact grid centred on zeros and
    # peaks of sin a.  3.3e-12 is the 4-point rule's own error at 0.125 on a
    # bin centred on a zero.  Nodes formed in p would be rounded to the ulp
    # of a, at a cost of up to 6 |a| eps / h (9.2e-12 here at |a| = 3000);
    # nodes offset from a seed known to eps^2 cost at most 1e-14
    calls = _count_rules(monkeypatch)
    s = SquareWell(1)
    d = momentum_density(s)
    c, half = 0.5 * math.pi, 0.5  # a = c - |p| L / (2 hbar)
    h = width * (1.0 - 1e-9)  # inside the limit
    for big_a in np.geomspace(3.0, 3000.0, 9):
        j = round(big_a / math.pi)
        for a0 in (-j * math.pi, -(j + 0.5) * math.pi):
            r, eta = (c - a0) / half, h / half  # one bin, centred on a0
            mass = d.interval_masses(r, eta, 0, 1)[0]
            ref = _grid_mass_mp(s, r, eta, 0)
            assert abs(mass - ref) <= 3.31e-12 * ref, f"a0={a0}: {mass!r} vs {ref!r}"
    assert calls == [(panels_per_bin, order)]  # one rule, tabulated once for the width


@pytest.mark.parametrize("h, panels_per_bin, order", [
    (0.1, 1, 4), (0.3, 1, 5), (0.5, 1, 6), (1.0, 1, 7), (1.8, 1, 8), (3.0, 1, 10),
    (10.0, 3, 10), (99.9, 25, 10), (32767.0, 8192, 10)])
def test_square_well_masses_make_one_panel_call(monkeypatch, h, panels_per_bin, order):
    # bins no wider than the antiderivative cap take one rule, with the panel
    # count and order of the table, whatever their number
    calls = _count_rules(monkeypatch)
    d = momentum_density(SquareWell(3, 1.5))  # a = 3 pi / 2 - 0.75 |p|
    masses = d.interval_masses(0.1, h / 0.75, -8, 16)
    assert masses.size == 16 and np.all(masses > 0.0)
    assert calls == [(panels_per_bin, order)]


@pytest.mark.parametrize("n", [1, 3, 100, 100_000])
def test_square_well_far_tail_against_mpmath(n):
    # the mass beyond y >= 64 past the peak in a, from 1e-6 down to 1e-300,
    # and across the switch of N from its series to its partial fractions at
    # q = n pi / y = 1/2.  Just past the switch the partial fractions cancel
    # by up to 37 times: the worst there is 6.9e-15, elsewhere 5e-16.  The
    # reference differences the antiderivative, whose terms are O(1), so it
    # takes 3 digits more per decade of y
    ys = np.geomspace(64.0, 1e100, 40)
    ys = np.union1d(ys, [y for y in n * math.pi / np.linspace(0.3, 3.0, 13) if y >= 64.0])
    tails = states_mod._well_far_tail(ys, n * math.pi)
    for y, tail in zip(ys.tolist(), tails.tolist()):
        with mpmath.workdps(30 + 3 * math.ceil(math.log10(y))):
            ref = _well_anti_mp(n, -mpmath.mpf(y)) + mpmath.mpf(0.5)  # anti(-inf) = -1/2
            assert abs(tail - ref) <= 1e-14 * ref, f"y={y!r}: {tail!r} vs {float(ref)!r}"


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(3, 1.5), SquareWell(100)],
                         ids=["well1", "well3", "well100"])
@pytest.mark.parametrize("eta", [1e5, 1e6, 1e8, 1e12])
def test_square_well_momentum_wide_bins_against_mpmath(state, eta):
    # bins over 32768 wide in a take differences of far tails.  The outer
    # masses fall from 4e-11 to 4e-36 as the width grows: a difference of
    # the antiderivative in double precision, of O(1) terms, read them 3.3e-2
    # to 4e19 off, and the reference takes 3 digits more per decade of width
    offset = 0.3 * eta
    b = bin_density(momentum_density(state), eta, offset)
    assert b.masses.size == 3  # the seed trio already holds 1 - EPS_TAIL
    for i, mass in enumerate(b.masses):
        j = b.j_min + i
        ref = _grid_mass_mp(state, offset, eta, j, 40 + 3 * round(math.log10(eta)))
        assert abs(mass - ref) <= 5e-11 * ref, f"bin {j}: {mass!r} vs {ref!r}"


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(41), SquareWell(100)],
                         ids=["well1", "well41", "well100"])
@pytest.mark.parametrize("eta", [1e5, 1e8])
def test_square_well_momentum_wide_bins_near_the_peaks_against_mpmath(state, eta):
    # a wide bin's edge within 64 past a peak in a, at a peak, or between
    # the peaks (n pi / 2 > 64 from n = 41 on) takes the far tail at 64 plus
    # the panels out to it.  The worst is 8.8e-15
    c, half = state.n * math.pi / 2, state.length / (2 * state.hbar)
    d = momentum_density(state)
    for a_edge in (0.0, 0.3 * c, c - 0.5, c, c + 1.0, c + 63.9, c + 64.1):
        r = math.fmod(a_edge / half + 0.5 * eta, eta)
        j = round((a_edge / half - r) / eta + 0.5)  # bin j of the grid (eta, r) starts there
        for i, mass in enumerate(d.interval_masses(r, eta, j - 3, 6)):
            ref = _grid_mass_mp(state, r, eta, j - 3 + i, 40 + 3 * round(math.log10(eta)))
            assert abs(mass - ref) <= 3e-14 * ref, f"edge {a_edge}, bin {j - 3 + i}: {mass!r}"


@pytest.mark.parametrize("n", [20_000, 100_000])
@pytest.mark.parametrize("eta", [1e5, 3e5])
@pytest.mark.parametrize("phase", [0.0, 0.37])
def test_wide_square_well_bins_between_the_peaks_keep_relative_precision(n, eta, phase):
    # wide bins that meet the span between the peaks, |p| < n pi hbar / L,
    # and their neighbours.  Taken as differences of tails near 1/2, the bin
    # around p = 0 (mass 6.6e-7 at n = 1e5, eta = 1e5) read 4.1e-10 off the
    # 60-digit reference and its neighbours up to 5.5e-11; from masses summed
    # outward from p = 0, the worst is 5.9e-14
    s = SquareWell(n)
    b = bin_density(momentum_density(s), eta, phase * eta)
    edges = phase * eta + (b.j_min + np.arange(b.masses.size + 1) - 0.5) * eta
    live = np.flatnonzero((edges[1:] > -n * math.pi) & (edges[:-1] < n * math.pi))  # L = hbar = 1
    for i in range(live[0] - 1, live[-1] + 2):
        ref = _grid_mass_mp(s, phase * eta, eta, b.j_min + i, 60)
        assert abs(b.masses[i] - ref) <= 1e-12 * ref, f"bin {b.j_min + i}: {b.masses[i]!r}"


def test_a_wide_square_well_bin_across_a_peak_keeps_full_precision():
    # bin -3 (mass 1.4e-4) has an edge 20,000 past the peak and one between
    # the peaks; with y = |p| L/(2 hbar) - n pi/2 formed in plain doubles, off
    # by up to an ulp of n pi/2 = 157,080, it read 5.9e-14 off the reference
    s = SquareWell(100_000)
    b = bin_density(momentum_density(s), 1e5, 0.37e5)
    ref = _grid_mass_mp(s, 0.37e5, 1e5, -3, 60)
    assert abs(b.masses[-3 - b.j_min] - ref) <= 1e-15 * ref


def test_wide_square_well_bins_keep_their_values():
    # the bits of bins over 32768 wide in a; the outer two are within 2 ulp
    # of the 55-digit reference (6.949556889388739e-13, 9.950792753784775e-15)
    b = bin_density(momentum_density(SquareWell(3, 1.5)), 1e5, 3e4)
    assert b.j_min == -1
    assert b.masses.tolist() == [6.949556889388741e-13, 0.9999999999992909, 9.950792753784777e-15]


def test_wide_square_well_bins_whose_edges_overflow_in_a():
    # |p| L / (2 hbar) passes the double range at these edges, where the
    # tail is 0; taken as inf, it would make cos 2y NaN after a warning
    d = momentum_density(SquareWell(1, 1.0, 1e-200))
    assert d.interval_masses(0.0, 4e109, -3, 6).tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def test_wide_square_well_bins_at_a_tiny_hbar():
    # L/(2 hbar) = 5e304: a Dekker split of it would overflow and make every
    # mass NaN.  Momentum scales with hbar, so the bins are those at hbar = 1
    b = bin_density(momentum_density(SquareWell(1, 1.0, 1e-305)), 1e-300, 0.3e-300)
    ref = bin_density(momentum_density(SquareWell(1)), 1e5, 0.3e5)
    assert b.j_min == ref.j_min
    assert np.allclose(b.masses, ref.masses, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [position_density(Gaussian()), momentum_density(SquareWell(3, 1.5)),
                               position_density(HermiteGauss(2))], ids=["gauss", "well3_p", "herm2"])
def test_bin_density_reduces_the_offset_modulo_the_width(d):
    # at 1e12 widths the offset's ulp is ~1e-4 of a width: edges formed from
    # it directly moved a unit Gaussian's Shannon entropy by 8.5e-6
    eta = 0.37
    offset = 1e12 * eta + 0.1
    r, k = split_widths(offset, eta)
    far, near = bin_density(d, eta, offset), bin_density(d, eta, r)
    assert far.offset == offset
    assert far.j_min == near.j_min - k
    assert abs(far.center(far.j_min) - near.center(near.j_min)) < 1e-3 * eta
    assert np.array_equal(far.masses, near.masses)
    assert far.tail_mass == near.tail_mass
    assert discrete_variance(far) == discrete_variance(near)
    for alpha in (0.5, 1.0, 1.5, math.inf):
        assert discrete_renyi(far, alpha) == discrete_renyi(near, alpha)


@pytest.mark.parametrize("d", [position_density(Gaussian()), momentum_density(SquareWell(3, 1.5)),
                               position_density(HermiteGauss(2))], ids=["gauss", "well3_p", "herm2"])
def test_reconstruction_places_bins_on_the_reduced_grid(d):
    # centres taken from the raw offset put a unit Gaussian's reconstruction
    # at 1e12 widths 2.8e-6 off, and its mean at -2.3e-6 instead of 4.4e-10
    eta = 0.37
    offset = 1e12 * eta + 0.1
    r = math.fmod(offset, eta)
    g = GhfSpec(t=2.0 * eta ** 2)
    b_near = bin_density(d, eta, r)
    far = ReconstructedPdf(bin_density(d, eta, offset), g)
    near = ReconstructedPdf(b_near, g)
    d_far, d_near = far.density(), near.density()
    lo, hi = d_near.support
    x = np.linspace(lo - eta, hi + eta, 4001)
    assert np.array_equal(far.eval(x), near.eval(x))
    for name in ("support", "discontinuities", "known_mean", "known_var"):
        assert getattr(d_far, name) == getattr(d_near, name), name
    # an offset within one width is its own reduction: centres offset + j eta,
    # and edges offset + (j - 1/2) eta, formed as bin_density forms them; the
    # mean is the heaviest bin's centre plus eta times the mean label
    # difference from it, summed one chunk of bins at a time
    p = b_near.masses
    top = int(np.argmax(p))
    k = np.arange(p.size) - float(top)
    mean_k = 0.0
    for s in range(0, p.size, _CHUNK):
        mean_k += float(np.dot(p[s:s + _CHUNK], k[s:s + _CHUNK]))
    assert d_near.known_mean == r + (b_near.j_min + top) * eta + eta * mean_k
    assert lo == r + (b_near.j_min - 0.5) * eta


def test_bin_density_rejects_offsets_whose_labels_leave_int64():
    # labels shifted by 2^63 widths or more overflowed int64 with a bare
    # OverflowError that named no argument
    d = position_density(Gaussian())
    for offset in (2.0 ** 64 * 0.37, -(2.0 ** 64) * 0.37, 1e308):
        with pytest.raises(ValueError, match="offset"):
            bin_density(d, 0.37, offset)
    # within 2^63 widths it is the labels that decide: 5000 widths below 0
    # they leave the range on one side and stay inside it on the other
    far = position_density(Gaussian(-5000.0))
    with pytest.raises(ValueError, match="offset"):
        bin_density(far, 1.0, 2.0 ** 63 - 2048)
    b = bin_density(far, 1.0, -(2.0 ** 63 - 2048))
    assert b.j_min > 0 and b.j_min + b.masses.size - 1 < 2 ** 63
    # a grid built directly goes through the same check, once, at construction
    with pytest.raises(ValueError, match="offset"):
        BinnedDistribution(width=1e-10, offset=1e300, j_min=0, masses=[1.0])


def test_non_finite_offsets_are_rejected_as_non_finite():
    # bin_density called nan and inf "2^63 or more bin widths" from 0
    d = position_density(Gaussian())
    for offset in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="offset must be finite"):
            bin_density(d, 0.1, offset)
        with pytest.raises(ValueError, match="offset must be finite"):
            BinnedDistribution(width=0.1, offset=offset, j_min=0, masses=[1.0])


@pytest.mark.parametrize("k", [1, 3, 10 ** 6, 2 ** 40 + 7, 2 ** 52])
def test_a_gaussian_is_binned_in_its_own_frame(k):
    # edges formed as r + (j - 1/2) eta - x0 rounded to ulp(x0): at k = 2^52
    # the masses were 0.06 off, and at x0 = 1e14, eta = 0.1 a check read
    # "violated"; on a power-of-two width x0 = k eta is exact
    eta = 0.125
    for offset in (0.0, 0.03):
        for marginal, at in ((position_density, lambda x: Gaussian(x, 0.0, 0.8)),
                             (momentum_density, lambda x: Gaussian(0.0, x, 0.8))):
            near = bin_density(marginal(at(0.0)), eta, offset)
            far = bin_density(marginal(at(k * eta)), eta, offset)
            assert far.j_min == near.j_min + k
            assert np.array_equal(far.masses, near.masses)
            assert far.tail_mass == near.tail_mass


def test_bin_density_trims_empty_bins_at_both_ends():
    # a known_mean off the support seeded the enumeration at bin 0, and its
    # empty seed bin -1, the heaviest of three zeros, was kept with the 20
    # empty bins up to the support
    d = Density1D(eval=lambda x: np.where((x >= 5.0) & (x <= 6.0), 1.0, 0.0),
                  support=(5.0, 6.0), known_mean=0.0)
    b = bin_density(d, 0.25)
    assert b.j_min == 20 and b.masses.size == 5
    assert b.masses[0] > 0.0 and b.masses[-1] > 0.0


def test_bin_centres_do_not_drift_with_the_offset():
    # centres taken from the raw offset, offset + j eta, were 4.7e-5 widths
    # off at 1e12 widths, unlike the reconstruction's
    eta = 0.37
    offset = 1e12 * eta + 0.1
    d = position_density(Gaussian())
    far, near = bin_density(d, eta, offset), bin_density(d, eta, math.fmod(offset, eta))
    shift = near.j_min - far.j_min
    assert far.masses.size > 1 and np.array_equal(far.masses, near.masses)
    for j in range(far.j_min, far.j_min + far.masses.size):
        assert abs(far.center(j) - near.center(j + shift)) <= 1e-12 * eta


def test_labels_far_from_the_origin_are_exact():
    # whole widths counted in floats put j_min 131 labels off at offset
    # -3.21e18 (8675675675675675632), and a Gaussian placed there as far off
    eta = 0.37
    d = position_density(Gaussian())
    for offset in (-3.21e18, 1.2345678e16, -(2.0 ** 62) * eta, 1e18 + 0.1):
        r, k = split_widths(offset, eta)
        far, near = bin_density(d, eta, offset), bin_density(d, eta, r)
        assert far.j_min == near.j_min - k, offset
        assert np.array_equal(far.masses, near.masses) and far.tail_mass == near.tail_mass
    assert bin_density(d, eta, -3.21e18).j_min == 8675675675675675763
    for x0 in (-3.21e18, 1.2345678e16, 1e17 + 16.0):
        r, k = split_widths(x0, eta)
        for marginal, at in ((position_density, lambda x: Gaussian(x0=x)),
                             (momentum_density, lambda x: Gaussian(p0=x, sigma=0.5))):
            far, near = bin_density(marginal(at(x0)), eta), bin_density(marginal(at(r)), eta)
            assert far.j_min == near.j_min + k, (x0, marginal)
            assert np.array_equal(far.masses, near.masses) and far.tail_mass == near.tail_mass


def test_hermite_bins_to_unit_mass_at_the_cap():
    # exp(-xi^2/2) underflows inside the oscillating region of phi_1000, which
    # reaches |xi| = 44.7; the rescaled recurrence keeps the mass there
    for d in (position_density(HermiteGauss(1000)), momentum_density(HermiteGauss(1000, 0.5))):
        b = bin_density(d, 0.1, 0.03)
        assert abs(math.fsum(b.masses.tolist()) + b.tail_mass - 1.0) <= 1e-9


def test_bin_density_rejects_bad_width():
    d = position_density(Gaussian())
    with pytest.raises(ValueError):
        bin_density(d, 0.0, 0.0)
    with pytest.raises(ValueError):
        bin_density(d, -1.0, 0.0)


def test_tail_budget_exceeded_on_power_law():
    cauchy = Density1D(
        eval=lambda x: 1.0 / (math.pi * (1.0 + np.asarray(x, dtype=float) ** 2)),
        support=(-math.inf, math.inf), known_mean=0.0, heavy_tail=True)
    with pytest.raises(TailBudgetExceeded):
        bin_density(cauchy, 1e-3, 0.0)


def test_binning_stalls_on_subnormalized_density():
    half = Density1D(
        eval=lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
        support=(0.0, 1.0))
    with pytest.raises(NonConvergence):
        bin_density(half, 0.25, 0.0)


# ---------------------------------------------------------------------------
# binned container and discrete statistics


def test_binned_distribution_validation():
    good = {"width": 1.0, "offset": 0.0, "j_min": 0, "masses": [0.5, 0.5], "tail_mass": 0.0}
    BinnedDistribution(**good)
    with pytest.raises(ValueError):
        BinnedDistribution(width=0.0, offset=0.0, j_min=0, masses=[1.0], tail_mass=0.0)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[-0.1, 1.1], tail_mass=0.0)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[0.9], tail_mass=0.0)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[1.0 - 2e-8], tail_mass=2e-8)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[], tail_mass=1.0)
    with pytest.raises(ValueError, match=r"^negative tail mass -0\.001$"):
        BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[1.0], tail_mass=-1e-3)


def test_binned_distribution_rejects_j_min_beyond_int64():
    # built directly, a j_min past int64 raised a bare OverflowError from
    # numpy that named no argument
    for j_min, masses in ((2 ** 63, [1.0]), (-(2 ** 63) - 1, [1.0]), (2 ** 63 - 1, [0.5, 0.5])):
        with pytest.raises(ValueError, match="j_min"):
            BinnedDistribution(width=1.0, offset=0.0, j_min=j_min, masses=masses)
    for j_min in (2 ** 63 - 1, -(2 ** 63)):
        b = BinnedDistribution(width=1.0, offset=0.0, j_min=j_min, masses=[1.0])
        assert b.j_min == j_min and b.masses.tolist() == [1.0]


def test_discrete_variance_two_point():
    b = BinnedDistribution(width=2.0, offset=0.5, j_min=-1, masses=[0.25, 0.0, 0.0, 0.0, 0.75])
    # centers -1.5 and 6.5; var = p q (gap)^2
    assert discrete_variance(b) == pytest.approx(0.25 * 0.75 * 8.0 ** 2, rel=1e-14)


def test_discrete_renyi_uniform_and_ordering():
    m = 7
    b = BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[1.0 / m] * m)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert discrete_renyi(b, alpha) == pytest.approx(math.log(m), rel=1e-13)
    skew = BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=[0.7, 0.2, 0.1])
    hs = [discrete_renyi(skew, a) for a in (0.5, 0.9, 1.0, 1.5, math.inf)]
    assert all(b2 <= a2 + 1e-14 for a2, b2 in zip(hs, hs[1:]))


def test_discrete_variance_does_not_drift_with_the_location():
    # the mean was taken on the bin centres, whose masses sum to 1 - tail, so
    # the variance gained about (x0 tail)^2: 0.5014851 at x0 = 1e10, 0.5008333 at 0
    def var_at(x0):
        return discrete_variance(bin_density(
            position_density(Gaussian(x0=x0, sigma=1.0 / math.sqrt(2.0))), 0.1))

    ref = var_at(0.0)
    for x0 in (1e8, 1e10):
        assert var_at(x0) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_discrete_statistics_are_computed_once_per_order(monkeypatch):
    b = bin_density(momentum_density(SquareWell(3, 1.5)), 0.2, 0.05)
    fresh = BinnedDistribution(width=b.width, offset=b.offset, j_min=b.j_min,
                               masses=b.masses.copy(), tail_mass=b.tail_mass)
    reads = []

    class CountedMasses:
        """Data descriptor standing in for the masses field: it counts the
        reads of b's storage and passes every other instance through."""

        def __get__(self, obj, owner=None):
            if obj is b:
                reads.append(1)
            return obj.__dict__["masses"]

        def __set__(self, obj, value):
            obj.__dict__["masses"] = value

    monkeypatch.setattr(BinnedDistribution, "masses", CountedMasses(), raising=False)
    v = discrete_variance(b)
    assert discrete_variance(b) is v and v == discrete_variance(fresh)
    h = {alpha: discrete_renyi(b, alpha) for alpha in (0.75, 1.5, 1.0, math.inf)}
    assert len(set(h.values())) == 4  # orders do not share an entry
    for alpha, value in h.items():
        assert discrete_renyi(b, alpha) is value
        assert value == discrete_renyi(fresh, alpha)
    assert discrete_renyi(b, 1) is h[1.0] and discrete_renyi(b, np.float64(0.75)) is h[0.75]
    assert len(reads) == 5  # one read of the storage per statistic and order
    with pytest.raises(DomainError):
        discrete_renyi(b, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=300),
       alpha=st.sampled_from((0.5, 0.75, 1.5, 2.0, 3.0)), ties=st.integers(0, 3))
def test_logsumexp_is_scipys_bit_for_bit(p, alpha, ties):
    # the Renyi entropies of one chunk of bins keep their bits without scipy.special
    from scipy.special import logsumexp

    p = np.array(p + [max(p)] * ties)
    assert _renyi(p, alpha, int(np.argmax(p))) == float(logsumexp(alpha * np.log(p))) / (1.0 - alpha) + 0.0


def test_discrete_renyi_degenerate_and_domain():
    one = BinnedDistribution(width=1.0, offset=0.0, j_min=5, masses=[1.0])
    for alpha in (0.5, 1.0, math.inf):
        h = discrete_renyi(one, alpha)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    with pytest.raises(DomainError):
        discrete_renyi(one, 0.0)
    with pytest.raises(DomainError):
        discrete_renyi(one, -2.0)


# ---------------------------------------------------------------------------
# histogram profiles


def test_ghf_spec_validation():
    # the profile is its shape alone: the width is the binning's
    assert [f.name for f in dataclasses.fields(GhfSpec)] == ["t"]
    assert GhfSpec() == GhfSpec(t=0.0) and GhfSpec().t == 0.0
    # a positional value was the width of the two-field profile
    with pytest.raises(TypeError):
        GhfSpec(0.4)
    # the profile exp(-t u^2/eta^2) is edge-heavy for t < 0, which the
    # variance relation's optimum never is
    for t in (-1e-3, -3000.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^shape t must be nonnegative and finite"):
            GhfSpec(t=t)
    # the only cap is on t staying finite
    assert GhfSpec(t=1e308).t == 1e308


def test_widths_whose_square_overflows_are_refused_by_name():
    BinnedDistribution(width=MAX_WIDTH, offset=0.0, j_min=0, masses=[1.0])
    for w in (math.nextafter(MAX_WIDTH, math.inf), 1e200):
        with pytest.raises(ValueError, match=r"^width must be positive with a finite square"):
            BinnedDistribution(width=w, offset=0.0, j_min=0, masses=[1.0])
    # a profile's variance and entropy take the width from the caller, and
    # refuse by name the widths that the two-field profile refused
    g = GhfSpec()
    assert math.isfinite(ghf_variance(g, MAX_WIDTH)) and math.isfinite(ghf_entropy(g, MAX_WIDTH))
    for w in (math.nextafter(MAX_WIDTH, math.inf), 1e200, math.inf, 0.0, -1.0, math.nan):
        for f in (ghf_variance, ghf_entropy):
            with pytest.raises(ValueError, match=r"^eta must be positive with a finite square"):
                f(g, w)


def test_ghf_variance_entropy_flat():
    g = GhfSpec()
    assert ghf_variance(g, 0.4) == pytest.approx(0.4 ** 2 / 12.0, rel=1e-15)
    assert ghf_entropy(g, 0.4) == pytest.approx(math.log(0.4), rel=1e-15)


def test_ghf_small_shape_matches_flat():
    g = GhfSpec(t=1e-9)
    assert ghf_variance(g, 1.0) == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert ghf_entropy(g, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_ghf_variance_monotone_and_bounded():
    for eta in (1.0, 0.3):
        avals = np.linspace(0.0, 50.0, 51)
        vs = [ghf_variance(GhfSpec(t=float(a) * eta ** 2), eta) for a in avals]
        assert all(0.0 < v < eta ** 2 / 4.0 for v in vs)
        assert all(v2 < v1 for v1, v2 in zip(vs, vs[1:]))
        hs = [ghf_entropy(GhfSpec(t=float(a) * eta ** 2), eta) for a in avals]
        assert all(h <= math.log(eta) + 1e-15 for h in hs)


def test_ghf_against_direct_quadrature():
    for eta, a in ((1.0, 4.0), (2.0, 0.3)):
        g = GhfSpec(t=a * eta ** 2)
        b = BinnedDistribution(width=eta, offset=0.0, j_min=0, masses=[1.0])
        w = ReconstructedPdf(b, g)
        mass = quad(lambda x: float(w.eval(x)), -eta / 2.0, eta / 2.0)
        m1 = quad(lambda x: x * float(w.eval(x)), -eta / 2.0, eta / 2.0)
        m2 = quad(lambda x: x * x * float(w.eval(x)), -eta / 2.0, eta / 2.0)
        ent = quad(
            lambda x: -float(w.eval(x)) * math.log(float(w.eval(x))), -eta / 2.0, eta / 2.0)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert m1 == pytest.approx(0.0, abs=1e-12)  # centroid at the bin center
        assert m2 == pytest.approx(ghf_variance(g, eta), rel=1e-9)
        assert ent == pytest.approx(ghf_entropy(g, eta), abs=1e-9)


# ---------------------------------------------------------------------------
# reconstruction and decomposition


def test_profile_at_the_top_of_the_double_range_is_finite():
    # t above 2500 was refused; far out the profile is a Gaussian of
    # variance eta^2/(2t) and entropy ln(eta) + ln(pi e/t)/2
    for eta, a in ((1.0, 1e300), (10.0, 1e305)):
        g = GhfSpec(t=a * eta ** 2)
        var, ent = ghf_variance(g, eta), ghf_entropy(g, eta)
        assert var == pytest.approx(eta ** 2 / (2.0 * g.t), rel=1e-15)
        assert ent == pytest.approx(math.log(eta) + 0.5 * math.log(math.pi * math.e / g.t),
                                    rel=1e-15)


@pytest.mark.parametrize("x0", [0.0, 1e14, 2e15, -2e15])
def test_reconstruction_far_from_the_origin_reads_each_bin_at_its_centre(x0):
    # past about 2^52 widths the float label floor((x - r)/width + 1/2) put 17
    # of the 35 centres at 2e15 in a neighbouring bin, 0.030 off a largest
    # mass of 0.145; each double centre's exact label is its bin's
    b = bin_density(position_density(Gaussian(x0=x0)), 0.37)
    centres = np.array([b.center(b.j_min + i) for i in range(b.masses.size)])
    assert centres.size == 35
    assert np.array_equal(ReconstructedPdf(b, GhfSpec()).eval(centres), b.masses / 0.37)


@pytest.mark.parametrize("x0, offset", [(0.0, 0.1), (1e14, 0.0), (3e17, -0.2)])
def test_reconstruction_finds_the_exact_bin_at_and_beside_every_edge(x0, offset):
    # edges formed as bin_density forms them, and their neighbouring doubles,
    # are labelled by exact rational arithmetic; the float label put 21 of
    # these points at x0 = 0 in the wrong bin
    eta = 0.37
    b = bin_density(position_density(Gaussian(x0=x0)), eta, offset)
    r, shift = b._reduced
    edges = grid_edges(r, eta, b.j_min + shift, b.masses.size)
    x = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                        np.linspace(edges[0] - eta, edges[-1] + eta, 2001)])
    labels = [math.floor((Fraction(v) - Fraction(r)) / Fraction(eta) + Fraction(1, 2))
              - (b.j_min + shift) for v in x.tolist()]
    want = [b.masses[i] / eta if 0 <= i < b.masses.size else 0.0 for i in labels]
    assert np.array_equal(ReconstructedPdf(b, GhfSpec()).eval(x), want)


def test_reconstruction_reads_0_far_outside_the_binned_range():
    # the bin label of 1e200 left int64 with an invalid-cast warning, and
    # from 1e300 on, and at +-inf, the reconstruction read NaN
    w = ReconstructedPdf(bin_density(position_density(Gaussian()), 0.5), GhfSpec(t=1.0))
    far = [1e200, 1e300, 1.7e308, math.inf, -1e200, -1.7e308, -math.inf]
    for x in far:
        assert w.eval(x) == 0.0
    assert math.isnan(w.eval(math.nan))
    inside = np.linspace(-12.0, 12.0, 2001)
    got = w.eval(np.concatenate([inside, far, [math.nan]]))
    assert np.array_equal(got[:inside.size], w.eval(inside))
    assert [w.eval(x) for x in inside[::100]] == got[:inside.size:100].tolist()
    assert got[inside.size:-1].tolist() == [0.0] * len(far) and math.isnan(got[-1])


def test_reconstruction_normalized_and_confined():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    for g in (GhfSpec(), GhfSpec(t=5.0)):
        w = ReconstructedPdf(b, g)
        d = w.density()
        lo, hi = d.support
        # the profile jumps at every bin edge, so integrate bin by bin
        cuts = np.array([lo] + sorted(d.discontinuities) + [hi])
        mass = float(np.sum(gauss_legendre_panels(w.eval, cuts[:-1], cuts[1:], 24)))
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert float(w.eval(lo - 1.0)) == 0.0
        assert float(w.eval(hi + 1.0)) == 0.0


@pytest.mark.parametrize("state", [Gaussian(0.3, 0.0, 0.8), HermiteGauss(4), SquareWell(3, 1.5),
                                   Mixture(((0.6, Gaussian(-1.0)), (0.4, Gaussian(2.0, 0.5, 1.5))))])
def test_reconstruction_binned_on_its_own_grid_gives_back_its_masses(state):
    # the reconstruction has no closed-form masses, so this is the panel
    # route: its cuts are the grid's edges, bit for bit, and each bin's
    # profile integrates to 1.  A narrow profile (a = 50) settles on a 32-point
    # value up to 1.7e-15 off, inside the rule's own 1e-12 relative bound.
    for eta, offset in ((0.37, 0.11), (1.3, -0.4), (0.01, 0.0), (0.1, 1e6 + 0.03)):
        b = bin_density(position_density(state), eta, offset)
        for a, tol in ((0.0, 1e-15), (4.0, 1e-15), (50.0, 4e-15)):
            d = ReconstructedPdf(b, GhfSpec(t=a * eta ** 2)).density()
            assert d.interval_masses is None
            again = bin_density(d, eta, offset)
            assert again.j_min == b.j_min and again.masses.size == b.masses.size
            assert np.max(np.abs(again.masses - b.masses)) <= tol, (eta, offset, a)


def test_decomposition_identities_against_quadrature():
    rng = np.random.default_rng(1234)
    states = [Gaussian(), Gaussian(x0=0.7, sigma=0.5), SquareWell(n=2, length=1.5),
              Mixture(components=((0.6, Gaussian(x0=-1.0)),
                                  (0.4, Gaussian(x0=2.0, sigma=1.5))))]
    for _ in range(6):
        s = states[int(rng.integers(len(states)))]
        eta = float(rng.uniform(0.3, 2.0))
        offset = float(rng.uniform(0.0, eta))
        a = float(rng.uniform(0.0, 8.0))
        b = bin_density(position_density(s), eta, offset)
        g = GhfSpec(t=a * eta ** 2)
        var_dec, ent_dec = decompose_stats(b, g)
        d = ReconstructedPdf(b, g).density()
        assert variance(d) == pytest.approx(var_dec, abs=1e-8)
        assert renyi_entropy_cont(d, 1.0) == pytest.approx(ent_dec, abs=1e-8)


def test_reconstruction_entropy_variance_inequality():
    # any density obeys H <= (1/2) ln(2 pi e var); reconstructions included
    rng = np.random.default_rng(99)
    d = position_density(Gaussian())
    for _ in range(8):
        eta = float(rng.uniform(0.2, 5.0))
        offset = float(rng.uniform(0.0, eta))
        a = float(rng.uniform(0.0, 20.0))
        b = bin_density(d, eta, offset)
        g = GhfSpec(t=a * eta ** 2)
        var_w, ent_w = decompose_stats(b, g)
        assert 0.5 * math.log(2.0 * math.pi * math.e * var_w) >= ent_w - 1e-9


# ---------------------------------------------------------------------------
# sampling


def test_sample_counts_deterministic():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    s1 = sample_counts(b, 50_000, seed=7)
    s2 = sample_counts(b, 50_000, seed=7)
    assert np.array_equal(s1, s2)
    s3 = sample_counts(b, 50_000, seed=8)
    assert not np.array_equal(s3, s1)


def test_sample_counts_match_exact_within_binomial_noise():
    n = 200_000
    d = position_density(Gaussian())
    exact = bin_density(d, 1.0, 0.0)
    counts = sample_counts(exact, n, seed=2024)
    for i, (p, c) in enumerate(zip(exact.masses, counts)):
        if p < 1e-6:
            continue
        sd = math.sqrt(p * (1.0 - p) / n)
        assert abs(c / n - p) <= 5.0 * sd, f"bin {exact.j_min + i}"


def test_sample_counts_finite_support_and_degenerate():
    b = bin_density(position_density(SquareWell(n=1, length=1.0)), 1.0, 0.5)
    assert b.j_min == 0 and b.masses.size == 1
    one = sample_counts(b, 1, seed=0)
    assert one.dtype == np.int64 and one.tolist() == [1]
    with pytest.raises(ValueError):
        sample_counts(b, 0, seed=0)
    # the draw count's range ends at the int64 maximum
    assert sample_counts(b, np.int64(3), seed=0).tolist() == [3]
    assert sample_counts(b, 2 ** 63 - 1, seed=0).tolist() == [2 ** 63 - 1]


@pytest.mark.parametrize("n", [1.5, 0, -3, 2 ** 63, 10 ** 20, "100"])
def test_sample_counts_refuse_a_draw_count_by_name(n):
    # numpy truncated 1.5 to one draw, which then failed the normalization
    # check, and 10^20 raised a bare OverflowError
    b = bin_density(position_density(Gaussian()), 0.5)
    with pytest.raises(ValueError, match=re.escape(
            f"n must be an integer in [1, 2^63 - 1], got n={n!r}")):
        sample_counts(b, n, seed=1)


def test_sample_counts_unbiased_on_square_well_momentum_tail():
    # heavy-tailed marginal at a fine bin: with exact draws the per-bin
    # z^2 = (observed - expected)^2 / expected averages 1 over the bins
    # expecting at least 5 counts
    n = 4_000_000
    b = bin_density(momentum_density(SquareWell(n=3)), 0.03, 0.0)
    observed = sample_counts(b, n, seed=1)
    expected = n * b.masses
    core = expected >= 5.0
    k = int(core.sum())
    z2_mean = float(np.mean((observed[core] - expected[core]) ** 2 / expected[core]))
    assert abs(z2_mean - 1.0) <= 5.0 * math.sqrt(2.0 / k), f"z2 mean {z2_mean} over {k} bins"


def test_sample_counts_draw_only_exact_bins_with_mass():
    binnings = [
        BinnedDistribution(width=0.5, offset=0.1, j_min=-3, masses=[0.2, 0.0, 0.3, 0.0, 0.0, 0.5]),
        bin_density(momentum_density(SquareWell(n=2)), 0.3, 0.05),
    ]
    for b in binnings:
        for seed in range(3):
            counts = sample_counts(b, 10_000, seed=seed)
            assert counts.shape == b.masses.shape and counts.sum() == 10_000
            assert not counts[b.masses == 0.0].any()


def test_an_offset_is_refused_on_the_kept_labels_alone():
    # the enumeration's last blocks end in empty bins past 2^63 - 1, which the
    # constructor trims: counting them refused a binning whose kept labels end
    # at 2^63 - 2, and that BinnedDistribution itself accepts
    d = position_density(Gaussian(2 ** 53 - 15, 0.0, 0.35))
    here = bin_density(d, 1.0)
    shifted = bin_density(d, 1.0, -(2 ** 63 - 2 ** 53))
    assert shifted.j_min - here.j_min == 2 ** 63 - 2 ** 53
    assert shifted.j_min + shifted.masses.size - 1 == 2 ** 63 - 2
    assert np.array_equal(shifted.masses, here.masses) and shifted.tail_mass == here.tail_mass
    # 2048 widths further the kept labels leave the range, and the one check names the offset
    with pytest.raises(ValueError, match=r"^j_min = \d+ puts the labels of \d+ bins at offset "
                                         r"-9\.21436483760003\de\+18 and width 1\.0 beyond"):
        bin_density(d, 1.0, -(2 ** 63 - 2 ** 53 + 2048))


def test_bin_density_refuses_a_width_before_computing_a_bin(monkeypatch):
    # 1e200 took one kernel call before the constructor refused it
    from cg_uncert import coarse
    calls = []
    block = coarse._clean_block_masses
    monkeypatch.setattr(coarse, "_clean_block_masses", lambda *a: calls.append(a) or block(*a))
    d = position_density(Gaussian())
    for w in (1e200, math.nextafter(MAX_WIDTH, math.inf), math.inf, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"^width must be positive with a finite square"):
            bin_density(d, w)
    assert calls == []
    assert bin_density(d, MAX_WIDTH).masses.tolist() == [1.0] and len(calls) == 1


def test_a_binning_keeps_its_width_and_offset_as_floats():
    d = position_density(Gaussian())
    for b in (bin_density(d, np.float64(8.0), np.float64(0.25)),
              BinnedDistribution(width=np.float64(2.0), offset=np.int64(1), j_min=0, masses=[1.0]),
              BinnedDistribution(width=2, offset=1, j_min=0, masses=[1.0])):
        assert type(b.width) is float and type(b.offset) is float
        assert type(discrete_variance(b)) is float and type(b.center(b.j_min)) is float
