import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cg_uncert.coarse import (
    EPS_TAIL,
    BinnedDistribution,
    GhfSpec,
    ReconstructedPdf,
    TailBudgetExceeded,
    WidthMismatch,
    bin_density,
    decompose_stats,
    discrete_renyi,
    discrete_variance,
    ghf_entropy,
    ghf_variance,
    sample_counts,
)
from cg_uncert.coarse import _logsumexp
from cg_uncert.numerics import DomainError, NonConvergence, gauss_legendre_panels, integrate
from cg_uncert import states as states_mod
from cg_uncert.states import (
    Density1D,
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    momentum_density,
    position_density,
    renyi_entropy_cont,
    variance,
)
from cg_uncert.states import _WELL_RULE


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


def _well_momentum_mass_mp(s: SquareWell, lo: float, hi: float) -> float:
    # 40-digit difference of the Si/Cin antiderivative in a = n pi/2 - p L/(2 hbar)
    with mpmath.workdps(40):
        npi = s.n * mpmath.pi

        def cin(x):
            return mpmath.euler + mpmath.log(abs(x)) - mpmath.ci(abs(x))

        def anti(p):
            a = npi / 2 - mpmath.mpf(p) * mpmath.mpf(s.length) / (2 * mpmath.mpf(s.hbar))
            b = npi - a
            return (-mpmath.sin(a) ** 2 / a + mpmath.si(2 * a) + mpmath.sin(b) ** 2 / b
                    - mpmath.si(2 * b) + (cin(2 * a) - cin(2 * b)) / npi) / (2 * mpmath.pi)

        return float(anti(lo) - anti(hi))


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(3, 1.5)], ids=["well1", "well3"])
@pytest.mark.parametrize("log_eta", [-1.5, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
                                     2.5, 3.0])
def test_square_well_momentum_far_tail_against_mpmath(state, log_eta):
    # far-tail masses fall below 1e-20; differencing the antiderivative in
    # double precision leaves ~1e-16 per bin, up to 100% of such a mass, so
    # the masses must come from the density itself
    eta = 10.0 ** log_eta
    offset = 0.3 * eta
    b = bin_density(momentum_density(state), eta, offset)
    size = b.masses.size
    picks = {*range(5), *range(size - 5, size), *np.linspace(0, size - 1, 20).astype(int).tolist(),
             *np.argsort(b.masses)[:5].tolist()}
    for i in sorted(picks):
        j = b.j_min + i
        ref = _well_momentum_mass_mp(state, offset + (j - 0.5) * eta, offset + (j + 0.5) * eta)
        assert abs(b.masses[i] - ref) <= 5e-11 * ref, f"bin {j}: {b.masses[i]!r} vs {ref!r}"


def _count_panel_calls(monkeypatch) -> list:
    """Record (panels, order) of every Gauss-Legendre call the square-well
    momentum masses make."""
    calls = []
    panels = states_mod.gauss_legendre_panels

    def counting(f_vec, lo, hi, order):
        calls.append((np.size(lo), order))
        return panels(f_vec, lo, hi, order)

    monkeypatch.setattr(states_mod, "gauss_legendre_panels", counting)
    return calls


@pytest.mark.parametrize("panels_per_bin, order, width",
                         [(1, n, limit) for n, limit in _WELL_RULE] + [(2, 10, 8.0), (3, 10, 12.0)])
def test_square_well_rule_entries_at_their_limits(monkeypatch, panels_per_bin, order, width):
    # each entry of the panel rule at its limit width in a, and bins of two
    # and three 4-wide panels, on bins centred on zeros and peaks of sin a.
    # 3.3e-12 is the 4-point rule's own error at 0.125 on a bin centred on a
    # zero.  The second term bounds what rounding the nodes to the ulp of a,
    # |a| eps, does to such a bin, whose density grows like (a - a0)^2: up to
    # 6 |a| eps / h relative (with it the 4-point rule reaches 6.9e-12 at
    # |a| = 1266)
    calls = _count_panel_calls(monkeypatch)
    s = SquareWell(1)
    d = momentum_density(s)
    c, half = 0.5 * math.pi, 0.5  # a = c - |p| L / (2 hbar)
    h = width * (1.0 - 1e-9)  # inside the limit after the edges round
    for big_a in np.geomspace(3.0, 3000.0, 9):
        j = round(big_a / math.pi)
        for a0 in (-j * math.pi, -(j + 0.5) * math.pi):
            lo, hi = (c - a0 - 0.5 * h) / half, (c - a0 + 0.5 * h) / half
            mass = d.interval_masses(np.array([lo, hi]))[0]
            ref = _well_momentum_mass_mp(s, lo, hi)
            ceiling = 3.3e-12 + 6.0 * abs(a0) * sys.float_info.epsilon / h
            assert abs(mass - ref) <= ceiling * ref, f"a0={a0}: {mass!r} vs {ref!r}"
    assert calls == [(panels_per_bin, order)] * 18  # one call per bin


@pytest.mark.parametrize("h, panels_per_bin, order", [
    (0.1, 1, 4), (0.3, 1, 5), (0.5, 1, 6), (1.0, 1, 7), (1.8, 1, 8), (3.0, 1, 10),
    (10.0, 3, 10), (99.9, 25, 10), (32767.0, 8192, 10)])
def test_square_well_masses_make_one_panel_call(monkeypatch, h, panels_per_bin, order):
    # bins no wider than the antiderivative cap take one Gauss-Legendre call
    # with the panel count and order of the table, whatever their number
    calls = _count_panel_calls(monkeypatch)
    d = momentum_density(SquareWell(3, 1.5))  # a = 3 pi / 2 - 0.75 |p|
    edges = 0.1 + np.arange(-8, 9) * (h / 0.75)
    masses = d.interval_masses(edges)
    assert masses.size == 16 and np.all(masses > 0.0)
    assert calls == [(16 * panels_per_bin, order)]


@pytest.mark.parametrize("state", [SquareWell(1), SquareWell(3, 1.5)], ids=["well1", "well3"])
@pytest.mark.parametrize("eta", [1e5, 1e6])
def test_square_well_momentum_wide_bins_against_mpmath(state, eta):
    # bins over 32768 wide in a take the antiderivative, which is precise in
    # absolute terms only; the outer bins' masses are 1e-12 and below
    offset = 0.3 * eta
    b = bin_density(momentum_density(state), eta, offset)
    for i, mass in enumerate(b.masses):
        j = b.j_min + i
        ref = _well_momentum_mass_mp(state, offset + (j - 0.5) * eta, offset + (j + 0.5) * eta)
        assert abs(mass - ref) <= 1e-15, f"bin {j}: {mass!r} vs {ref!r}"


def test_wide_square_well_bins_keep_their_values():
    # bins over 32768 wide in a are the only use of sici, which loads
    # scipy.special on first use
    b = bin_density(momentum_density(SquareWell(3, 1.5)), 1e5, 3e4)
    assert b.j_min == -1
    assert b.masses.tolist() == [6.948330799616542e-13, 0.999999999999291, 9.936496070395151e-15]


@pytest.mark.parametrize("d", [position_density(Gaussian()), momentum_density(SquareWell(3, 1.5)),
                               position_density(HermiteGauss(2))], ids=["gauss", "well3_p", "herm2"])
def test_bin_density_reduces_the_offset_modulo_the_width(d):
    # at 1e12 widths the offset's ulp is ~1e-4 of a width: edges formed from
    # it directly moved a unit Gaussian's Shannon entropy by 8.5e-6
    eta = 0.37
    offset = 1e12 * eta + 0.1
    r = math.fmod(offset, eta)
    far, near = bin_density(d, eta, offset), bin_density(d, eta, r)
    assert far.offset == offset
    assert far.j_min == near.j_min - round((offset - r) / eta)
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
    g = GhfSpec(eta, 2.0)
    b_near = bin_density(d, eta, r)
    far = ReconstructedPdf(bin_density(d, eta, offset), g)
    near = ReconstructedPdf(b_near, g)
    d_far, d_near = far.density(), near.density()
    lo, hi = d_near.support
    x = np.linspace(lo - eta, hi + eta, 4001)
    assert np.array_equal(far.eval(x), near.eval(x))
    for name in ("support", "discontinuities", "known_mean", "known_m2"):
        assert getattr(d_far, name) == getattr(d_near, name), name
    # an offset within one width is its own reduction: centres offset + j eta
    assert d_near.known_mean == float(np.dot(b_near.masses, r + b_near.arrays()[0] * eta))
    assert lo == b_near.center(b_near.j_min) - 0.5 * eta


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
    assert b.j_min > 0 and b.arrays()[0][-1] == b.j_min + b.masses.size - 1
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


def test_bin_centres_do_not_drift_with_the_offset():
    # centres taken from the raw offset, offset + j eta, were 4.7e-5 widths
    # off at 1e12 widths, unlike the reconstruction's
    eta = 0.37
    offset = 1e12 * eta + 0.1
    d = position_density(Gaussian())
    far, near = bin_density(d, eta, offset), bin_density(d, eta, math.fmod(offset, eta))
    shift = near.j_min - far.j_min
    assert far.masses.size > 1 and np.array_equal(far.masses, near.masses)
    for j in far.arrays()[0].tolist():
        assert abs(far.center(j) - near.center(j + shift)) <= 1e-12 * eta


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


def test_binned_distribution_rejects_j_min_beyond_int64():
    # built directly, a j_min past int64 raised a bare OverflowError from
    # numpy that named no argument
    for j_min, masses in ((2 ** 63, [1.0]), (-(2 ** 63) - 1, [1.0]), (2 ** 63 - 1, [0.5, 0.5])):
        with pytest.raises(ValueError, match="j_min"):
            BinnedDistribution(width=1.0, offset=0.0, j_min=j_min, masses=masses)
    for j_min in (2 ** 63 - 1, -(2 ** 63)):
        b = BinnedDistribution(width=1.0, offset=0.0, j_min=j_min, masses=[1.0])
        assert b.arrays()[0].tolist() == [j_min]


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


def test_discrete_statistics_are_computed_once_per_order():
    b = bin_density(momentum_density(SquareWell(3, 1.5)), 0.2, 0.05)
    fresh = BinnedDistribution(width=b.width, offset=b.offset, j_min=b.j_min,
                               masses=b.masses.copy(), tail_mass=b.tail_mass)
    calls = []
    arrays = b.arrays
    object.__setattr__(b, "arrays", lambda: calls.append(1) or arrays())
    v = discrete_variance(b)
    assert discrete_variance(b) is v and v == discrete_variance(fresh)
    h = {alpha: discrete_renyi(b, alpha) for alpha in (0.75, 1.5, 1.0, math.inf)}
    assert len(set(h.values())) == 4  # orders do not share an entry
    for alpha, value in h.items():
        assert discrete_renyi(b, alpha) is value
        assert value == discrete_renyi(fresh, alpha)
    assert discrete_renyi(b, 1) is h[1.0] and discrete_renyi(b, np.float64(0.75)) is h[0.75]
    assert len(calls) == 5  # one read of the storage per statistic and order
    with pytest.raises(DomainError):
        discrete_renyi(b, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=300),
       alpha=st.sampled_from((0.5, 0.75, 1.5, 2.0, 3.0)), ties=st.integers(0, 3))
def test_logsumexp_is_scipys_bit_for_bit(p, alpha, ties):
    # the Renyi entropies keep their bits without scipy.special
    from scipy.special import logsumexp

    a = alpha * np.log(np.array(p + [max(p)] * ties))
    assert _logsumexp(a) == float(logsumexp(a))


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
    assert [f.name for f in dataclasses.fields(GhfSpec)] == ["eta", "a"]
    assert GhfSpec(0.4) == GhfSpec(0.4, 0.0) and GhfSpec(0.4).t == 0.0
    for eta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            GhfSpec(eta)
    # the profile exp(-a u^2/eta^2) is edge-heavy for a < 0, which the
    # variance relation's optimum never is
    for a in (math.inf, math.nan, -3000.0, -1e-3):
        with pytest.raises(ValueError, match=r"shape parameter a must be nonnegative"):
            GhfSpec(1.0, a)
    # the only cap is on a * eta^2 staying finite, not on a alone
    GhfSpec(1.0, 3000.0)
    GhfSpec(0.1, a=100000.0)
    with pytest.raises(ValueError, match=r"got a = 1e\+308 at eta = 2.0"):
        GhfSpec(2.0, 1e308)


def test_ghf_variance_entropy_flat():
    g = GhfSpec(0.4)
    assert ghf_variance(g) == pytest.approx(0.4 ** 2 / 12.0, rel=1e-15)
    assert ghf_entropy(g) == pytest.approx(math.log(0.4), rel=1e-15)


def test_ghf_small_shape_matches_flat():
    g = GhfSpec(1.0, 1e-9)
    assert ghf_variance(g) == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert ghf_entropy(g) == pytest.approx(0.0, abs=1e-10)


def test_ghf_variance_monotone_and_bounded():
    for eta in (1.0, 0.3):
        avals = np.linspace(0.0, 50.0, 51)
        vs = [ghf_variance(GhfSpec(eta, float(a))) for a in avals]
        assert all(0.0 < v < eta ** 2 / 4.0 for v in vs)
        assert all(v2 < v1 for v1, v2 in zip(vs, vs[1:]))
        hs = [ghf_entropy(GhfSpec(eta, float(a))) for a in avals]
        assert all(h <= math.log(eta) + 1e-15 for h in hs)


def test_ghf_against_direct_quadrature():
    for eta, a in ((1.0, 4.0), (2.0, 0.3)):
        g = GhfSpec(eta, a)
        b = BinnedDistribution(width=eta, offset=0.0, j_min=0, masses=[1.0])
        w = ReconstructedPdf(b, g)
        mass = integrate(lambda x: float(w.eval(x)), -eta / 2.0, eta / 2.0)
        m1 = integrate(lambda x: x * float(w.eval(x)), -eta / 2.0, eta / 2.0)
        m2 = integrate(lambda x: x * x * float(w.eval(x)), -eta / 2.0, eta / 2.0)
        ent = integrate(
            lambda x: -float(w.eval(x)) * math.log(float(w.eval(x))), -eta / 2.0, eta / 2.0)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert m1 == pytest.approx(0.0, abs=1e-12)  # centroid at the bin center
        assert m2 == pytest.approx(ghf_variance(g), rel=1e-9)
        assert ent == pytest.approx(ghf_entropy(g), abs=1e-9)


# ---------------------------------------------------------------------------
# reconstruction and decomposition


def test_profile_at_the_top_of_the_double_range_is_finite():
    # a eta^2 above 2500 was refused; far out the profile is a Gaussian of
    # variance eta^2/(2t) and entropy ln(eta) + ln(pi e/t)/2, t = a eta^2
    for eta, a in ((1.0, 1e300), (10.0, 1e305)):
        g = GhfSpec(eta, a)
        var, ent = ghf_variance(g), ghf_entropy(g)
        assert var == pytest.approx(eta ** 2 / (2.0 * g.t), rel=1e-15)
        assert ent == pytest.approx(math.log(eta) + 0.5 * math.log(math.pi * math.e / g.t),
                                    rel=1e-15)


def test_reconstruct_requires_matching_width():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    with pytest.raises(WidthMismatch):
        ReconstructedPdf(b, GhfSpec(0.5))
    with pytest.raises(WidthMismatch):
        decompose_stats(b, GhfSpec(0.5))


def test_reconstruction_normalized_and_confined():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    for g in (GhfSpec(1.0), GhfSpec(1.0, 5.0)):
        w = ReconstructedPdf(b, g)
        d = w.density()
        lo, hi = d.support
        # the profile jumps at every bin edge, so integrate bin by bin
        cuts = np.array([lo] + sorted(d.discontinuities) + [hi])
        mass = float(np.sum(gauss_legendre_panels(w.eval, cuts[:-1], cuts[1:], 24)))
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert float(w.eval(lo - 1.0)) == 0.0
        assert float(w.eval(hi + 1.0)) == 0.0


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
        g = GhfSpec(eta, a)
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
        g = GhfSpec(eta, a)
        var_w, ent_w = decompose_stats(b, g)
        assert 0.5 * math.log(2.0 * math.pi * math.e * var_w) >= ent_w - 1e-9


# ---------------------------------------------------------------------------
# sampling


def test_sample_counts_deterministic():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    s1 = sample_counts(b, 50_000, seed=7)
    s2 = sample_counts(b, 50_000, seed=7)
    assert s1.probs == s2.probs
    s3 = sample_counts(b, 50_000, seed=8)
    assert s3.probs != s1.probs


def test_sample_counts_match_exact_within_binomial_noise():
    n = 200_000
    d = position_density(Gaussian())
    exact = bin_density(d, 1.0, 0.0)
    emp = sample_counts(exact, n, seed=2024)
    for j, p in exact.probs.items():
        if p < 1e-6:
            continue
        sd = math.sqrt(p * (1.0 - p) / n)
        assert abs(emp.probs.get(j, 0.0) - p) <= 5.0 * sd, f"bin {j}"


def test_sample_counts_finite_support_and_degenerate():
    b = bin_density(position_density(SquareWell(n=1, length=1.0)), 1.0, 0.5)
    one = sample_counts(b, 1, seed=0)
    assert one.probs == {0: 1.0}
    with pytest.raises(ValueError):
        sample_counts(b, 0, seed=0)


def test_sample_counts_unbiased_on_square_well_momentum_tail():
    # heavy-tailed marginal at a fine bin: with exact draws the per-bin
    # z^2 = (observed - expected)^2 / expected averages 1 over the bins
    # expecting at least 5 counts
    n = 4_000_000
    b = bin_density(momentum_density(SquareWell(n=3)), 0.03, 0.0)
    emp = sample_counts(b, n, seed=1)
    observed = np.zeros(b.masses.size)
    lo = emp.j_min - b.j_min
    observed[lo:lo + emp.masses.size] = np.rint(emp.masses * n)
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
            emp = sample_counts(b, 10_000, seed=seed)
            assert (emp.width, emp.offset) == (b.width, b.offset)
            for j, p in emp.probs.items():
                assert p == 0.0 or b.probs.get(j, 0.0) > 0.0, f"bin {j}"
