"""bin_density computes the seed trio and the first blocks of its doubling
schedule, out to the density's reach, in one interval-mass call.  The
stopping rule stays its loop's: these tests hold the bin set, the tail and
the masses to the block-by-block enumeration (oracles.block_binning), show
that the reach is only a hint, and count the calls."""

import dataclasses
import math

import numpy as np
import pytest

from cg_uncert import coarse
from cg_uncert.coarse import EPS_TAIL, TailBudgetExceeded, bin_density
from cg_uncert.states import (
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    momentum_density,
    position_density,
)
from oracles import block_binning

WIDTHS = [10 ** -1.5, 10 ** -0.5, 1.0, 10 ** 1.5]

# the two mixtures of the check_stream benchmark deck: two Gaussians, and a
# square well with a Gaussian
_MIX_GAUSS = Mixture(((0.45, Gaussian(-1.0, 0.0, 0.9)), (0.55, Gaussian(1.2, 0.4, 1.3))))
_MIX_WELL = Mixture(((0.5, SquareWell(2)), (0.5, Gaussian(0.6, 0.0, 0.5))))

# (density, whether its masses depend on how a range is split into calls):
# square-well momentum panels seed each run of 32 bins at its call's inner end
DENSITIES = {
    "gaussian": (position_density(Gaussian(0.3, -0.2, 0.8)), False),
    "hermite2": (position_density(HermiteGauss(2, 1.1)), False),
    "hermite7": (momentum_density(HermiteGauss(7, 0.9)), False),
    "well_x": (position_density(SquareWell(3, 1.5)), False),
    "well1_p": (momentum_density(SquareWell(1)), True),
    "well3_p": (momentum_density(SquareWell(3, 1.5)), True),
    "mix_gauss_x": (position_density(_MIX_GAUSS), False),
    "mix_gauss_p": (momentum_density(_MIX_GAUSS), False),
    "mix_well_x": (position_density(_MIX_WELL), False),
    "mix_well_p": (momentum_density(_MIX_WELL), True),
}


def _assert_same_bins(b, ref, split_dependent: bool) -> None:
    j_min, masses, tail = ref
    assert b.j_min == j_min and b.masses.size == masses.size
    if not split_dependent:
        assert np.array_equal(b.masses, masses) and b.tail_mass == tail
        return
    # the worst, 4.4e-14 for n = 1 at width 10^-1.5, is a bin six times
    # lighter than its neighbours, next to a zero of the density, where the
    # panel rule's own error is about 3e-12
    assert np.all(np.abs(b.masses - masses) <= 5e-14 * masses)
    assert abs(b.tail_mass - tail) <= 2.3e-16  # one ulp of the cumulative mass


@pytest.mark.parametrize("phase", [0.0, 0.37])
@pytest.mark.parametrize("eta", WIDTHS, ids=["1e-1.5", "1e-0.5", "1", "1e1.5"])
@pytest.mark.parametrize("name", list(DENSITIES))
def test_bin_set_is_the_block_by_block_one(name, eta, phase):
    d, split_dependent = DENSITIES[name]
    _assert_same_bins(bin_density(d, eta, phase * eta), block_binning(d, eta, phase * eta),
                      split_dependent)


@pytest.mark.parametrize("reach", ["own", "none"])
@pytest.mark.parametrize("phase", [0.0, 0.37])
@pytest.mark.parametrize("eta", WIDTHS, ids=["1e-1.5", "1e-0.5", "1", "1e1.5"])
@pytest.mark.parametrize("name", list(DENSITIES))
def test_masses_keep_the_bits_of_the_joined_blocks(name, eta, phase, reach):
    # each block is written into one array as it is computed, which grows past
    # the blocks out to the reach (all of them, with no reach) and is then
    # shrunk to its bins: the same calls give the same bits as joining them
    d = DENSITIES[name][0] if reach == "own" else _with_reach(DENSITIES[name][0], None)
    b = bin_density(d, eta, phase * eta)
    j_min, masses, tail = block_binning(d, eta, phase * eta, window=True)
    assert (b.j_min, b.tail_mass) == (j_min, tail)
    assert b.masses.tobytes() == masses.tobytes()


def test_the_tail_budget_error_is_the_block_by_block_one():
    d = momentum_density(SquareWell(7))
    with pytest.raises(TailBudgetExceeded) as ours:
        bin_density(d, 0.01)
    with pytest.raises(TailBudgetExceeded) as ref:
        block_binning(d, 0.01)
    assert str(ours.value) == str(ref.value)


def _with_reach(d, factor):
    """d with its reach scaled about its mean by factor, or dropped (None)."""
    if factor is None:
        return dataclasses.replace(d, reach=None)
    m = d.known_mean
    return dataclasses.replace(d, reach=tuple(m + factor * (x - m) for x in d.reach))


@pytest.mark.parametrize("factor", [None, 0.01, 100.0], ids=["none", "narrow", "wide"])
@pytest.mark.parametrize("d, eta", [
    (position_density(Gaussian(0.3, 0.0, 0.8)), 0.05),
    (momentum_density(Gaussian(0.0, 1.5, 0.5)), 10 ** -1.5),
    # bins 3500 wide in a = p L / (2 hbar): each is a run of its own, so its
    # masses do not depend on the split
    (momentum_density(SquareWell(1000)), 7000.0),
], ids=["gaussian_x", "gaussian_p", "well1000_p"])
def test_the_reach_is_only_a_hint(d, eta, factor):
    b = bin_density(d, eta, 0.013)
    h = bin_density(_with_reach(d, factor), eta, 0.013)
    assert (h.j_min, h.width, h.offset, h.tail_mass) == (b.j_min, b.width, b.offset, b.tail_mass)
    assert np.array_equal(h.masses, b.masses)


@pytest.mark.parametrize("factor", [None, 0.01, 100.0], ids=["none", "narrow", "wide"])
def test_a_narrow_well_momentum_reach_moves_only_last_bits(factor):
    # at widths of a few hundredths the split into calls moves the last bits
    # (no reach, or a narrow one, splits as the block-by-block schedule
    # does); a reach too wide still splits as the right one, past 8163 bins
    d = momentum_density(SquareWell(1))
    b = bin_density(d, 0.04, 0.013)
    h = bin_density(_with_reach(d, factor), 0.04, 0.013)
    _assert_same_bins(h, (b.j_min, b.masses, b.tail_mass), split_dependent=factor != 100.0)


def _count_calls(monkeypatch) -> list:
    calls = []
    block = coarse._clean_block_masses

    def counting(d, j_arr, *args):
        calls.append(len(j_arr))
        return block(d, j_arr, *args)

    monkeypatch.setattr(coarse, "_clean_block_masses", counting)
    return calls


@pytest.mark.parametrize("d, eta", [
    (position_density(Gaussian()), 1.0),
    (position_density(Gaussian(0.0, 0.0, 30.0)), 1.0),
    (position_density(HermiteGauss(7)), 0.3),
], ids=["gaussian_sigma_1", "gaussian_sigma_30", "hermite7"])
def test_a_light_binning_takes_one_call(monkeypatch, d, eta):
    # block by block these took 3, 9 and 5 calls
    calls = _count_calls(monkeypatch)
    bin_density(d, eta, 0.013)
    assert len(calls) == 1


@pytest.mark.parametrize("state, eta, size, block_calls", [
    (SquareWell(1), 0.04, 81_891, 27),
    (SquareWell(3, 1.5), 0.3, 16_355, 19),
])
def test_a_well_momentum_binning_takes_a_call_per_8192_bins(monkeypatch, state, eta, size,
                                                            block_calls):
    calls = _count_calls(monkeypatch)
    b = bin_density(momentum_density(state), eta, 0.013)
    assert b.masses.size == size
    assert len(calls) <= math.ceil(size / 8192) + 2 < block_calls
    assert max(calls) <= 8192


def _beyond(d, edge, sign):
    """The mass of d beyond edge on the side sign, from a bin of width 1e6 reaching past it."""
    return d.interval_masses(edge + sign * 5e5, 1e6, 0, 1)[0]


def test_reaches_bound_the_tails():
    # each side beyond the reach, at EPS_TAIL, holds about EPS_TAIL/2, within a factor 2
    eps = EPS_TAIL
    for d in (position_density(Gaussian(0.3, 0.0, 0.8)), position_density(HermiteGauss(7)),
              momentum_density(SquareWell(3, 1.5))):
        lo, hi = d.reach
        for edge, sign in ((lo, -1.0), (hi, 1.0)):
            far = _beyond(d, edge, sign)
            assert 0.25 * eps <= far <= eps, (d, edge, far)
    assert position_density(SquareWell(2, 1.5)).reach == (0.0, 1.5)
    # a mixture's reach is its components' hull: a weight w <= 1 leaves at most
    # w eps/2 beyond its component's reach, so each side beyond the hull at most eps/2
    for mix in (_MIX_GAUSS, _MIX_WELL):
        for marginal in (position_density, momentum_density):
            d, ends = marginal(mix), [marginal(s).reach for _, s in mix.components]
            assert d.reach == (min(lo for lo, _ in ends), max(hi for _, hi in ends))
            for edge, sign in zip(d.reach, (-1.0, 1.0)):
                assert _beyond(d, edge, sign) <= 0.5 * eps, (mix, marginal, edge)
