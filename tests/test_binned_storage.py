"""Dense binned storage: a BinnedDistribution holds (j_min, masses) once, no
labels, and exposes probs as a read-only view over them."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cg_uncert.coarse import (
    EPS_TAIL,
    BinnedDistribution,
    bin_density,
    discrete_renyi,
    discrete_variance,
    sample_counts,
)
from cg_uncert.states import (
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    momentum_density,
    position_density,
)

# reproducible examples, nothing written to disk
_SETTINGS = dict(deadline=None, derandomize=True, database=None)

_positive = st.floats(0.5, 2.0)
_states = st.one_of(
    st.builds(Gaussian, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), _positive),
    st.builds(HermiteGauss, st.integers(0, 4), _positive),
    st.builds(SquareWell, st.integers(1, 3), _positive),
    st.builds(lambda w, a, b: Mixture(((w, a), (1.0 - w, b))), st.floats(0.2, 0.8),
              st.builds(Gaussian, st.floats(-2.0, 0.0), st.just(0.0), _positive),
              st.builds(Gaussian, st.floats(0.0, 2.0), st.floats(-1.0, 1.0), _positive)),
    st.builds(lambda w, a, b: Mixture(((w, a), (1.0 - w, b))), st.floats(0.2, 0.8),
              st.builds(SquareWell, st.integers(1, 3), _positive),
              st.one_of(st.builds(SquareWell, st.integers(1, 3), _positive),
                        st.builds(HermiteGauss, st.integers(0, 4), _positive))),
)


@settings(max_examples=30, **_SETTINGS)
@given(state=_states, momentum=st.booleans(), log_eta=st.floats(-1.5, 1.5),
       frac=st.floats(0.0, 1.0, exclude_max=True))
def test_bin_density_conserves_mass_on_contiguous_bins(state, momentum, log_eta, frac):
    eta = 10.0 ** log_eta
    d = (momentum_density if momentum else position_density)(state)
    b = bin_density(d, eta, frac * eta)
    p = b.masses
    assert isinstance(b.j_min, int) and p.dtype == np.float64 and p.ndim == 1
    assert list(b.probs) == list(range(b.j_min, b.j_min + p.size))
    assert np.all(p >= 0.0) and 0.0 <= b.tail_mass <= EPS_TAIL
    assert abs(math.fsum(p.tolist()) + b.tail_mass - 1.0) <= 1e-9
    # empty bins are trimmed from both extremes
    assert p[0] > 0.0 and p[-1] > 0.0


@settings(max_examples=30, **_SETTINGS)
@given(state=_states, momentum=st.booleans(), log_eta=st.floats(-1.5, 1.5),
       frac=st.floats(0.0, 1.0, exclude_max=True))
def test_closed_form_masses_match_panel_quadrature(state, momentum, log_eta, frac):
    eta = 10.0 ** log_eta
    d = (momentum_density if momentum else position_density)(state)
    assert d.interval_masses is not None
    b = bin_density(d, eta, frac * eta)
    q = bin_density(dataclasses.replace(d, interval_masses=None), eta, frac * eta)
    lo, hi = max(b.j_min, q.j_min), min(b.j_min + b.masses.size, q.j_min + q.masses.size)
    assert hi - lo >= min(b.masses.size, q.masses.size) - 2
    m_closed = b.masses[lo - b.j_min:hi - b.j_min]
    m_panel = q.masses[lo - q.j_min:hi - q.j_min]
    # the order cross-check bound of the panel rule itself
    assert np.all(np.abs(m_closed - m_panel) <= np.maximum(1e-15, 1e-12 * m_panel))


def test_probs_view_covers_interior_zero_bins():
    b = BinnedDistribution(width=1.0, offset=0.0, j_min=-1, masses=[0.25, 0.0, 0.0, 0.75])
    assert b.probs[0] == 0.0 and 1 in b.probs and list(b.probs) == [-1, 0, 1, 2]
    assert 3 not in b.probs and "x" not in b.probs
    assert b.probs.get(7, -1.0) == -1.0
    with pytest.raises(KeyError):
        b.probs[-2]


def test_storage_is_read_only():
    m = np.array([0.5, 0.5])
    b = BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=m, tail_mass=0.0)
    with pytest.raises(TypeError):
        b.probs[0] = 1.0
    with pytest.raises(TypeError):
        del b.probs[0]
    p = b.masses
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0] = 0
    with pytest.raises(AttributeError):
        b.masses = np.array([1.0])
    # the input array is copied, never aliased
    m[0] = 0.9
    assert b.probs[0] == 0.5 and b.masses[0] == 0.5
    # trimmed zero end bins too: the copy is shrunk, never the caller's array
    m = np.array([0.0, 0.0, 0.5, 0.5, 0.0])
    b = BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=m)
    assert np.array_equal(m, [0.0, 0.0, 0.5, 0.5, 0.0]) and m.flags.writeable
    assert not np.shares_memory(b.masses, m) and b.masses.base is None
    assert b.j_min == 2 and np.array_equal(b.masses, [0.5, 0.5])


def test_construction_rejects_invalid_bins():
    def dense(masses, j_min=0, tail=0.0, width=1.0):
        return BinnedDistribution(width=width, offset=0.0, j_min=j_min,
                                  masses=np.array(masses, dtype=float), tail_mass=tail)

    dense([0.5, 0.5])
    with pytest.raises(ValueError, match="width"):
        dense([1.0], width=0.0)
    with pytest.raises(ValueError, match="in bin 4"):
        dense([0.5, 0.6, -0.1], j_min=2)
    with pytest.raises(ValueError, match="sum to"):
        dense([0.9])
    with pytest.raises(ValueError, match="budget"):
        dense([1.0 - 2e-8], tail=2e-8)
    with pytest.raises(ValueError, match="at least one bin"):
        dense([])
    with pytest.raises(ValueError, match="sum to"):
        dense([0.5, math.nan])
    # only exact zeros are trimmed: a NaN at either end still reaches the sum check
    for masses in ([math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, 1.0, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="sum to"):
            dense(masses)


@pytest.mark.parametrize("lead, trail", [(1, 0), (0, 3), (5, 2), (9000, 8193)])
def test_construction_trims_empty_end_bins(lead, trail):
    # padded with zeros, a binning stores the same range, labels and statistics
    for b in (bin_density(momentum_density(SquareWell(2)), 0.3, 0.05),
              BinnedDistribution(width=0.5, offset=0.1, j_min=-3,
                                 masses=[0.2, 0.0, 0.3, 0.0, 0.0, 0.5])):
        padded = BinnedDistribution(
            width=b.width, offset=b.offset, j_min=b.j_min - lead, tail_mass=b.tail_mass,
            masses=np.concatenate([np.zeros(lead), b.masses, np.zeros(trail)]).tolist())
        assert padded.j_min == b.j_min
        assert np.array_equal(padded.masses, b.masses)
        assert discrete_variance(padded) == discrete_variance(b)
        for alpha in (0.5, 0.8, 1.0, 3.0, math.inf):
            assert discrete_renyi(padded, alpha) == discrete_renyi(b, alpha), alpha


def test_sample_counts_store_observed_range_densely():
    # the counts cover every exact bin; a binning of counts / n stores the
    # observed range, first to last nonzero count
    n = 20_000
    exact = bin_density(position_density(Gaussian()), 0.5, 0.0)
    counts = sample_counts(exact, n, seed=11)
    seen = np.flatnonzero(counts)
    assert counts.dtype == np.int64 and counts.size == exact.masses.size
    assert counts.sum() == n and seen[0] > 0 and seen[-1] < counts.size - 1
    emp = BinnedDistribution(width=exact.width, offset=exact.offset, j_min=exact.j_min,
                             masses=counts / n)
    assert emp.j_min == exact.j_min + seen[0]
    assert np.array_equal(emp.masses, counts[seen[0]:seen[-1] + 1] / n)
