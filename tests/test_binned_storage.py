"""Dense binned storage: a BinnedDistribution holds (j_min, masses) once and
exposes probs as a read-only view over them."""

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
)


@settings(max_examples=30, **_SETTINGS)
@given(state=_states, momentum=st.booleans(), log_eta=st.floats(-1.5, 1.5),
       frac=st.floats(0.0, 1.0, exclude_max=True))
def test_bin_density_conserves_mass_on_contiguous_bins(state, momentum, log_eta, frac):
    eta = 10.0 ** log_eta
    d = (momentum_density if momentum else position_density)(state)
    b = bin_density(d, eta, frac * eta)
    j, p = b.arrays()
    assert j.dtype == np.int64 and p.dtype == np.float64
    assert j.shape == p.shape and j[0] == b.j_min
    assert np.all(np.diff(j) == 1)
    assert list(b.probs) == j.tolist()
    assert np.all(p >= 0.0) and 0.0 <= b.tail_mass <= EPS_TAIL
    assert abs(math.fsum(p.tolist()) + b.tail_mass - 1.0) <= 1e-9
    # empty extremes are trimmed; only the heaviest seed bin could be kept empty
    assert p.size == 1 or (p[0] > 0.0 and p[-1] > 0.0)


_masses = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(
    lambda w: math.fsum(w) > 1e-3)


@settings(max_examples=60, **_SETTINGS)
@given(w=_masses, j_min=st.integers(-1000, 1000), width=st.floats(1e-3, 1e3),
       offset=st.floats(-10.0, 10.0))
def test_dict_and_dense_construction_agree(w, j_min, width, offset):
    total = math.fsum(w)
    p = [x / total for x in w]
    from_dict = BinnedDistribution(width=width, offset=offset,
                                   probs={j_min + i: x for i, x in enumerate(p)},
                                   tail_mass=0.0)
    dense = BinnedDistribution(width=width, offset=offset, j_min=j_min,
                               masses=np.array(p), tail_mass=0.0)
    assert from_dict.probs == dense.probs
    assert dict(from_dict.probs.items()) == {j_min + i: x for i, x in enumerate(p)}
    for a, b in zip(from_dict.arrays(), dense.arrays()):
        assert np.array_equal(a, b)
    assert discrete_variance(from_dict) == discrete_variance(dense)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert discrete_renyi(from_dict, alpha) == discrete_renyi(dense, alpha)


def test_gaps_in_a_dict_are_stored_as_zero_bins():
    b = BinnedDistribution(width=1.0, offset=0.0, probs={-1: 0.25, 2: 0.75}, tail_mass=0.0)
    assert b.j_min == -1 and b.masses.tolist() == [0.25, 0.0, 0.0, 0.75]
    assert b.probs[0] == 0.0 and 1 in b.probs
    assert 3 not in b.probs and "x" not in b.probs
    assert b.probs.get(7, -1.0) == -1.0
    with pytest.raises(KeyError):
        b.probs[-2]


def test_storage_is_read_only():
    w = {0: 0.5, 1: 0.5}
    b = BinnedDistribution(width=1.0, offset=0.0, probs=w, tail_mass=0.0)
    with pytest.raises(TypeError):
        b.probs[0] = 1.0
    with pytest.raises(TypeError):
        del b.probs[0]
    j, p = b.arrays()
    for arr in (j, p):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        b.masses = np.array([1.0])
    # the inputs are converted or copied, never aliased
    w[0] = 0.9
    m = np.array([0.25, 0.75])
    dense = BinnedDistribution(width=1.0, offset=0.0, j_min=0, masses=m, tail_mass=0.0)
    m[0] = 0.9
    assert b.probs[0] == 0.5 and dense.probs[0] == 0.25


def test_arrays_returns_the_stored_objects():
    b = bin_density(position_density(Gaussian()), 0.3, 0.1)
    first, second = b.arrays(), b.arrays()
    assert first[0] is second[0] and first[1] is second[1]
    assert first[1] is b.masses


def test_dense_construction_rejects_what_the_dict_form_rejects():
    def dense(masses, j_min=0, tail=0.0, width=1.0):
        return BinnedDistribution(width=width, offset=0.0, j_min=j_min,
                                  masses=np.array(masses, dtype=float), tail_mass=tail)

    dense([0.5, 0.5])
    with pytest.raises(ValueError, match="width"):
        dense([1.0], width=0.0)
    with pytest.raises(ValueError, match="in bin 4"):
        dense([0.5, 0.6, -0.1], j_min=2)
    with pytest.raises(ValueError, match="in bin 0"):
        BinnedDistribution(width=1.0, offset=0.0, probs={1: 1.1, 0: -0.1}, tail_mass=0.0)
    with pytest.raises(ValueError, match="sum to"):
        dense([0.9])
    with pytest.raises(ValueError, match="budget"):
        dense([1.0 - 2e-8], tail=2e-8)
    with pytest.raises(ValueError, match="at least one bin"):
        dense([])
    with pytest.raises(ValueError, match="sum to"):
        dense([0.5, math.nan])
    with pytest.raises(ValueError, match="not both"):
        BinnedDistribution(width=1.0, offset=0.0, probs={0: 1.0}, masses=np.ones(1))
    with pytest.raises(ValueError, match="span"):
        BinnedDistribution(width=1.0, offset=0.0, probs={0: 0.5, 10 ** 9: 0.5})


def test_sample_counts_store_observed_range_densely():
    n = 20_000
    d = position_density(Gaussian())
    emp = sample_counts(d, 0.5, 0.0, n, seed=11)
    counts = np.rint(emp.masses * n).astype(np.int64)
    assert counts.sum() == n and counts[0] > 0 and counts[-1] > 0
    assert np.array_equal(emp.masses, counts / n)
