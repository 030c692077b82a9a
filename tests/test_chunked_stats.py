"""Per-bin passes walk the masses in chunks of 8192 bins: across chunk
boundaries they match exact references, within one chunk they keep the bits
of the whole-array formulas, and none of them allocates a temporary the size
of the binning."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cg_uncert.coarse import (
    BinnedDistribution,
    bin_density,
    discrete_renyi,
    discrete_variance,
    sample_counts,
)
from cg_uncert.coarse import _CHUNK, _first
from cg_uncert.states import Gaussian, Mixture, SquareWell, momentum_density

SIZES = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)
ALPHAS = (0.5, 0.75, 1.0, 1.5, 3.0, math.inf)


def _masses(n: int, layout: str) -> np.ndarray:
    """n normalized masses over six decades with interior zeros.  "last" puts
    the one heaviest bin in the last chunk; "ties" puts equal heaviest bins in
    the first, a middle and the last chunk; "hole" also empties the second
    chunk."""
    rng = np.random.default_rng(n)
    raw = 10.0 ** rng.uniform(-6.0, 0.0, n)
    if n > 2:
        raw[rng.choice(np.arange(1, n - 1), size=min(5, n - 2), replace=False)] = 0.0
    if layout == "hole":
        raw[_CHUNK:2 * _CHUNK] = 0.0
    heaviest = [max(n - 3, 0)] if layout == "last" else sorted({0, n // 2, n - 1})
    raw[heaviest] = 2.0
    return raw / raw.sum()


def _binned(p: np.ndarray) -> BinnedDistribution:
    return BinnedDistribution(width=0.3, offset=0.1, j_min=-7, masses=p)


# the whole-array formulas the chunked passes replaced, as the oracle for one chunk
def _whole_array_variance(p, width):
    k = np.arange(p.size, dtype=float) - float(np.argmax(p))
    mean = float(np.dot(p, k))
    return float(np.dot(p, (k - mean) ** 2)) * width ** 2


def _whole_array_renyi(p, alpha):
    if not p.all():
        p = p[p > 0.0]
    if alpha == 1.0:
        return float(-np.dot(p, np.log(p))) + 0.0
    if math.isinf(alpha):
        return -math.log(float(np.max(p))) + 0.0
    a = alpha * np.log(p)
    m = a.max()
    top = a == m
    e = np.exp(a - m)
    e[top] = 0.0
    n = np.count_nonzero(top)
    return float(np.log1p(e.sum() / n) + math.log(n) + m) / (1.0 - alpha) + 0.0


def _reference_variance(p, width):
    q = p.tolist()
    top = int(np.argmax(p))
    mean = math.fsum(x * (i - top) for i, x in enumerate(q))
    return math.fsum(x * (i - top - mean) ** 2 for i, x in enumerate(q)) * width ** 2


def _reference_renyi(p, alpha):
    q = [x for x in p.tolist() if x > 0.0]
    if alpha == 1.0:
        return -math.fsum(x * math.log(x) for x in q)
    if math.isinf(alpha):
        return -math.log(max(q))
    return math.log(math.fsum(x ** alpha for x in q)) / (1.0 - alpha)


def _close(got, ref):
    return abs(got - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("n, layout", [(n, layout) for n in SIZES for layout in ("last", "ties")]
                         + [(SIZES[-1], "hole")])
def test_statistics_across_chunk_boundaries(n, layout):
    p = _masses(n, layout)
    b = _binned(p)
    assert _close(discrete_variance(b), _reference_variance(b.masses, b.width))
    for alpha in ALPHAS:
        assert _close(discrete_renyi(b, alpha), _reference_renyi(b.masses, alpha)), alpha
    if n <= _CHUNK:
        assert discrete_variance(b) == _whole_array_variance(b.masses, b.width)
        for alpha in ALPHAS:
            assert discrete_renyi(b, alpha) == _whole_array_renyi(b.masses, alpha), alpha


@pytest.mark.parametrize("n", SIZES)
def test_first_match_across_chunk_boundaries(n):
    for i in sorted({0, n // 2, n - 1, min(_CHUNK - 1, n - 1), min(_CHUNK, n - 1)}):
        p = np.zeros(n)
        p[i:] = 0.5
        assert _first(p, np.greater, 0.0) == i == int(np.argmax(p > 0.0))
        assert _first(p[::-1], np.greater, 0.0) == 0
        assert _first(p, np.equal, p.max()) == int(np.argmax(p))
    assert _first(np.zeros(n), np.greater, 0.0) == 0  # as argmax of an all-False mask


def test_storage_and_statistics_allocate_no_binning_sized_temporaries():
    b = bin_density(momentum_density(SquareWell(3, 1.5)), 0.0432)
    p = b.masses
    assert p.size > 10 ** 5
    budget = 128 * 1024
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        c = BinnedDistribution(width=b.width, offset=b.offset, j_min=b.j_min, masses=p,
                               tail_mass=b.tail_mass)
        kept, peak = tracemalloc.get_traced_memory()
        # one copy of the masses, no labels
        assert p.nbytes <= kept - start < p.nbytes + budget
        assert peak - start < p.nbytes + budget
        for stat in (discrete_variance, lambda x: discrete_renyi(x, 1.0),
                     lambda x: discrete_renyi(x, 1.5)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            stat(c)
            assert tracemalloc.get_traced_memory()[1] - before < budget
    finally:
        tracemalloc.stop()
    assert c.masses is not p and np.array_equal(c.masses, p)
    assert c.masses.dtype == np.float64 and not c.masses.flags.writeable


def test_a_binning_holds_no_array_but_its_masses():
    b = bin_density(momentum_density(SquareWell(3, 1.5)), 0.0432)
    assert b.masses.size > 10 ** 5
    discrete_variance(b)
    for alpha in (1.0, 1.5, math.inf):
        discrete_renyi(b, alpha)
    # the fields, the probs view, the statistics memo and the reduced offset
    held = [v for v in (*vars(b).values(), *vars(b.probs).values(), *b._stats.values(),
                        *b._reduced) if isinstance(v, np.ndarray)]
    assert len(held) == 2 and all(a is b.masses for a in held)


# one 8192-bin block of square-well momentum masses takes up to 553 KiB of
# kernel temporaries, and the array bin_density writes its blocks into is
# sized for the blocks out to the reach, up to three blocks (192 KiB) more
# than the binning keeps
_BUDGET = 768 * 1024

_HEAVY = [
    (SquareWell(1), 0.0316, 0.01, 106_467),
    (Mixture(((0.55, SquareWell(2)), (0.45, Gaussian(0.5, 0.0, 0.6)))), 0.0316, 0.0, 139_235),
]


@pytest.mark.parametrize("state, width, offset, size", _HEAVY, ids=["well", "well+gaussian"])
def test_binning_peaks_at_one_copy_of_its_masses(state, width, offset, size):
    # bin_density joined its blocks and the constructor copied them: two
    # copies at the peak, 2.0 times the masses' bytes; each block now goes
    # into one array, which the binning keeps
    d = momentum_density(state)
    bin_density(d, width, offset)  # the density's node table for this width is set up once
    tracemalloc.start()
    try:
        b = bin_density(d, width, offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.masses.size == size
    assert peak <= b.masses.nbytes + _BUDGET, (peak - b.masses.nbytes) / 1024


@pytest.mark.parametrize("state, width, offset, size, reach", [
    (*case, True) for case in _HEAVY] + [
    # with no reach the array starts at the seed trio and grows geometrically
    (SquareWell(1), 0.0316, 0.01, 106_467, False),
    (Gaussian(0.3, -0.2, 0.8), 2e-4, 0.0, 49_123, False),
], ids=["well", "well+gaussian", "well_no_reach", "gaussian_no_reach"])
def test_a_binning_is_stored_in_exactly_its_bins(state, width, offset, size, reach):
    # the mixture's reach is its components' hull, so its array has slack at
    # both ends; the well's has a block at one end
    d = momentum_density(state)
    if not reach:
        d = dataclasses.replace(d, reach=None)
    bin_density(d, width, offset)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        b = bin_density(d, width, offset)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    p = b.masses
    assert p.size == size
    assert p.base is None and p.flags.owndata and p.nbytes == 8 * size
    assert p.nbytes <= kept <= p.nbytes + 4096, kept - p.nbytes
    assert p[0] > 0.0 and p[-1] > 0.0


def test_sample_counts_normalizes_without_a_list_of_every_mass():
    # the sum of the masses is exact either way, so the draw keeps its bits;
    # a list of all 155,619 masses peaked at 4.98 MB, the normalized masses
    # and the counts take 2.49 MB
    b = bin_density(momentum_density(SquareWell(3, 1.5)), 0.03)
    p = b.masses
    assert p.size == 155_619
    sample_counts(b, 10, seed=1)  # the generator's one-time set-up is not the draw's
    tracemalloc.start()
    try:
        emp = sample_counts(b, 10 ** 6, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000
    counts = np.random.default_rng(5).multinomial(10 ** 6, p / math.fsum(p.tolist()))
    assert np.array_equal(emp, counts)
