import dataclasses
import math

import mpmath
import numpy as np
import pytest

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
from cg_uncert.numerics import NonConvergence, gauss_legendre_panels, integrate
from cg_uncert.relations import DomainError
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
@pytest.mark.parametrize("log_eta", [-1.5, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0])
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
        assert abs(b.masses[i] - ref) <= 1e-10 * ref, f"bin {j}: {b.masses[i]!r} vs {ref!r}"


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
    good = {"width": 1.0, "offset": 0.0, "probs": {0: 0.5, 1: 0.5}, "tail_mass": 0.0}
    BinnedDistribution(**good)
    with pytest.raises(ValueError):
        BinnedDistribution(width=0.0, offset=0.0, probs={0: 1.0}, tail_mass=0.0)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, probs={0: -0.1, 1: 1.1}, tail_mass=0.0)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, probs={0: 0.9}, tail_mass=0.0)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, probs={0: 1.0 - 2e-8}, tail_mass=2e-8)
    with pytest.raises(ValueError):
        BinnedDistribution(width=1.0, offset=0.0, probs={}, tail_mass=1.0)


def test_discrete_variance_two_point():
    b = BinnedDistribution(width=2.0, offset=0.5, probs={-1: 0.25, 3: 0.75}, tail_mass=0.0)
    # centers -1.5 and 6.5; var = p q (gap)^2
    assert discrete_variance(b) == pytest.approx(0.25 * 0.75 * 8.0 ** 2, rel=1e-14)


def test_discrete_renyi_uniform_and_ordering():
    m = 7
    b = BinnedDistribution(width=1.0, offset=0.0,
                           probs={j: 1.0 / m for j in range(m)}, tail_mass=0.0)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert discrete_renyi(b, alpha) == pytest.approx(math.log(m), rel=1e-13)
    skew = BinnedDistribution(width=1.0, offset=0.0,
                              probs={0: 0.7, 1: 0.2, 2: 0.1}, tail_mass=0.0)
    hs = [discrete_renyi(skew, a) for a in (0.5, 0.9, 1.0, 1.5, math.inf)]
    assert all(b2 <= a2 + 1e-14 for a2, b2 in zip(hs, hs[1:]))


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


def test_discrete_renyi_degenerate_and_domain():
    one = BinnedDistribution(width=1.0, offset=0.0, probs={5: 1.0}, tail_mass=0.0)
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
    for a in (math.inf, math.nan, 3000.0, -3000.0):
        with pytest.raises(ValueError):
            GhfSpec(1.0, a)
    # scaling: the cap is on a * eta^2, not a alone
    GhfSpec(0.1, a=100000.0)


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
        avals = np.linspace(-50.0, 50.0, 101)
        vs = [ghf_variance(GhfSpec(eta, float(a))) for a in avals]
        assert all(0.0 < v < eta ** 2 / 4.0 for v in vs)
        assert all(v2 < v1 for v1, v2 in zip(vs, vs[1:]))
        hs = [ghf_entropy(GhfSpec(eta, float(a))) for a in avals]
        assert all(h <= math.log(eta) + 1e-15 for h in hs)


def test_ghf_against_direct_quadrature():
    for eta, a in ((1.0, 4.0), (0.5, -12.0), (2.0, 0.3)):
        g = GhfSpec(eta, a)
        b = BinnedDistribution(width=eta, offset=0.0, probs={0: 1.0}, tail_mass=0.0)
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


def test_reconstruct_requires_matching_width():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    with pytest.raises(WidthMismatch):
        ReconstructedPdf(b, GhfSpec(0.5))
    with pytest.raises(WidthMismatch):
        decompose_stats(b, GhfSpec(0.5))


def test_reconstruction_normalized_and_confined():
    b = bin_density(position_density(Gaussian()), 1.0, 0.0)
    for g in (GhfSpec(1.0), GhfSpec(1.0, 5.0), GhfSpec(1.0, -5.0)):
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
        a = float(rng.uniform(-8.0, 8.0))
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
        a = float(rng.uniform(-20.0, 20.0))
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
        BinnedDistribution(width=0.5, offset=0.1, probs={-3: 0.2, -2: 0.0, -1: 0.3, 2: 0.5}),
        bin_density(momentum_density(SquareWell(n=2)), 0.3, 0.05),
    ]
    for b in binnings:
        for seed in range(3):
            emp = sample_counts(b, 10_000, seed=seed)
            assert (emp.width, emp.offset) == (b.width, b.offset)
            for j, p in emp.probs.items():
                assert p == 0.0 or b.probs.get(j, 0.0) > 0.0, f"bin {j}"
