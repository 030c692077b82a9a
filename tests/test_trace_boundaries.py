"""The benchmark's tracer finds every program name it wraps.

perfbench/tracing.py times the layers by rebinding named functions of
cg_uncert (bin_density, _clean_block_masses, prolate_r00, ...).  A renamed
or deleted boundary is skipped and listed in Tracer.missing, so this test
fails as soon as a change to the library moves one of them.

The seven names below are gone on purpose.  Every bin mass and every finite
quadrature now runs through _clean_block_masses and numerics.adaptive_panels,
so there is no per-bin fallback, no scipy quad and no fixed-order panel call
in coarse left to time; the tracer still counts bins at _clean_block_masses.
The tail rings of the continuous functionals go through panel_integrals too,
so states calls no fixed-order panels either, and numerics.gl_points reads 0.
M^-1, the one equation the package solves, takes Newton steps on
ln M(t) - ln u inside bounds.func_M_inv, so there is no bracketed root finder
either, and bounds.root_fevals reads 0.
A binning stores no labels, so there is no BinnedDistribution.arrays to
time (the tracer names a class owner without its module), and
coarse.arrays_calls reads 0.
"""

import pathlib

import cg_uncert.coarse as coarse
from cg_uncert import bounds, states

DELETED = [
    "BinnedDistribution.arrays",
    "cg_uncert.coarse._single_bin_mass",
    "cg_uncert.bounds.find_root_bracketed",
    "cg_uncert.coarse.integrate",
    "cg_uncert.coarse.gauss_legendre_panels",
    "cg_uncert.states.integrate",
    "cg_uncert.states.gauss_legendre_panels",
]

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = coarse._clean_block_masses
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == DELETED
        assert coarse._clean_block_masses is not original
    finally:
        tracer.restore()
    assert coarse._clean_block_masses is original


def test_report_sets_call_the_globals_the_tracer_rebinds(monkeypatch):
    # the tracer times bounds.bound_L, discrete_renyi, discrete_variance and
    # func_K by rebinding them in the bounds namespace; a report set that
    # reached them another way would drop out of its layer times.  A warm
    # set reads the variance factors from the binning memo, so it asks
    # neither discrete_variance nor func_K.
    calls = {}

    def counted(name):
        real = getattr(bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    names = ("bound_L", "discrete_renyi", "discrete_variance", "func_K")
    for name in names:
        monkeypatch.setattr(bounds, name, counted(name))
    state = states.Gaussian(0.2, -0.1, 0.9)
    bx = coarse.bin_density(states.position_density(state), 0.4, 0.1)
    bp = coarse.bin_density(states.momentum_density(state), 0.7)
    cold = bounds.binned_relation_reports(bx, bp, 0.8)
    assert calls == {"bound_L": 1, "discrete_renyi": 2, "discrete_variance": 2, "func_K": 2}
    calls.clear()
    warm = bounds.binned_relation_reports(bx, bp, 0.8)
    assert calls == {"bound_L": 1, "discrete_renyi": 2}
    assert warm == cold and all(r.verdict == "holds" for r in warm)
