"""The benchmark's tracer finds every program name it wraps.

perfbench/tracing.py times the layers by rebinding named functions of
cg_uncert (bin_density, _clean_block_masses, find_root_bracketed, ...).  A
renamed or deleted boundary is skipped and listed in Tracer.missing, so this
test fails as soon as a change to the library moves one of them.
"""

import pathlib

import cg_uncert.coarse as coarse

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = coarse._clean_block_masses
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert coarse._clean_block_masses is not original
    finally:
        tracer.restore()
    assert coarse._clean_block_masses is original
