import argparse
import errno
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cg_uncert import bounds, cli
from cg_uncert.bounds import func_K, func_M, func_M_inv
from cg_uncert.cli import (
    DescriptorError,
    RunConfig,
    build_parser,
    config_from_args,
    load_config_file,
    main,
    parse_state,
)
from cg_uncert.coarse import MAX_BINS, bin_density, sample_counts
from cg_uncert.states import (
    MAX_HERMITE_N,
    MAX_WELL_N,
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    momentum_density,
    position_density,
)
from oracles import split_widths

TWO_PI_E = 2.0 * math.pi * math.e


# ---------------------------------------------------------------------------
# descriptor grammar


def test_parse_state_kinds_and_defaults():
    assert parse_state("gaussian") == Gaussian(hbar=1.0)
    g = parse_state("gaussian:x0=-1,sigma=0.5,p0=2", hbar=2.0)
    assert g == Gaussian(x0=-1.0, p0=2.0, sigma=0.5, hbar=2.0)
    assert parse_state("hermite:n=3") == HermiteGauss(n=3, sigma=1.0)
    assert parse_state("squarewell:n=2,L=1.5") == SquareWell(n=2, length=1.5)


def test_parse_state_mixture():
    m = parse_state("mix:0.6*gaussian:x0=-1+0.4*gaussian:x0=2,sigma=1.5")
    assert isinstance(m, Mixture)
    assert len(m.components) == 2
    assert m.components[0][0] == pytest.approx(0.6)
    assert m.components[1][1] == Gaussian(x0=2.0, sigma=1.5)


# reproducible examples, nothing written to disk
_SETTINGS = dict(deadline=None, derandomize=True, database=None)
_real = st.floats(-1e300, 1e300)
_positive = st.floats(1e-300, 1e300, exclude_min=True)
# kind, its model, and its optional fields; n is drawn separately
_KINDS = {
    "gaussian": (lambda n, f, hbar: Gaussian(hbar=hbar, **f), {"x0": _real, "p0": _real,
                                                               "sigma": _positive}),
    "hermite": (lambda n, f, hbar: HermiteGauss(n, hbar=hbar, **f), {"sigma": _positive}),
    "squarewell": (lambda n, f, hbar: SquareWell(n, f.get("L", 1.0), hbar), {"L": _positive}),
}


@st.composite
def _simple(draw, hbar):
    """(descriptor, expected state) from a drawn kind and repr'd field values
    in a drawn order; the expected state is the ValueError that refuses it
    when a marginal width squares past the double range."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    make, optional = _KINDS[kind]
    items = list(draw(st.fixed_dictionaries({}, optional=optional)).items())
    n = None if kind == "gaussian" else draw(st.integers(int(kind == "squarewell"), 50))
    if n is not None and draw(st.booleans()):
        items.append(("n", n))
    items = draw(st.permutations(items))
    fields = dict(items)
    n = fields.pop("n", 0 if kind == "hermite" else 1)
    text = kind + (":" + ",".join(f"{k}={v!r}" for k, v in items) if items else "")
    try:
        return text, make(n, fields, hbar)
    except ValueError as e:
        return text, e


# 400, since about 40% of the draws now end in a refused width
@settings(max_examples=400, **_SETTINGS)
@given(data=st.data(), hbar=_positive, k=st.integers(1, 3))
def test_parse_state_round_trips_repr_field_values(data, hbar, k):
    comps = [data.draw(_simple(hbar)) for _ in range(k)]
    refused = [s for _, s in comps if isinstance(s, ValueError)]
    if k == 1:
        text, expected = comps[0]
    else:
        weights = [data.draw(st.floats(0.05, 0.45)) for _ in range(k - 1)]
        weights.append(1.0 - math.fsum(weights))
        text = "mix:" + "+".join(f"{w!r}*{desc}" for w, (desc, _) in zip(weights, comps))
    if refused:
        with pytest.raises(ValueError, match=re.escape(str(refused[0]))):
            parse_state(text, hbar)
        return
    if k == 1:
        assert repr(parse_state(text, hbar)) == repr(expected)
        return
    got = parse_state(text, hbar)
    assert isinstance(got, Mixture) and got.hbar == hbar
    assert repr(got.components) == repr(tuple((w, s) for w, (_, s) in zip(weights, comps)))


def test_parse_state_errors_name_the_field():
    with pytest.raises(DescriptorError, match="sgma"):
        parse_state("gaussian:sgma=1")
    with pytest.raises(DescriptorError, match="unknown state kind"):
        parse_state("triangle:a=1")
    with pytest.raises(DescriptorError, match="sigma"):
        parse_state("gaussian:sigma=abc")
    with pytest.raises(DescriptorError, match="duplicate"):
        parse_state("gaussian:sigma=1,sigma=2")
    with pytest.raises(DescriptorError, match="whitespace"):
        parse_state("gaussian: sigma=1")
    with pytest.raises(DescriptorError, match="integer"):
        parse_state("squarewell:n=1.5")
    with pytest.raises(DescriptorError, match="nest"):
        parse_state("mix:0.5*mix:1*gaussian+0.5*gaussian")
    with pytest.raises(DescriptorError, match="weight"):
        parse_state("mix:x*gaussian+0.5*gaussian")
    with pytest.raises(DescriptorError, match="two components"):
        parse_state("mix:1.0*gaussian")
    with pytest.raises(DescriptorError, match="integer"):
        parse_state("hermite:n=inf")


@pytest.mark.parametrize("kind, cap", [("hermite", MAX_HERMITE_N), ("squarewell", MAX_WELL_N)])
def test_parse_state_caps_n(kind, cap, capsys):
    # an uncapped n built n - 1 position nodes or ran n recurrence steps per
    # point, which for n = 1e20 never finished
    assert parse_state(f"{kind}:n={cap}").n == cap
    with pytest.raises(ValueError, match=f"n = {cap + 1} exceeds the cap {cap}"):
        parse_state(f"{kind}:n={cap + 1}")
    with pytest.raises(ValueError, match=f"exceeds the cap {cap}"):
        parse_state(f"{kind}:n=1e20")
    assert main(["check", "--state", f"{kind}:n=1e20"]) == 2
    assert f"exceeds the cap {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["-1", "0", "inf", "nan"])
def test_a_bad_well_length_names_the_descriptor_key(capsys, length):
    # the library's "length must be positive and finite" named a field the
    # user never typed; the descriptor calls it L
    with pytest.raises(DescriptorError, match="state field 'L' of 'squarewell': must be"):
        parse_state(f"squarewell:n=1,L={length}")
    for state in (f"squarewell:L={length}", f"mix:0.5*gaussian+0.5*squarewell:L={length}"):
        assert main(["check", "--state", state]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: state field 'L' of 'squarewell': must be positive and finite, "
                       f"got {float(length)}\n")


# ---------------------------------------------------------------------------
# config file handling


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "delta": 0.5, "delta_p": 2.0, "alpha": 0.75,
        "sweep": {"min": 1.0, "max": 10.0, "points": 5, "log": False},
        "grid": {"u_max": 2.0, "n": 7},
    }))
    overrides = load_config_file(str(p))
    assert overrides == {"delta": 0.5, "delta_p": 2.0, "alpha": 0.75,
                         "sweep_min": 1.0, "sweep_max": 10.0,
                         "sweep_points": 5, "sweep_log": False,
                         "grid_umax": 2.0, "grid_n": 7}


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"delta": 1.0,}')
    with pytest.raises(DescriptorError, match="line"):
        load_config_file(str(bad))
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"detla": 1.0}')
    with pytest.raises(DescriptorError, match="detla"):
        load_config_file(str(unknown))
    nested = tmp_path / "nested.json"
    nested.write_text('{"sweep": {"step": 2}}')
    with pytest.raises(DescriptorError, match="sweep.step"):
        load_config_file(str(nested))


def test_flags_override_config(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"sweep": {"min": 1.0, "max": 4.0, "points": 4}}))
    rc = main(["bounds", "--config", str(p), "--sweep-points", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 2  # header + two rows


# (field, flag, flag text, config key, config value): every RunConfig option
_OPTION_CASES = [
    ("state", "--state", "hermite:n=2", "state", "hermite:n=2"),
    ("delta", "--delta", "0.5", "delta", 0.5),
    ("delta_p", "--delta-p", "0.25", "delta_p", 0.25),
    ("hbar", "--hbar", "2", "hbar", 2.0),
    ("alpha", "--alpha", "0.75", "alpha", 0.75),
    ("sweep_min", "--sweep-min", "0.5", "sweep.min", 0.5),
    ("sweep_max", "--sweep-max", "50", "sweep.max", 50.0),
    ("sweep_points", "--sweep-points", "7", "sweep.points", 7),
    ("sweep_log", "--sweep-log", "0", "sweep.log", False),
    ("grid_umax", "--grid-umax", "2", "grid.u_max", 2.0),
    ("grid_n", "--grid-n", "5", "grid.n", 5),
    ("samples", "--samples", "123", "samples", 123),
    ("seed", "--seed", "9", "seed", 9),
    ("offset_x", "--offset-x", "0.125", "offset_x", 0.125),
    ("offset_p", "--offset-p", "-0.25", "offset_p", -0.25),
    ("out", "--out", "report.json", "out", "report.json"),
    ("format", "--format", "json", "format", "json"),
]


def test_option_cases_cover_every_field():
    assert sorted(c[0] for c in _OPTION_CASES) == sorted(
        f.name for f in fields(RunConfig) if f.name != "command")


@pytest.mark.parametrize("name, flag, text, key, value", _OPTION_CASES)
def test_flag_and_config_key_set_the_same_field(tmp_path, name, flag, text, key, value):
    group, _, leaf = key.rpartition(".")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({group: {leaf: value}} if group else {key: value}))
    by_flag = config_from_args(build_parser().parse_args(["check", flag, text]))
    by_config = config_from_args(build_parser().parse_args(["check", "--config", str(p)]))
    assert by_flag == by_config
    assert getattr(by_flag, name) == value != getattr(RunConfig(), name)


@pytest.mark.parametrize("doc, message", [
    ({"delta": True}, "config field 'delta' must be a number"),
    ({"samples": 1.5}, "config field 'samples' must be an integer"),
    ({"sweep": {"log": 1}}, "config field 'sweep.log' must be true/false"),
    ({"sweep": 3}, "config field 'sweep' must be an object"),
    ({"grid": {"u_max": "x"}}, "config field 'grid.u_max': 'x' is not float"),
    ({"sweep.min": 1.0}, "unknown config field 'sweep.min'"),
])
def test_config_value_errors_name_the_field(tmp_path, doc, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(DescriptorError, match=re.escape(message)):
        load_config_file(str(p))


@pytest.mark.parametrize("key, value", [(c[3], c[2]) for c in _OPTION_CASES
                                         if isinstance(c[4], (int, float))
                                         and not isinstance(c[4], bool)])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, key, value):
    # {"samples": "5"} used to load as if it were {"samples": 5}
    group, _, leaf = key.rpartition(".")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({group: {leaf: value}} if group else {key: value}))
    with pytest.raises(DescriptorError, match=re.escape(f"config field '{key}': '{value}' is not")):
        load_config_file(str(p))
    assert main(["check", "--config", str(p)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_config_integer_out_of_range_is_named(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"samples": 1e400}')
    with pytest.raises(DescriptorError, match="config field 'samples': inf is not int"):
        load_config_file(str(p))


@pytest.mark.parametrize("doc", [{"out": None}, {"state": 5}, {"format": True}])
def test_config_strings_must_be_json_strings(tmp_path, monkeypatch, capsys, doc):
    # {"out": null} used to become the path "None": the report went to a file
    # of that name and the call exited 0
    (key,) = doc
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(DescriptorError, match=f"config field '{key}' must be a string"):
        load_config_file(str(p))
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--config", str(p)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert sorted(x.name for x in tmp_path.iterdir()) == ["cfg.json"]


def test_main_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *a, **k):
        built.append(self)
        init(self, *a, **k)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._shared_parser.cache_clear()
    assert main(["bounds", "--sweep-points", "1"]) == 0
    assert main(["kfun", "--sweep-points", "1"]) == 0
    assert len(built) == 1


def test_each_built_parser_is_its_own_object():
    # patching parse_args on one parser, as a tracer does, must leave every
    # other parser and the shared one untouched
    first, second = build_parser(), build_parser()
    assert first is not second
    first.parse_args = lambda *a, **k: "patched"
    assert first.parse_args(["check"]) == "patched"
    assert second.parse_args(["check"]).command == "check"
    assert "parse_args" not in vars(cli._shared_parser())
    assert build_parser().parse_args(["kfun"]).command == "kfun"


def test_options_may_come_before_the_command(capsys):
    assert main(["--sweep-points", "2", "bounds"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 2


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_lists_commands_and_descriptor_grammar(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    out = capsys.readouterr().out
    for command in ("bounds", "kfun", "check", "region", "sample"):
        assert command in out
    assert "mix:" in out and "squarewell" in out


# ---------------------------------------------------------------------------
# commands


def _rows(out: str):
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_bounds_schema_and_endpoint(capsys):
    rc = main(["bounds", "--sweep-min", str(2.0 * math.pi), "--sweep-points", "1"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["dd_over_hbar", "B_half", "B_alpha", "B_one", "R", "L_alpha", "g"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-14)  # B_half at 2 pi
    assert float(rows[0][6]) >= 1.0


def test_bounds_crossing_in_sweep(capsys):
    rc = main(["bounds", "--sweep-min", "0.01", "--sweep-max", "100",
               "--sweep-points", "200", "--sweep-log", "1"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    diffs = [float(r[4]) - float(r[3]) for r in rows]  # R - B_one
    signs = np.sign(diffs)
    assert int(np.sum(signs[:-1] != signs[1:])) == 1


def test_kfun_endpoint_and_roundtrip(capsys):
    rc = main(["kfun", "--sweep-min", "0", "--sweep-max", "5",
               "--sweep-points", "6", "--sweep-log", "0"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["t", "M_t", "u", "M_inv_u", "K_u", "linear_ref"]
    assert float(rows[0][4]) == 1.0  # K at u = 0
    assert rows[0][1] == "inf"
    for r in rows[1:]:
        u, minv, k, ref = float(r[2]), float(r[3]), float(r[4]), float(r[5])
        from cg_uncert.bounds import func_M
        assert abs(func_M(minv) - u) <= 1e-10 * max(1.0, u)
        assert k <= TWO_PI_E * (u + 1.0 / 12.0) * (1.0 + 1e-14)
        assert ref == pytest.approx(1.0 + TWO_PI_E * u, rel=1e-15)


def test_check_fine_gaussian(capsys):
    rc = main(["check", "--state", "gaussian:sigma=1", "--delta", "0.001",
               "--delta-p", "0.001"])
    out = capsys.readouterr().out
    assert rc == 0
    reports = json.loads(out)
    assert [r["relation_id"] for r in reports] == [
        "RenyiDiscrete", "HeisPreopt", "HeisRect", "HeisOptimal"]
    assert all(r["verdict"] == "holds" for r in reports)
    opt = reports[-1]
    assert abs(opt["margin"]) < 1e-2


def test_check_square_well_centered(capsys):
    rc = main(["check", "--state", "squarewell:n=1,L=1", "--delta", "1",
               "--offset-x", "0.5", "--delta-p", "50"])
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["verdict"] == "holds" for r in reports)


_LOADED_SCIPY = """
import contextlib, io, sys
import cg_uncert.cli as cli
def loaded():
    return ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(loaded())
for state in ("gaussian:x0=0.5,p0=-1,sigma=0.8", "hermite:n=7,sigma=1.2", "squarewell:n=3,L=1.5",
              "mix:0.6*squarewell:n=2+0.4*gaussian:x0=1,sigma=0.5"):
    for delta in ("1", "8"):  # c = delta^2/4 on each of the prolate tables, seam at c = 2
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["check", "--state", state, "--delta", delta, "--delta-p", delta,
                           "--offset-x", "0.3", "--offset-p", "0.1"])
        print(rc, loaded())
from cg_uncert import bounds, coarse, states
for _, s in states.catalog_states():
    bx = coarse.bin_density(states.position_density(s), 0.5, 0.1)
    bp = coarse.bin_density(states.momentum_density(s), 0.7, 0.2)
    for alpha in (0.5, 0.75, 1.0):
        bounds.binned_relation_reports(bx, bp, alpha=alpha)
print(loaded())
"""


def test_catalog_path_loads_no_scipy():
    # scipy.special was over half of the start-up time of cg_uncert.cli, and
    # scipy.optimize, scipy.integrate and scipy.linalg came before it; the
    # catalog states, the bounds and the reports need numpy alone
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _LOADED_SCIPY], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines == [""] + ["0 "] * 8 + [""]


_SCIPY_BLOCKED = """
import contextlib, io, math, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
import cg_uncert.cli as cli
runs = [
    ["check", "--state", "gaussian:x0=0.5,p0=-1,sigma=0.8", "--delta", "8", "--delta-p", "8"],
    ["check", "--state", "hermite:n=4", "--alpha", "0.75"],
    # the widest square-well momentum bin the panel rule takes: 65536 hbar/L
    ["check", "--state", "squarewell:n=3,L=1", "--delta", "0.1", "--delta-p", "65536"],
    # wider bins take the far-tail series
    ["check", "--state", "squarewell:n=1", "--delta", "1e-3", "--delta-p", "1e5"],
    ["check", "--state", "squarewell:n=3,L=1.5", "--delta", "1e-3", "--delta-p", "1e12"],
    ["check", "--state", "mix:0.6*squarewell:n=2+0.4*gaussian:x0=1,sigma=0.5",
     "--format", "json"],
    ["bounds", "--sweep-min", "1e-3", "--sweep-max", "1e3", "--sweep-points", "20"],
    ["kfun", "--sweep-min", "1e-300", "--sweep-max", "1e300", "--sweep-points", "20"],
    ["region", "--delta", "2", "--delta-p", "0.5", "--grid-n", "8"],
    ["sample", "--state", "squarewell:n=3", "--delta-p", "0.5", "--samples", "1000"],
    ["sample", "--state", "hermite:n=2", "--samples", "1000", "--format", "json"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    print(argv[0], rc)
from cg_uncert import coarse, states
b = coarse.bin_density(states.position_density(states.HermiteGauss(3)), 0.7, 0.2)
for a in (0.0, 4.0, 1e6):
    g = coarse.GhfSpec(t=a * 0.7 ** 2)
    values = [coarse.ghf_variance(g, 0.7), coarse.ghf_entropy(g, 0.7), *coarse.decompose_stats(b, g),
              float(coarse.ReconstructedPdf(b, g).eval(0.3))]
    print(a, all(map(math.isfinite, values)))
# densities without closed-form masses, and the continuous functionals
import numpy as np
ramp = states.Density1D(eval=lambda x: np.where((x >= 0.0) & (x <= 2.0), np.where(x < 1.0, 0.25, 0.75), 0.0),
                        support=(0.0, 2.0), discontinuities=(1.0,))
print(round(float(coarse.bin_density(ramp, 0.3, 0.1).masses.sum()), 12))
g = coarse.GhfSpec(t=4.0 * 0.7 ** 2)
recon = coarse.ReconstructedPdf(b, g).density()
print(round(float(coarse.bin_density(recon, 0.7, 0.25).masses.sum()), 12))
from cg_uncert import bounds
for _, s in states.catalog_states():
    for alpha in (1.0, 0.75):
        bounds.check_continuous_relations(s, alpha)
print("continuous", len(states.catalog_states()))
"""


def test_every_command_runs_with_scipy_blocked():
    # the README promises no scipy on the catalog path; here an import of
    # any scipy module fails, so a lazy import anywhere on it would show
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == (
        ["check 0"] * 6 + ["bounds 0", "kfun 0", "region 0", "sample 0", "sample 0"]
        + ["0.0 True", "4.0 True", "1000000.0 True", "1.0", "1.0", "continuous 6"])


def test_check_malformed_descriptor(capsys):
    rc = main(["check", "--state", "gaussian:sgma=1", "--delta", "1", "--delta-p", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sgma" in err


def test_bad_numeric_input(capsys):
    rc = main(["check", "--state", "gaussian", "--delta", "-1", "--delta-p", "1"])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["check", "--offset-x", "nan"], "offset_x"),
    (["check", "--offset-x", "inf"], "offset_x"),
    (["check", "--offset-p", "1e300"], "offset_p"),
    # 2^63 widths: the bin labels would leave int64
    (["check", "--offset-x", "1e300"], "offset_x"),
    (["sample", "--seed", "-1"], "seed"),
])
def test_bad_offsets_and_seeds_are_rejected_by_name(capsys, argv, name):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{name}'" in err


def test_a_mixture_far_from_the_origin_keeps_its_reports(capsys):
    # whole widths counted in floats put the two components' bins different
    # numbers of labels off at x0 = 1e17: HeisRect read lhs 10.5604 for 16.3588
    def reports(a, b):
        desc = f"mix:0.5*gaussian:x0={a!r},sigma=1+0.5*gaussian:x0={b!r},sigma=1"
        assert main(["check", "--state", desc, "--delta", "0.1", "--delta-p", "0.1"]) == 0
        return json.loads(capsys.readouterr().out)

    far, near = reports(1e17, 1e17 + 16.0), reports(1000.0, 1016.0)
    assert [r["relation_id"] for r in far] == [r["relation_id"] for r in near]
    for f, n in zip(far, near):
        assert f["verdict"] == n["verdict"] == "holds"
        for key in ("lhs", "rhs", "margin"):
            assert f[key] == pytest.approx(n[key], rel=1e-12, abs=0.0), (f, key)


def test_offsets_follow_the_int64_label_rule(capsys):
    # offsets of 2^52 widths or more exited 2 on a rule of the CLI's own;
    # the library bins them exactly, so whole widths move the labels and
    # nothing else, out to 2^63 widths
    def run(offset):
        rc = main(["check", "--state", "gaussian", "--delta", "1", "--delta-p", "1",
                   f"--offset-x={offset}"])
        return rc, capsys.readouterr()

    ref = run("0")
    assert ref[0] == 0 and ref[1].err == ""
    for offset in ("9007199254740992", "-9007199254740992", "4e18"):
        assert run(offset) == ref, offset
    for offset in ("9.3e18", "-1e19"):
        rc, got = run(offset)
        assert rc == 2 and "int64" in got.err and "'offset_x'" in got.err, offset


def test_a_far_offset_moves_only_the_sample_labels(capsys):
    # -3.21e18 is -8675675675675675779 widths of 0.37 plus fmod(-3.21e18, 0.37);
    # counted in floats, the labels started at 8675675675675675632
    def doc(offset):
        assert main(["sample", "--state", "gaussian", "--delta", "0.37",
                     f"--offset-x={offset!r}", "--samples", "1000", "--seed", "1"]) == 0
        return json.loads(capsys.readouterr().out)

    r, k = split_widths(-3.21e18, 0.37)
    far, near = doc(-3.21e18), doc(r)
    bins = far["position"]["chi2"]["per_bin"]
    assert bins[0]["bin"] == 8675675675675675763
    for row in bins:
        row["bin"] += k
    assert far["position"].pop("offset") == -3.21e18
    assert near["position"].pop("offset") == r
    assert far == near


@pytest.mark.parametrize("desc, name", [
    ("gaussian:x0=nan", "x0"),
    ("gaussian:x0=inf", "x0"),
    ("gaussian:p0=-inf", "p0"),
    ("mix:0.5*gaussian+0.5*gaussian:p0=nan", "p0"),
])
def test_non_finite_gaussian_locations_are_rejected_by_name(capsys, desc, name):
    assert main(["check", "--state", desc, "--delta", "0.1", "--delta-p", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name} must be finite" in err


@pytest.mark.parametrize("command", ["check", "sample"])
@pytest.mark.parametrize("flag, name", [("--delta", "delta"), ("--delta-p", "delta_p")])
def test_widths_whose_square_overflows_are_rejected_by_name(capsys, command, flag, name):
    # above sqrt(DBL_MAX) the discrete variance overflowed: exit 2 with a
    # bare OverflowError that named no field
    assert main([command, "--state", "gaussian", flag, "1e200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{name}' must have a finite square")


@pytest.mark.parametrize("args, name", [
    (["--state", "gaussian", "--hbar", "1e200"], "hbar/(2 sigma)"),
    (["--state", "gaussian:sigma=1e-200"], "hbar/(2 sigma)"),
    (["--state", "squarewell:n=1,L=1e-200"], "hbar n pi/L"),
    (["--state", "mix:0.5*gaussian+0.5*squarewell:n=1,L=1e200"], "L"),
    (["--state", "hermite:n=2,sigma=1e200"], "sigma"),
    (["--state", "hermite:n=2,sigma=1e-200"], "hbar/sigma"),
])
def test_state_widths_whose_square_overflows_are_rejected_by_name(capsys, args, name):
    # the marginal's second moment exited 2 with a bare OverflowError, a
    # Hermite function's with a TailBudgetExceeded
    assert main(["check", *args, "--delta", "1", "--delta-p", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: marginal width {name} = ")
    assert "squares past the double range" in err


@pytest.mark.parametrize("command", ["check", "sample"])
def test_width_products_whose_variance_products_overflow_are_rejected_by_name(capsys, command):
    # at 1.3e154 x 1.3e154 check exited 0 after a numpy overflow warning and
    # printed HeisPreopt and HeisRect lhs as Infinity, which is not JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--state", "gaussian", "--delta", "1.3e154",
                     "--delta-p", "1.3e154"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fields 'delta' and 'delta_p' must have a product")


@pytest.mark.parametrize("command", ["check", "sample"])
@pytest.mark.parametrize("args, name", [
    (["--state", "gaussian:sigma=1e-168", "--delta", "1e-170", "--delta-p", "1e-33"], "delta_x"),
    (["--state", "gaussian:sigma=5e-33", "--delta", "1e-33", "--delta-p", "1e-170"], "delta_p"),
])
def test_widths_whose_square_underflows_are_rejected_by_name(capsys, command, args, name):
    # the squared width was 0, and ln(0 + 0) exited 2 with "math domain error"
    assert main([command, *args, "--hbar", "1e-200", "--samples", "10"]) == 2
    assert capsys.readouterr().err == (
        f"error: {name} must be at least 1.4916681462400413e-154, so that its square is a "
        f"normal double, got 1e-170\n")


def test_variance_relation_sides_beyond_the_double_range_keep_their_message(capsys):
    # HeisRect's right side (hbar/2)^2 leaves the double range; the message
    # comes from the report assembly after both binnings
    assert main(["check", "--state", "gaussian:sigma=1000", "--hbar", "1e156",
                 "--delta", "100", "--delta-p", "5e151"]) == 2
    assert capsys.readouterr().err == (
        "error: HeisPreopt sides exp(717.0235852116605) and exp(717.0202546530223) leave the "
        "double range (delta_x=100.0, delta_p=5e+151, hbar=1e+156)\n")


def test_width_products_below_the_limit_keep_their_output(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--state", "gaussian", "--delta", "1e77", "--delta-p", "1e77",
                 "--out", str(out)]) == 0
    assert out.read_text() == (
        '[{"lhs":0.0,"margin":0.0,"relation_id":"RenyiDiscrete","rhs":0.0,"verdict":"holds"},'
        '{"lhs":6.94444444444452e+305,"margin":0.705940833242721,"relation_id":"HeisPreopt",'
        '"rhs":3.4280827715260896e+305,"verdict":"holds"},'
        '{"lhs":6.94444444444452e+305,"margin":705.61268970371,"relation_id":"HeisRect",'
        '"rhs":0.25,"verdict":"holds"},'
        '{"lhs":0.0,"margin":0.0,"relation_id":"HeisOptimal","rhs":0.0,"verdict":"holds"}]\n')


def test_numeric_overflow_is_not_a_verdict(capsys):
    # exit code 1 means "violated"; a crash inside the numerics must not read as one.
    # A Gaussian's stored variance does not square its location, so this one
    # meets the binning's location gate; a mixture's variance squares the
    # spread of its components' means
    assert main(["check", "--state", "gaussian:x0=1e300"]) == 2
    assert "error: location 1e+300 " in capsys.readouterr().err
    assert main(["check", "--state", "mix:0.5*gaussian:x0=1e300+0.5*gaussian"]) == 2
    assert "numeric error: OverflowError" in capsys.readouterr().err


def test_a_request_too_large_to_allocate_is_not_a_verdict(capsys):
    # 10^15 sweep points ask numpy for 7.1 PiB, past any address space; the
    # uncaught MemoryError exited 1, which reads as "violated"
    assert main(["bounds", "--sweep-points", "1000000000000000"]) == 2
    assert capsys.readouterr().err.startswith("numeric error: MemoryError: ")


def test_region_origin_and_single_cell(capsys):
    rc = main(["region", "--delta", "1", "--delta-p", "1", "--grid-umax", "1",
               "--grid-n", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# forbidden_fraction=")
    header, rows = _rows(out)
    assert header == ["u_x", "u_p", "forbidden"]
    assert len(rows) == 16
    assert rows[0][:2] == ["0", "0"] and rows[0][2] == "1"
    rc = main(["region", "--grid-n", "1"])
    header, rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1


def test_region_fraction_decreases_with_coarseness(capsys):
    fracs = []
    for dd in ("1", "100"):
        rc = main(["region", "--delta", dd, "--delta-p", "1", "--grid-umax", "1",
                   "--grid-n", "16"])
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0]
        fracs.append(float(first.split("=", 1)[1]))
    assert fracs[0] > fracs[1] > 0.0


def test_region_json_meta(capsys):
    rc = main(["region", "--grid-n", "3", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == ["u_x", "u_p", "forbidden"]
    assert 0.0 < doc["meta"]["forbidden_fraction"] <= 1.0
    assert len(doc["rows"]) == 9


def test_sample_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sample", "--state", "gaussian", "--delta", "1", "--delta-p", "1",
            "--samples", "5000", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert set(doc) >= {"position", "momentum", "relations", "samples", "seed"}
    pos = doc["position"]
    assert abs(pos["empirical"]["variance"] - pos["exact"]["variance"]) < 0.2
    assert pos["chi2"]["total"] >= 0.0
    assert all(r["verdict"] == "holds" for r in doc["relations"])


def test_sample_counts_sit_at_their_exact_bin_labels(capsys):
    # 1000 draws on bins 0.1 wide leave the outer exact bins empty, so the
    # empirical range starts inside the exact one; the minimum-uncertainty
    # state can read violated on 1000 draws, so either verdict exit passes
    desc, n, seed = "gaussian:sigma=0.7071067811865476", 1000, 1
    assert main(["sample", "--state", desc, "--delta", "0.1", "--delta-p", "0.1",
                 "--samples", str(n), "--seed", str(seed)]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    state = parse_state(desc)
    for axis, marginal, axis_seed in (("position", position_density, seed),
                                      ("momentum", momentum_density, seed + 1)):
        exact = bin_density(marginal(state), 0.1, 0.0)
        emp = sample_counts(exact, n=n, seed=axis_seed)
        assert emp.j_min > exact.j_min, axis
        rows = doc[axis]["chi2"]["per_bin"]
        assert [r["bin"] for r in rows] == list(range(exact.j_min, exact.j_min + exact.masses.size))
        assert sum(r["observed"] for r in rows) == n
        for r in rows:
            i = r["bin"] - emp.j_min
            want = round(emp.masses[i] * n) if 0 <= i < emp.masses.size else 0
            assert r["observed"] == want, (axis, r["bin"])


def test_sample_single_draw_degenerate(capsys):
    rc = main(["sample", "--state", "squarewell:n=1,L=1", "--delta", "1",
               "--offset-x", "0.5", "--delta-p", "60", "--samples", "1",
               "--seed", "3"])
    assert rc in (0, 1)  # single-draw empirical stats can sit on the boundary
    doc = json.loads(capsys.readouterr().out)
    assert doc["position"]["empirical"]["shannon"] == 0.0


def test_csv_output_is_crlf_and_roundtrip_precise(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["bounds", "--sweep-min", "0.3", "--sweep-max", "3",
                 "--sweep-points", "3", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r\n" in raw
    header, rows = _rows(raw.decode())
    from cg_uncert.bounds import bound_B
    for r in rows:
        dd = float(r[0])
        assert float(r[1]) == bound_B(dd, 1.0, 1.0, 0.5)  # 17 digits round-trip


_OUT_CASES = [
    ["check", "--state", "gaussian", "--delta", "1", "--delta-p", "1"],
    ["bounds", "--sweep-min", "0.3", "--sweep-max", "3", "--sweep-points", "3"],
]


@pytest.mark.parametrize("argv", _OUT_CASES, ids=["check-json", "bounds-csv"])
def test_out_file_is_rewritten_in_place(tmp_path, capsysbinary, argv):
    # --out holds exactly the stdout bytes, whatever it held before, and an
    # existing file keeps its inode and mode, as an open for "w" keeps them
    assert main(argv) == 0
    expected = capsysbinary.readouterr().out
    out = tmp_path / "report"
    out.write_bytes(b"x" * 10_000)
    out.chmod(0o640)
    before = out.stat()
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert len(expected) < 10_000 and (argv[0] == "check" or b"\r\n" in expected)
    # a new file is created with the payload alone
    fresh = tmp_path / "new"
    assert main(argv + ["--out", str(fresh)]) == 0
    assert fresh.read_bytes() == expected


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_out_to_a_character_device_is_not_truncated(capsys):
    # truncating a character device fails with EINVAL, which would exit 2
    assert main(_OUT_CASES[0] + ["--out", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


class _DiskFull(io.TextIOWrapper):
    """A text file whose write gets half the payload to disk, then fails."""

    def write(self, s):
        super().write(s[: len(s) // 2])
        self.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_write_leaves_the_out_file_empty(tmp_path, monkeypatch, capsys):
    # the old "holds" report must not survive, whole or in part, next to an
    # io error: a crash never looks like a verdict
    out = tmp_path / "report.json"
    assert main(_OUT_CASES[0] + ["--out", str(out)]) == 0
    assert all(r["verdict"] == "holds" for r in json.loads(out.read_text()))
    capsys.readouterr()
    opened, real_open = [], os.open
    monkeypatch.setattr(os, "open", lambda *a, **k: opened.append(real_open(*a, **k)) or opened[-1])

    def full_open(file, mode="r", newline=None, closefd=True):
        return _DiskFull(open(file, mode.replace("w", "wb"), closefd=closefd), newline=newline)

    monkeypatch.setattr(cli, "open", full_open, raising=False)
    assert main(_OUT_CASES[0] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("io error: ")
    assert out.read_bytes() == b""
    assert len(opened) == 1
    with pytest.raises(OSError):
        os.fstat(opened[0])  # the descriptor was closed


def test_bounds_sweep_reaches_fine_graining_limit(capsys):
    rc = main(["bounds", "--sweep-min", "1e-300", "--sweep-max", "1", "--sweep-points", "5"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    first = dict(zip(header, rows[0]))
    assert float(first["R"]) == pytest.approx(math.log(2.0 * math.pi / 1e-300), rel=1e-12)


@pytest.mark.parametrize("product", ["3e103", "1e300"])
def test_bounds_at_huge_width_products(capsys, product):
    # c**3 in the large-c deficit overflowed past c ~ 5.6e102; past about 1e155
    # the g factor itself leaves the double range and prints as inf
    rc = main(["bounds", "--sweep-min", product, "--sweep-max", product,
               "--sweep-points", "1"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert float(row["R"]) == 0.0 and float(row["L_alpha"]) == 0.0
    for name in ("B_half", "B_alpha", "B_one"):
        assert math.isfinite(float(row[name]))
    g = float(row["g"])
    assert g == math.inf if product == "1e300" else 1.0 < g < math.inf


def test_bounds_rejects_subnormal_width_product(capsys):
    rc = main(["bounds", "--sweep-min", "1e-320", "--sweep-max", "1", "--sweep-points", "2"])
    assert rc == 2
    assert "sweep.min" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["1e-160", "1e-200"])
def test_sample_rejects_a_width_product_below_the_normal_range_before_binning(
        monkeypatch, capsys, width):
    # the width product is refused before any bin is computed, by field name
    def no_binning(*args, **kwargs):
        raise AssertionError("binning reached")

    monkeypatch.setattr(cli, "_bin_axes", no_binning)
    assert main(["sample", "--delta", width, "--delta-p", width, "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert "delta_x" in err and "delta_p" in err and "binning reached" not in err


@pytest.mark.parametrize("width", ["1e-200", "1e200"])
def test_region_rejects_width_product_outside_double_range(capsys, width):
    rc = main(["region", "--delta", width, "--delta-p", width, "--grid-n", "2"])
    assert rc == 2
    assert "delta_x" in capsys.readouterr().err


@pytest.mark.parametrize("umax", ["inf", "nan", "-1"])
def test_region_rejects_bad_grid_umax_by_field_name(capsys, umax):
    # inf and nan were told only "must be nonnegative"
    assert main(["region", "--grid-umax", umax, "--grid-n", "2"]) == 2
    err = capsys.readouterr().err
    assert f"field 'grid.u_max' must be nonnegative and finite, got {umax}" in err


def test_kfun_solves_one_root_per_row_with_unchanged_columns(tmp_path, monkeypatch, fresh_memos):
    # each row took M^-1 twice, once for its column and once inside K;
    # sharing the root must not move a bit of either column.  The memos are
    # cleared first: a row whose u an earlier test solved would take no solve
    solves = []
    solve = bounds.func_M_inv

    def counting(u):
        solves.append(u)
        return solve(u)

    monkeypatch.setattr(bounds, "func_M_inv", counting)
    out = tmp_path / "kfun.json"
    rc = main(["kfun", "--sweep-min", "1e-6", "--sweep-max", "1e6", "--sweep-points", "2000",
               "--format", "json", "--out", str(out)])
    monkeypatch.undo()
    assert rc == 0
    assert len(solves) == 2000
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2000
    for x, m, u, t, k, lin in rows:
        # the values the two separate calls gave
        assert [m, u, t, k, lin] == [func_M(x), x, func_M_inv(x), func_K(x), 1.0 + TWO_PI_E * x]


def test_kfun_inverts_m_near_the_top_of_the_double_range(capsys):
    rc = main(["kfun", "--sweep-min", "1e307", "--sweep-max", "1.7e308", "--sweep-points", "2"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    from cg_uncert.bounds import func_M
    for r in rows:
        u, minv = float(r[2]), float(r[3])
        assert minv > 0.0
        assert abs(func_M(minv) - u) <= 1e-10 * u


def test_sweep_validation(capsys):
    assert main(["bounds", "--sweep-points", "0"]) == 2
    assert "sweep.points" in capsys.readouterr().err
    assert main(["bounds", "--sweep-min", "5", "--sweep-max", "1"]) == 2
    assert main(["bounds", "--sweep-min", "-1", "--sweep-log", "1",
                 "--sweep-points", "3", "--sweep-max", "2"]) == 2


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.hbar == 1.0
    assert cfg.format == "csv"
    assert cfg.sweep_points >= 2


@pytest.mark.parametrize("argv, field", [
    ("kfun --sweep-log 0 --sweep-min -1 --sweep-max 1 --sweep-points 3", "sweep.min"),
    ("bounds --sweep-log 0 --sweep-min 0 --sweep-max 1 --sweep-points 3", "sweep.min"),
    ("bounds --sweep-min 0.1 --sweep-max inf --sweep-points 3", "sweep.max"),
    ("kfun --sweep-min nan --sweep-points 1", "sweep.min"),
    ("kfun --sweep-log 0 --sweep-min 0 --sweep-max 1e309 --sweep-points 3", "sweep.max"),
])
def test_bad_sweep_bounds_are_rejected_by_field_name(capsys, argv, field):
    # rejected by the config field's name before any library call, so no
    # numpy RuntimeWarning comes first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv.split())
    assert rc == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]



@pytest.mark.parametrize("length", ["1e150", "1e154"])
def test_locations_beyond_the_int64_labels_are_rejected(capsys, length):
    # the well's centre, 5e149 unit bins from 0, was a seed label past 2^63:
    # the edges became an object array and a TypeError exited 1, "violated"
    assert main(["check", "--state", f"squarewell:n=1,L={length}", "--delta", "1",
                 "--delta-p", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: location {float(length) / 2!r} of the density is ")
    assert "bin widths (1.0) from 0, beyond the int64 bin labels" in err


@pytest.mark.parametrize("command", ["check", "sample"])
@pytest.mark.parametrize("loc, fields", [
    ("x0=1e18", ("'x0'", "'delta'")),
    ("x0=1e300", ("'x0'", "'delta'")),
    ("p0=1e18", ("'p0'", "'delta_p'")),
])
def test_a_location_beyond_the_int64_labels_names_its_fields(capsys, command, loc, fields):
    # both axes read "location 1e+18 of the density is 1e+19 bin widths (0.1)
    # from 0, beyond the int64 bin labels", naming neither x0 nor p0
    rc = main([command, "--state", f"gaussian:{loc},sigma=0.7071067811865476",
               "--delta", "0.1", "--delta-p", "0.05"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: location ")
    assert "beyond the int64 bin labels: placed by" in err
    assert all(f in err for f in fields)
    other = {"'x0'": "'p0'", "'p0'": "'x0'"}[fields[0]]
    assert other not in err


@pytest.mark.parametrize("argv, fields", [
    (["check", "--delta", "1e-7"], ("'delta'", "'offset_x'")),
    (["check", "--delta-p", "1e-7"], ("'delta_p'", "'offset_p'")),
    (["sample", "--delta-p", "1e-7", "--samples", "10"], ("'delta_p'", "'offset_p'")),
])
def test_a_binning_past_the_bin_budget_names_its_fields(capsys, argv, fields):
    # both axes printed the same bare "more than 1000000 bins needed" line
    assert main([*argv, "--state", "gaussian"]) == 2
    err = capsys.readouterr().err
    assert err == (f"numeric error: TailBudgetExceeded: more than {MAX_BINS} bins needed to "
                   f"reach 1 - 1e-09: binned at fields {fields[0]} and {fields[1]}\n")


def test_a_gaussian_far_from_the_origin_keeps_its_verdicts(capsys):
    # the grid edges rounded to ulp(x0) = 0.016 at x0 = 1e14, a sixth of a
    # bin: RenyiDiscrete read -1.22e-3, "violated", against +1.665e-3 at 0
    def margins(loc):
        rc = main(["check", "--state", f"gaussian:{loc},sigma=0.7071067811865476",
                   "--delta", "0.1", "--delta-p", "0.1"])
        reports = json.loads(capsys.readouterr().out)
        assert rc == 0 and all(r["verdict"] == "holds" for r in reports), loc
        return [r["margin"] for r in reports]

    ref = margins("x0=0")
    for loc in ("x0=1e13", "x0=1e14", "x0=1e16", "p0=1e14"):
        assert margins(loc) == pytest.approx(ref, rel=0.0, abs=2e-11), loc
    assert main(["check", "--state", "gaussian:x0=1e18,sigma=0.7071067811865476",
                 "--delta", "0.1", "--delta-p", "0.1"]) == 2
    assert "location 1e+18 of the density" in capsys.readouterr().err
