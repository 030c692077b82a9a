import json
import math

import numpy as np
import pytest

from cg_uncert.cli import (
    DescriptorError,
    RunConfig,
    load_config_file,
    main,
    parse_state,
)
from cg_uncert.states import Gaussian, HermiteGauss, Mixture, SquareWell

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


def test_check_malformed_descriptor(capsys):
    rc = main(["check", "--state", "gaussian:sgma=1", "--delta", "1", "--delta-p", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sgma" in err


def test_bad_numeric_input(capsys):
    rc = main(["check", "--state", "gaussian", "--delta", "-1", "--delta-p", "1"])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_numeric_overflow_is_not_a_verdict(capsys):
    # exit code 1 means "violated"; a crash inside the numerics must not read as one
    assert main(["check", "--state", "gaussian:x0=1e300"]) == 2
    assert "numeric error: OverflowError" in capsys.readouterr().err


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


def test_bounds_sweep_reaches_fine_graining_limit(capsys):
    rc = main(["bounds", "--sweep-min", "1e-300", "--sweep-max", "1", "--sweep-points", "5"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    first = dict(zip(header, rows[0]))
    assert float(first["R"]) == pytest.approx(math.log(2.0 * math.pi / 1e-300), rel=1e-12)


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
