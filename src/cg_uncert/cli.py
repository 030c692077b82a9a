"""Command-line front end.

Subcommands sweep the entropy bounds (bounds), tabulate the M/K function
chain (kfun), check all coarse-grained relations for one state (check),
scan the forbidden region of scaled variances (region), and compare
finite-statistics estimates against exact binned values (sample).

State descriptors are one-line, whitespace-free strings:

    state      = simple | mixture
    simple     = kind ":" [pairs] | kind
    kind       = "gaussian" | "hermite" | "squarewell"
    pairs      = key "=" number ("," key "=" number)*
    mixture    = "mix:" weighted ("+" weighted)+
    weighted   = number "*" simple

gaussian takes x0, p0, sigma; hermite takes n, sigma; squarewell takes
n, L.  Omitted keys use the model defaults.  Example:
mix:0.6*gaussian:x0=-1+0.4*gaussian:x0=2,sigma=1.5
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .bounds import (
    binned_relation_reports,
    bound_B,
    bound_L,
    check_coarse_relations,
    feasibility_region,
    func_K,
    func_M,
    func_M_inv,
)
from .coarse import (
    TailBudgetExceeded,
    WidthMismatch,
    bin_density,
    discrete_renyi,
    discrete_variance,
    sample_counts,
)
from .numerics import Divergent, InvalidBracket, NonConvergence
from .relations import DomainError
from .states import Gaussian, HermiteGauss, Mixture, SquareWell, momentum_density, position_density

_LN_2PIE_LIN = 2.0 * math.pi * math.e

COMMANDS = ("bounds", "kfun", "check", "region", "sample")


class DescriptorError(ValueError):
    """State descriptor or config field failed to parse."""


@dataclass(frozen=True)
class RunConfig:
    command: str = "bounds"
    state: str = "gaussian"
    delta: float = 1.0
    delta_p: float = 1.0
    hbar: float = 1.0
    alpha: float = 1.0
    sweep_min: float = 0.01
    sweep_max: float = 100.0
    sweep_points: int = 200
    sweep_log: bool = True
    grid_umax: float = 1.0
    grid_n: int = 64
    samples: int = 10000
    seed: int = 0
    offset_x: float = 0.0
    offset_p: float = 0.0
    out: Optional[str] = None
    format: str = "csv"


# ---------------------------------------------------------------------------
# state descriptors


def _parse_number(kind: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DescriptorError(
            f"state field {key!r} of {kind!r}: {raw!r} is not a number") from None


def _parse_simple(text: str, hbar: float):
    kind, sep, rest = text.partition(":")
    params = {}
    if sep and rest:
        for item in rest.split(","):
            key, eq, raw = item.partition("=")
            if not eq or not key:
                raise DescriptorError(f"malformed field {item!r} in state {text!r}")
            if key in params:
                raise DescriptorError(f"duplicate state field {key!r}")
            params[key] = raw
    if kind == "gaussian":
        allowed = ("x0", "p0", "sigma")
    elif kind == "hermite":
        allowed = ("n", "sigma")
    elif kind == "squarewell":
        allowed = ("n", "L")
    else:
        raise DescriptorError(f"unknown state kind {kind!r}")
    for key in params:
        if key not in allowed:
            raise DescriptorError(
                f"unknown field {key!r} for state kind {kind!r} "
                f"(allowed: {', '.join(allowed)})")
    vals = {k: _parse_number(kind, k, v) for k, v in params.items()}
    if kind == "gaussian":
        return Gaussian(x0=vals.get("x0", 0.0), p0=vals.get("p0", 0.0),
                        sigma=vals.get("sigma", 1.0), hbar=hbar)
    if kind == "hermite":
        n = vals.get("n", 0.0)
        if n != int(n):
            raise DescriptorError(f"state field 'n' must be an integer, got {n}")
        return HermiteGauss(n=int(n), sigma=vals.get("sigma", 1.0), hbar=hbar)
    n = vals.get("n", 1.0)
    if n != int(n):
        raise DescriptorError(f"state field 'n' must be an integer, got {n}")
    return SquareWell(n=int(n), length=vals.get("L", 1.0), hbar=hbar)


def parse_state(text: str, hbar: float = 1.0):
    """Parse a state descriptor (grammar in the module docstring)."""
    if not text:
        raise DescriptorError("empty state descriptor")
    if any(ch.isspace() for ch in text):
        raise DescriptorError("state descriptors must not contain whitespace")
    if not text.startswith("mix:"):
        return _parse_simple(text, hbar)
    comps = []
    for part in text[4:].split("+"):
        w_raw, star, desc = part.partition("*")
        if not star:
            raise DescriptorError(
                f"mixture component {part!r} must look like weight*state")
        try:
            w = float(w_raw)
        except ValueError:
            raise DescriptorError(
                f"mixture weight {w_raw!r} is not a number") from None
        if desc.startswith("mix:"):
            raise DescriptorError("mixtures cannot nest")
        comps.append((w, _parse_simple(desc, hbar)))
    if len(comps) < 2:
        raise DescriptorError("a mixture needs at least two components")
    try:
        return Mixture(components=tuple(comps), hbar=hbar)
    except ValueError as e:
        raise DescriptorError(str(e)) from None


# ---------------------------------------------------------------------------
# config file and flags

_SCALAR_FIELDS = {
    "state": str, "delta": float, "delta_p": float, "hbar": float,
    "alpha": float, "samples": int, "seed": int, "offset_x": float,
    "offset_p": float, "out": str, "format": str,
}
_SWEEP_KEYS = {"min": ("sweep_min", float), "max": ("sweep_max", float),
               "points": ("sweep_points", int), "log": ("sweep_log", bool)}
_GRID_KEYS = {"u_max": ("grid_umax", float), "n": ("grid_n", int)}


def _coerce(field_name: str, value, typ):
    if typ is bool:
        if isinstance(value, bool):
            return value
        raise DescriptorError(f"config field {field_name!r} must be true/false")
    if typ in (int, float) and isinstance(value, bool):
        raise DescriptorError(f"config field {field_name!r} must be a number")
    try:
        out = typ(value)
    except (TypeError, ValueError):
        raise DescriptorError(
            f"config field {field_name!r}: {value!r} is not {typ.__name__}") from None
    if typ is int and isinstance(value, float) and value != out:
        raise DescriptorError(f"config field {field_name!r} must be an integer")
    return out


def load_config_file(path: str) -> dict:
    """Flat dict of RunConfig overrides from a JSON config file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise DescriptorError(
            f"config {path}: invalid JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}") from None
    if not isinstance(raw, dict):
        raise DescriptorError(f"config {path}: top level must be an object")
    out = {}
    for key, value in raw.items():
        if key in _SCALAR_FIELDS:
            out[key] = _coerce(key, value, _SCALAR_FIELDS[key])
        elif key == "sweep":
            if not isinstance(value, dict):
                raise DescriptorError("config field 'sweep' must be an object")
            for k, v in value.items():
                if k not in _SWEEP_KEYS:
                    raise DescriptorError(f"unknown config field 'sweep.{k}'")
                name, typ = _SWEEP_KEYS[k]
                out[name] = _coerce(f"sweep.{k}", v, typ)
        elif key == "grid":
            if not isinstance(value, dict):
                raise DescriptorError("config field 'grid' must be an object")
            for k, v in value.items():
                if k not in _GRID_KEYS:
                    raise DescriptorError(f"unknown config field 'grid.{k}'")
                name, typ = _GRID_KEYS[k]
                out[name] = _coerce(f"grid.{k}", v, typ)
        else:
            raise DescriptorError(f"unknown config field {key!r}")
    return out


def _validate(cfg: RunConfig) -> None:
    for name in ("delta", "delta_p", "hbar"):
        v = getattr(cfg, name)
        if not (v > 0.0 and math.isfinite(v)):
            raise DescriptorError(f"field {name!r} must be positive and finite, got {v}")
    if cfg.format not in ("csv", "json"):
        raise DescriptorError(f"field 'format' must be csv or json, got {cfg.format!r}")
    if cfg.command in ("bounds", "kfun"):
        if cfg.sweep_points < 1:
            raise DescriptorError(
                f"field 'sweep.points' must be at least 1, got {cfg.sweep_points}")
        if cfg.sweep_points > 1 and not cfg.sweep_min < cfg.sweep_max:
            raise DescriptorError(
                f"sweep needs min < max, got [{cfg.sweep_min}, {cfg.sweep_max}]")
        if cfg.sweep_log and cfg.sweep_min <= 0.0:
            raise DescriptorError(
                f"field 'sweep.min' must be positive for a log sweep, got {cfg.sweep_min}")
    if cfg.command == "region":
        if cfg.grid_n < 1:
            raise DescriptorError(f"field 'grid.n' must be at least 1, got {cfg.grid_n}")
        if not (cfg.grid_umax >= 0.0 and math.isfinite(cfg.grid_umax)):
            raise DescriptorError(
                f"field 'grid.u_max' must be nonnegative, got {cfg.grid_umax}")
    if cfg.command == "sample" and cfg.samples < 1:
        raise DescriptorError(f"field 'samples' must be at least 1, got {cfg.samples}")


def _sweep_values(cfg: RunConfig) -> list:
    if cfg.sweep_points == 1:
        return [cfg.sweep_min]
    if cfg.sweep_log:
        return [float(v) for v in np.geomspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)]
    return [float(v) for v in np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)]


def _pmap(fn, xs):
    """The rows of a sweep, in input order.  Run in one thread: the rows are
    GIL-bound, so a thread pool made sweeps slower.  The name stays as the
    per-row boundary that perfbench/tracing.py times."""
    return [fn(x) for x in xs]


# ---------------------------------------------------------------------------
# output


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_table(cfg: RunConfig, header: list, rows: list, meta: dict) -> None:
    if cfg.format == "csv":
        text_rows = []
        for k in sorted(meta):
            text_rows.append(f"# {k}={_fmt(meta[k])}\r\n")
        out = "".join(text_rows)
        sink = io.StringIO()
        w = csv.writer(sink)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
        payload = out + sink.getvalue()
    else:
        doc = {"meta": {k: meta[k] for k in sorted(meta)}, "columns": header,
               "rows": [[(int(v) if isinstance(v, (int, np.integer)) else float(v))
                         for v in row] for row in rows]}
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    _emit(cfg.out, payload)


def _emit(path: Optional[str], payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
        sys.stdout.flush()
    else:
        with open(path, "w", newline="") as f:
            f.write(payload)


def _report_dicts(reports) -> list:
    return [{"relation_id": r.relation_id, "lhs": r.lhs, "rhs": r.rhs,
             "margin": r.margin, "verdict": r.verdict} for r in reports]


# ---------------------------------------------------------------------------
# commands


def cmd_bounds(cfg: RunConfig) -> int:
    header = ["dd_over_hbar", "B_half", "B_alpha", "B_one", "R", "L_alpha", "g"]

    def row(x):
        bs = bound_L(x, 1.0, 1.0, cfg.alpha)
        return [x, bound_B(x, 1.0, 1.0, 0.5), bs.b_alpha,
                bound_B(x, 1.0, 1.0, 1.0), bs.r, bs.l_alpha, bs.g]

    _write_table(cfg, header, _pmap(row, _sweep_values(cfg)), {})
    return 0


def cmd_kfun(cfg: RunConfig) -> int:
    header = ["t", "M_t", "u", "M_inv_u", "K_u", "linear_ref"]

    def row(x):
        if x == 0.0:
            # M and its inverse diverge at the endpoint; K has a finite limit
            return [x, math.inf, x, math.inf, func_K(0.0), 1.0]
        return [x, func_M(x), x, func_M_inv(x), func_K(x),
                1.0 + _LN_2PIE_LIN * x]

    _write_table(cfg, header, _pmap(row, _sweep_values(cfg)), {})
    return 0


def cmd_check(cfg: RunConfig) -> int:
    state = parse_state(cfg.state, cfg.hbar)
    reports = check_coarse_relations(state, cfg.delta, cfg.delta_p, cfg.alpha,
                                     offsets=(cfg.offset_x, cfg.offset_p))
    payload = json.dumps(_report_dicts(reports), sort_keys=True,
                         separators=(",", ":")) + "\n"
    _emit(cfg.out, payload)
    return 0 if all(r.verdict == "holds" for r in reports) else 1


def cmd_region(cfg: RunConfig) -> int:
    axis = [float(v) for v in np.linspace(0.0, cfg.grid_umax, cfg.grid_n)]
    reg = feasibility_region(cfg.delta, cfg.delta_p, axis, axis, cfg.hbar)
    rows = []
    for i, ux in enumerate(reg.u_x):
        for j, up in enumerate(reg.u_p):
            rows.append([ux, up, int(reg.forbidden[i][j])])
    meta = {"forbidden_fraction": reg.fraction, "log_rhs_heis": reg.log_rhs}
    _write_table(cfg, ["u_x", "u_p", "forbidden"], rows, meta)
    return 0


def _axis_sample(density, width, offset, n, seed, alpha, exact_binned):
    emp = sample_counts(density, width, offset, n, seed)
    stats = {}
    for tag, b in (("exact", exact_binned), ("empirical", emp)):
        stats[tag] = {"variance": discrete_variance(b),
                      "shannon": discrete_renyi(b, 1.0),
                      "renyi_alpha": discrete_renyi(b, alpha)}
    per_bin = []
    chi2 = 0.0
    j_emp, p_emp = emp.arrays()
    keys = sorted(set(exact_binned.probs) | set(j_emp[p_emp > 0.0].tolist()))
    for jj in keys:
        p = exact_binned.probs.get(jj, 0.0)
        observed = int(round(emp.probs.get(jj, 0.0) * n))
        expected = n * p
        if expected > 0.0:
            term = (observed - expected) ** 2 / expected
        else:
            term = math.inf if observed else 0.0
        chi2 += term
        per_bin.append({"bin": jj, "observed": observed, "expected": expected,
                        "chi2_term": term})
    stats["chi2"] = {"total": chi2, "dof": max(len(keys) - 1, 1),
                     "per_bin": per_bin}
    stats["width"] = width
    stats["offset"] = offset
    return emp, stats


def cmd_sample(cfg: RunConfig) -> int:
    state = parse_state(cfg.state, cfg.hbar)
    dx = position_density(state)
    dp = momentum_density(state)
    exact_x = bin_density(dx, cfg.delta, cfg.offset_x)
    exact_p = bin_density(dp, cfg.delta_p, cfg.offset_p)
    emp_x, stats_x = _axis_sample(dx, cfg.delta, cfg.offset_x, cfg.samples,
                                  cfg.seed, cfg.alpha, exact_x)
    emp_p, stats_p = _axis_sample(dp, cfg.delta_p, cfg.offset_p, cfg.samples,
                                  cfg.seed + 1, cfg.alpha, exact_p)
    reports = binned_relation_reports(emp_x, emp_p, cfg.alpha, cfg.hbar)
    doc = {"samples": cfg.samples, "seed": cfg.seed, "alpha": cfg.alpha,
           "state": cfg.state, "position": stats_x, "momentum": stats_p,
           "relations": _report_dicts(reports)}
    _emit(cfg.out, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0 if all(r.verdict == "holds" for r in reports) else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("shared options")
    g.add_argument("--config", help="JSON config file; flags override its values")
    g.add_argument("--state", help="state descriptor (see --help header)")
    g.add_argument("--delta", type=float, help="position bin width")
    g.add_argument("--delta-p", type=float, dest="delta_p", help="momentum bin width")
    g.add_argument("--hbar", type=float, help="hbar (default 1)")
    g.add_argument("--alpha", type=float, help="entropy order in [1/2, 1]")
    g.add_argument("--sweep-min", type=float, dest="sweep_min")
    g.add_argument("--sweep-max", type=float, dest="sweep_max")
    g.add_argument("--sweep-points", type=int, dest="sweep_points")
    g.add_argument("--sweep-log", type=int, choices=(0, 1), dest="sweep_log",
                   help="1 for log-spaced sweep points, 0 for linear")
    g.add_argument("--grid-umax", type=float, dest="grid_umax",
                   help="region grid upper edge for u = var/width^2")
    g.add_argument("--grid-n", type=int, dest="grid_n", help="region grid points per axis")
    g.add_argument("--samples", type=int, help="sample draws per axis")
    g.add_argument("--seed", type=int, help="RNG seed")
    g.add_argument("--offset-x", type=float, dest="offset_x", help="position grid offset")
    g.add_argument("--offset-p", type=float, dest="offset_p", help="momentum grid offset")
    g.add_argument("--out", help="output path (default stdout)")
    g.add_argument("--format", choices=("csv", "json"), help="table output format")

    p = argparse.ArgumentParser(
        prog="cg-uncert",
        description="Coarse-grained uncertainty relations: bounds, K-function, "
                    "relation checks, forbidden regions, sampling experiments.")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("bounds", parents=[common],
                   help="sweep entropy bounds over dd_over_hbar")
    sub.add_parser("kfun", parents=[common],
                   help="tabulate M, M^-1, K along one sweep axis")
    sub.add_parser("check", parents=[common],
                   help="check all coarse-grained relations for one state")
    sub.add_parser("region", parents=[common],
                   help="scan the forbidden region of scaled variances")
    sub.add_parser("sample", parents=[common],
                   help="finite-statistics experiment vs exact binning")
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = bool(v) if f.name == "sweep_log" else v
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    return cfg


_RUNNERS = {"bounds": cmd_bounds, "kfun": cmd_kfun, "check": cmd_check,
            "region": cmd_region, "sample": cmd_sample}

_INPUT_ERRORS = (DescriptorError, DomainError, WidthMismatch, ValueError)
# ArithmeticError: an overflow or division by zero inside the numerics
_NUMERIC_ERRORS = (NonConvergence, Divergent, InvalidBracket, TailBudgetExceeded, ArithmeticError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _RUNNERS[cfg.command](cfg)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as e:
        print(f"numeric error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
