"""Command-line front end.

One parser serves the five subcommands of the command table (_COMMANDS).
Each RunConfig field declares its flag help and config-file key once, in
its metadata, and the parser, the config reader and config_from_args all
read that option table.

State descriptors are one-line, whitespace-free strings:

    state      = simple | mixture
    simple     = kind ":" [pairs] | kind
    kind       = "gaussian" | "hermite" | "squarewell"
    pairs      = key "=" number ("," key "=" number)*
    mixture    = "mix:" weighted ("+" weighted)+
    weighted   = number "*" simple

gaussian takes x0, p0, sigma; hermite takes n, sigma; squarewell takes
n, L.  Omitted keys use the model defaults.  A "+" separates mixture
components only where a weight "*" follows it, so numbers such as 1e+16
keep their sign.  Example: mix:0.6*gaussian:x0=-1+0.4*gaussian:x0=2,sigma=1.5
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .bounds import (
    _check_widths,
    binned_relation_reports,
    bound_B,
    bound_L,
    feasibility_region,
    func_K,
    func_M,
    func_M_inv_and_K,
)
from .coarse import (
    MAX_WIDTH,
    TailBudgetExceeded,
    bin_density,
    discrete_renyi,
    discrete_variance,
    sample_counts,
)
from .numerics import Divergent, NonConvergence
from .states import Gaussian, HermiteGauss, Mixture, SquareWell, momentum_density, position_density

_LN_2PIE_LIN = 2.0 * math.pi * math.e


class DescriptorError(ValueError):
    """State descriptor or config field failed to parse."""


def _opt(default, doc: str, key: Optional[str] = None, choices=None):
    """A RunConfig option: its flag is --<name> with "_" written "-", its
    config-file key is key (default: the field name; "sweep.min" is "min"
    inside the "sweep" object) and doc is its flag help."""
    return field(default=default, metadata={"doc": doc, "key": key, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    command: str = "bounds"
    state: str = _opt("gaussian", "state descriptor (grammar below)")
    delta: float = _opt(1.0, "position bin width")
    delta_p: float = _opt(1.0, "momentum bin width")
    hbar: float = _opt(1.0, "hbar (default 1)")
    alpha: float = _opt(1.0, "entropy order in [1/2, 1]")
    sweep_min: float = _opt(0.01, "first sweep point", "sweep.min")
    sweep_max: float = _opt(100.0, "last sweep point", "sweep.max")
    sweep_points: int = _opt(200, "number of sweep points", "sweep.points")
    sweep_log: bool = _opt(True, "1 for log-spaced sweep points, 0 for linear", "sweep.log")
    grid_umax: float = _opt(1.0, "region grid upper edge for u = var/width^2", "grid.u_max")
    grid_n: int = _opt(64, "region grid points per axis", "grid.n")
    samples: int = _opt(10000, "sample draws per axis")
    seed: int = _opt(0, "RNG seed")
    offset_x: float = _opt(0.0, "position grid offset")
    offset_p: float = _opt(0.0, "momentum grid offset")
    out: Optional[str] = _opt(None, "output path (default stdout)")
    format: str = _opt("csv", "table output format", choices=("csv", "json"))


# the option table: (field name, config key, type from the annotation, metadata)
_TYPES = {"str": str, "Optional[str]": str, "float": float, "int": int, "bool": bool}
_OPTIONS = tuple((f.name, f.metadata["key"] or f.name, _TYPES[f.type], f.metadata)
                 for f in fields(RunConfig) if f.metadata)


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
    n = vals.get("n", 0.0 if kind == "hermite" else 1.0)
    if not math.isfinite(n) or n != int(n):
        raise DescriptorError(f"state field 'n' must be an integer, got {n}")
    if kind == "hermite":
        return HermiteGauss(n=int(n), sigma=vals.get("sigma", 1.0), hbar=hbar)
    length = vals.get("L", 1.0)
    if not (length > 0.0 and math.isfinite(length)):
        raise DescriptorError(f"state field 'L' of {kind!r}: must be positive and finite, "
                              f"got {length}")
    return SquareWell(n=int(n), length=length, hbar=hbar)


def parse_state(text: str, hbar: float = 1.0):
    """Parse a state descriptor (grammar in the module docstring)."""
    if not text:
        raise DescriptorError("empty state descriptor")
    if any(ch.isspace() for ch in text):
        raise DescriptorError("state descriptors must not contain whitespace")
    if not text.startswith("mix:"):
        return _parse_simple(text, hbar)
    comps = []
    for part in re.split(r"\+(?=[^+*]*\*)", text[4:]):
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


def _coerce(field_name: str, value, typ):
    if typ is bool or typ is str:
        if isinstance(value, typ):
            return value
        raise DescriptorError(f"config field {field_name!r} must be "
                              + ("true/false" if typ is bool else "a string"))
    if isinstance(value, bool):
        raise DescriptorError(f"config field {field_name!r} must be a number")
    try:
        if not isinstance(value, (int, float)):
            # a JSON string such as "5" is not a number either
            raise TypeError
        out = typ(value)
    except (TypeError, ValueError, OverflowError):
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
    schema = {}  # config key -> (field, type); "sweep" -> {"min": ..., ...}
    for name, key, typ, _ in _OPTIONS:
        group, _, leaf = key.rpartition(".")
        (schema.setdefault(group, {}) if group else schema)[leaf] = (name, typ)
    out = {}
    for key, value in raw.items():
        entry = schema.get(key)
        if isinstance(entry, dict):
            if not isinstance(value, dict):
                raise DescriptorError(f"config field {key!r} must be an object")
            items = [(f"{key}.{k}", entry.get(k), v) for k, v in value.items()]
        else:
            items = [(key, entry, value)]
        for path_key, found, v in items:
            if found is None:
                raise DescriptorError(f"unknown config field {path_key!r}")
            out[found[0]] = _coerce(path_key, v, found[1])
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
        for name, v in (("sweep.min", cfg.sweep_min), ("sweep.max", cfg.sweep_max)):
            if not math.isfinite(v):
                raise DescriptorError(f"field {name!r} must be finite, got {v}")
        if cfg.sweep_points > 1 and not cfg.sweep_min < cfg.sweep_max:
            raise DescriptorError(
                f"sweep needs min < max, got [{cfg.sweep_min}, {cfg.sweep_max}]")
        # a linear kfun sweep may start at the t = 0 endpoint, a log sweep may
        # not; bounds reads each point as delta_x*delta_p/hbar, a quarter of
        # which must be a normal double
        if cfg.command == "bounds":
            least = 4.0 * sys.float_info.min
            ok, need = cfg.sweep_min >= least, f"at least {least!r}"
        elif cfg.sweep_log:
            ok, need = cfg.sweep_min > 0.0, "positive"
        else:
            ok, need = cfg.sweep_min >= 0.0, "nonnegative"
        if not ok:
            raise DescriptorError(f"field 'sweep.min' must be {need}, got {cfg.sweep_min}")
    if cfg.command == "region":
        if cfg.grid_n < 1:
            raise DescriptorError(f"field 'grid.n' must be at least 1, got {cfg.grid_n}")
        if not (cfg.grid_umax >= 0.0 and math.isfinite(cfg.grid_umax)):
            raise DescriptorError(
                f"field 'grid.u_max' must be nonnegative and finite, got {cfg.grid_umax}")
    if cfg.command == "sample" and cfg.samples < 1:
        raise DescriptorError(f"field 'samples' must be at least 1, got {cfg.samples}")
    if cfg.command in ("check", "sample"):
        for name in ("delta", "delta_p"):  # the variances square the widths
            if not getattr(cfg, name) <= MAX_WIDTH:
                raise DescriptorError(
                    f"field {name!r} must have a finite square, got {getattr(cfg, name)}")
        # HeisPreopt and HeisRect report variance products of at least
        # (delta^2/12) (delta_p^2/12), finite up to this width product
        if not cfg.delta * cfg.delta_p <= 12.0 * MAX_WIDTH:
            raise DescriptorError(
                f"fields 'delta' and 'delta_p' must have a product of at most "
                f"{12.0 * MAX_WIDTH!r}, got {cfg.delta} * {cfg.delta_p}")
        if cfg.seed < 0:
            raise DescriptorError(f"field 'seed' must be nonnegative, got {cfg.seed}")


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
        sink = io.StringIO()
        sink.writelines(f"# {k}={_fmt(meta[k])}\r\n" for k in sorted(meta))
        w = csv.writer(sink)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
        payload = sink.getvalue()
    else:
        doc = {"meta": {k: meta[k] for k in sorted(meta)}, "columns": header,
               "rows": [[(int(v) if isinstance(v, (int, np.integer)) else float(v))
                         for v in row] for row in rows]}
        payload = _json_line(doc)
    _emit(cfg.out, payload)


def _json_line(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(path: Optional[str], payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
        sys.stdout.flush()
        return
    # Write over the old bytes, then cut a regular file at the payload's end:
    # an open that truncates makes ext4 write back at close.  A failed write
    # leaves the file empty, never old bytes that could pass for a report.
    with io.FileIO(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as raw:
        end = 0
        try:
            with open(raw.fileno(), "w", newline="", closefd=False) as f:
                f.write(payload)
            end = raw.tell()
        finally:
            if os.path.isfile(path):
                raw.truncate(end)


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
        t, k = func_M_inv_and_K(x)
        return [x, func_M(x), x, t, k, 1.0 + _LN_2PIE_LIN * x]

    _write_table(cfg, header, _pmap(row, _sweep_values(cfg)), {})
    return 0


def _bin_axes(state, cfg: RunConfig):
    """Both marginals, binned; an error names the fields that place or bin the axis."""
    for marginal, place, width, offset in (
            (position_density, "the state's 'x0' or a well's 'L'", "delta", "offset_x"),
            (momentum_density, "the state's 'p0'", "delta_p", "offset_p")):
        try:
            yield bin_density(marginal(state), getattr(cfg, width), getattr(cfg, offset))
        except ValueError as e:
            raise DescriptorError(f"{e}: placed by {place}, binned at fields {width!r} "
                                  f"and {offset!r}") from e
        except TailBudgetExceeded as e:
            raise TailBudgetExceeded(f"{e}: binned at fields {width!r} and {offset!r}") from e


def cmd_check(cfg: RunConfig) -> int:
    state = parse_state(cfg.state, cfg.hbar)
    _check_widths(cfg.delta, cfg.delta_p, cfg.hbar)  # before binning, as the library checks
    reports = binned_relation_reports(*_bin_axes(state, cfg), cfg.alpha, cfg.hbar)
    _emit(cfg.out, _json_line(_report_dicts(reports)))
    return 0 if all(r.verdict == "holds" for r in reports) else 1


def cmd_region(cfg: RunConfig) -> int:
    axis = [float(v) for v in np.linspace(0.0, cfg.grid_umax, cfg.grid_n)]
    reg = feasibility_region(cfg.delta, cfg.delta_p, axis, axis, cfg.hbar)
    rows = [[ux, up, int(reg.forbidden[i][j])]
            for i, ux in enumerate(reg.u_x) for j, up in enumerate(reg.u_p)]
    meta = {"forbidden_fraction": reg.fraction, "log_rhs_heis": reg.log_rhs}
    _write_table(cfg, ["u_x", "u_p", "forbidden"], rows, meta)
    return 0


def _axis_sample(exact, n, seed, alpha):
    emp = sample_counts(exact, n=n, seed=seed)
    stats = {}
    for tag, b in (("exact", exact), ("empirical", emp)):
        stats[tag] = {"variance": discrete_variance(b),
                      "shannon": discrete_renyi(b, 1.0),
                      "renyi_alpha": discrete_renyi(b, alpha)}
    # draws land only in exact bins with p > 0, so those bins cover every count
    counts = np.zeros(exact.masses.size, dtype=np.int64)
    lo = emp.j_min - exact.j_min
    counts[lo:lo + emp.masses.size] = np.rint(emp.masses * n)
    per_bin = []
    chi2 = 0.0
    for i, (p, observed) in enumerate(zip(exact.masses.tolist(), counts.tolist())):
        expected = n * p
        term = (observed - expected) ** 2 / expected if expected > 0.0 else 0.0
        chi2 += term
        per_bin.append({"bin": exact.j_min + i, "observed": observed, "expected": expected,
                        "chi2_term": term})
    stats["chi2"] = {"total": chi2, "dof": max(len(per_bin) - 1, 1),
                     "per_bin": per_bin}
    stats["width"] = exact.width
    stats["offset"] = exact.offset
    return emp, stats


def cmd_sample(cfg: RunConfig) -> int:
    state = parse_state(cfg.state, cfg.hbar)
    _check_widths(cfg.delta, cfg.delta_p, cfg.hbar)  # before binning, as in cmd_check
    exact_x, exact_p = _bin_axes(state, cfg)
    emp_x, stats_x = _axis_sample(exact_x, cfg.samples, cfg.seed, cfg.alpha)
    emp_p, stats_p = _axis_sample(exact_p, cfg.samples, cfg.seed + 1, cfg.alpha)
    reports = binned_relation_reports(emp_x, emp_p, cfg.alpha, cfg.hbar)
    doc = {"samples": cfg.samples, "seed": cfg.seed, "alpha": cfg.alpha,
           "state": cfg.state, "position": stats_x, "momentum": stats_p,
           "relations": _report_dicts(reports)}
    _emit(cfg.out, _json_line(doc))
    return 0 if all(r.verdict == "holds" for r in reports) else 1


# ---------------------------------------------------------------------------
# entry point


# name -> (runner, help)
_COMMANDS = {
    "bounds": (cmd_bounds, "sweep entropy bounds over dd_over_hbar"),
    "kfun": (cmd_kfun, "tabulate M, M^-1, K along one sweep axis"),
    "check": (cmd_check, "check all coarse-grained relations for one state"),
    "region": (cmd_region, "scan the forbidden region of scaled variances"),
    "sample": (cmd_sample, "finite-statistics experiment vs exact binning"),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  It is built once per process and each call
    returns a shallow copy of it, a new object whose attributes a caller may
    rebind without touching the shared parser: perfbench/tracing.py patches
    parse_args on each parser it returns.  Parsing only reads the shared
    option table."""
    return copy.copy(_shared_parser())


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    commands = "".join(f"  {name:<8}{doc}\n" for name, (_, doc) in _COMMANDS.items())
    grammar = (__doc__ or "").split("\n\n", 2)[-1]  # the module docstring from "State"
    p = argparse.ArgumentParser(
        prog="cg-uncert", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Coarse-grained uncertainty relations: bounds, K-function, relation\n"
                    "checks, forbidden regions, sampling experiments.",
        epilog=f"commands:\n{commands}\n{grammar}")
    p.add_argument("command", choices=_COMMANDS, metavar="command",
                   help="one of the commands listed below")
    p.add_argument("--config", help="JSON config file; flags override its values")
    for name, _, typ, meta in _OPTIONS:
        typ, choices = (int, (0, 1)) if typ is bool else (typ, meta["choices"])
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=typ,
                       choices=choices, help=meta["doc"])
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for name, _, typ, _ in _OPTIONS:
        v = getattr(args, name)
        if v is not None:
            overrides[name] = bool(v) if typ is bool else v
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    return cfg


_INPUT_ERRORS = ValueError  # DescriptorError and DomainError among them
# ArithmeticError: an overflow or division by zero inside the numerics;
# MemoryError: a request too large to allocate
_NUMERIC_ERRORS = (NonConvergence, Divergent, TailBudgetExceeded, ArithmeticError, MemoryError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[cfg.command][0](cfg)
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
