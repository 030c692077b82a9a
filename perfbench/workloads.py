"""Seeded inputs and operations of the four benchmark workloads.

A workload is a sequence of units; a unit is a list of operations run one
after another by a single caller (closed loop).  Every input -- states,
widths, offsets, alpha values, sample seeds, sweep end points -- comes from
the workload seed, so the same seed gives the same inputs.  Random values
are drawn inside narrow strata so that every seed asks the program for the
same amount of work; the seed changes the inputs, not the cost profile.

Operation results are checked by the functions in gates.py.
"""

from __future__ import annotations

import os
import random
import types
from dataclasses import dataclass, field
from typing import Callable

from cg_uncert import cli

import gates

_LIBRARY = None


def library() -> types.SimpleNamespace:
    """The library API validity_grid calls, imported on first use, so that
    the CLI workloads import nothing but cg_uncert.cli before they are ready.
    Calls go through this namespace, where the tracer rebinds them."""
    global _LIBRARY
    if _LIBRARY is None:
        from cg_uncert import bounds, coarse, states
        _LIBRARY = types.SimpleNamespace(
            binned_relation_reports=bounds.binned_relation_reports,
            bin_density=coarse.bin_density,
            position_density=states.position_density,
            momentum_density=states.momentum_density,
            Gaussian=states.Gaussian, HermiteGauss=states.HermiteGauss,
            Mixture=states.Mixture, SquareWell=states.SquareWell)
    return _LIBRARY


@dataclass
class Op:
    """One closed-loop call: run() does the work the latency covers,
    check(result) says whether the output is correct."""

    run: Callable[[], object]
    check: Callable[[object], bool]
    work: int
    outputs: tuple = ()  # files run() writes and check() reads


@dataclass
class Workload:
    name: str
    inputs: list  # one entry per unit, generated during set-up
    make_unit: Callable[[object], list]  # unit inputs -> list of Op
    meta: dict = field(default_factory=dict)


# (size knob) -> value; "tiny" is the self-test scale
SIZES = {
    "full": {
        "deck_strata": 10, "check_width_range": (-1.5, 1.5),
        "grid_states": 6, "grid_widths": 6, "grid_width_range": (-1.5, 1.5),
        "bounds_points": 160, "kfun_points": 400, "region_n": 96,
        "samples": 1_000_000, "sw_delta_p": 0.03,
    },
    "tiny": {
        "deck_strata": 2, "check_width_range": (0.0, 1.5),
        "grid_states": 2, "grid_widths": 2, "grid_width_range": (0.0, 1.0),
        "bounds_points": 50, "kfun_points": 50, "region_n": 16,
        "samples": 10_000, "sw_delta_p": 0.3,
    },
}

# Units are generated during set-up, so their count is capped: enough for a
# 60-second run of a program several times faster than today's.  A run that
# uses them all stops early.  A kernel_sweep unit takes about 0.5 s, the
# others several seconds.
_MAX_UNITS = 80
_MAX_SWEEP_UNITS = 600


def _rng(workload: str, seed: int, unit: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{unit}")


def _log_stratum(rng: random.Random, lo: float, hi: float, k: int, n: int,
                 jitter: float = 0.2) -> float:
    """10**x with x near the centre of the k-th of n equal strata of [lo, hi]."""
    step = (hi - lo) / n
    x = lo + step * (k + 0.5 + jitter * (rng.random() - 0.5))
    return 10.0 ** min(max(x, lo), hi)


def _f(x: float) -> str:
    return repr(float(x))


def _cli_op(argv: list, out: str, check, work: int) -> Op:
    def run():
        return cli.main(argv)
    return Op(run=run, check=lambda rc: check(rc, out), work=work, outputs=(out,))


# ---------------------------------------------------------------------------
# check_stream: independent `cg-uncert check` calls over the whole catalog


def _check_templates(rng: random.Random) -> list:
    """One descriptor per catalog kind; square wells stay fixed because their
    momentum tails set the cost."""
    def u(a, b):
        return rng.uniform(a, b)

    w = u(0.3, 0.7)
    v = u(0.4, 0.6)
    return [
        f"gaussian:x0={_f(u(-2, 2))},p0={_f(u(-2, 2))},sigma={_f(10 ** u(-0.3, 0.3))}",
        f"hermite:n=2,sigma={_f(10 ** u(-0.2, 0.2))}",
        f"hermite:n=7,sigma={_f(10 ** u(-0.2, 0.2))}",
        "squarewell:n=1",
        "squarewell:n=3,L=1.5",
        f"mix:{_f(w)}*gaussian:x0={_f(u(-2, 0))},sigma={_f(10 ** u(-0.2, 0.2))}"
        f"+{_f(1.0 - w)}*gaussian:x0={_f(u(0, 2))},p0={_f(u(-1, 1))},"
        f"sigma={_f(10 ** u(-0.2, 0.2))}",
        f"mix:{_f(v)}*squarewell:n=2+{_f(1.0 - v)}*gaussian:x0={_f(u(0, 1))},"
        f"sigma={_f(10 ** u(-0.5, 0.0))}",
    ]


def check_stream(seed: int, tmp: str, size: str = "full") -> Workload:
    cfg = SIZES[size]
    strata = cfg["deck_strata"]
    lo, hi = cfg["check_width_range"]
    out = os.path.join(tmp, "check.json")

    def deck(i: int) -> list:
        # every template meets every momentum-width stratum once per deck; the
        # position widths follow a seeded permutation of the same strata
        rng = _rng("check_stream", seed, i)
        calls = []
        for desc in _check_templates(rng):
            ks = list(range(strata))
            rng.shuffle(ks)
            for kp, kx in enumerate(ks):
                dx = _log_stratum(rng, lo, hi, kx, strata)
                dp = _log_stratum(rng, lo, hi, kp, strata)
                calls.append(["check", "--state", desc, "--delta", _f(dx),
                              "--delta-p", _f(dp),
                              "--alpha", _f(rng.choice((0.5, 0.75, 1.0))),
                              "--offset-x", _f(rng.uniform(0, dx)),
                              "--offset-p", _f(rng.uniform(0, dp)), "--out", out])
        rng.shuffle(calls)
        return calls

    def make_unit(argvs: list) -> list:
        return [_cli_op(argv, out, gates.check_output, 1) for argv in argvs]

    # every measuring child runs at least one deck, so a full-size run has at
    # least 5 x 70 calls: enough for a 95th percentile with ten beyond it
    per_deck = 7 * strata
    return Workload("check_stream", [deck(i) for i in range(_MAX_UNITS)], make_unit,
                    meta={"unit": f"deck of {per_deck} calls", "op": "one check call",
                          "work": "check calls"})


# ---------------------------------------------------------------------------
# validity_grid: bin once, read many times, through the library API


def _grid_states(rng: random.Random, n: int) -> list:
    def u(a, b):
        return rng.uniform(a, b)

    lib = library()
    Gaussian, HermiteGauss, Mixture, SquareWell = (
        lib.Gaussian, lib.HermiteGauss, lib.Mixture, lib.SquareWell)

    w = u(0.55, 0.65)
    states = [
        Gaussian(u(-0.2, 0.2), u(-0.2, 0.2), 10 ** u(-0.1, 0.1)),
        SquareWell(1, 1.0),
        HermiteGauss(2, 10 ** u(-0.1, 0.1)),
        Gaussian(0.7 + u(-0.2, 0.2), -0.3 + u(-0.2, 0.2), 0.5 * 10 ** u(-0.1, 0.1)),
        SquareWell(3, 1.5),
        Mixture(((w, Gaussian(-1.0 + u(-0.2, 0.2), 0.0, 10 ** u(-0.1, 0.1))),
                 (1.0 - w, Gaussian(2.0 + u(-0.2, 0.2), 0.5, 1.5 * 10 ** u(-0.1, 0.1))))),
    ]
    return states[:n]


def validity_grid(seed: int, tmp: str, size: str = "full") -> Workload:
    cfg = SIZES[size]
    n_w = cfg["grid_widths"]
    lo, hi = cfg["grid_width_range"]

    def grid_inputs(i: int) -> dict:
        rng = _rng("validity_grid", seed, i)
        widths = [_log_stratum(rng, lo, hi, k, n_w, jitter=0.1) for k in range(n_w)]
        return {
            "states": _grid_states(rng, cfg["grid_states"]),
            "widths": widths,
            # two offset pairs per (axis, width)
            "offsets": {(axis, k, q): rng.random() * widths[k]
                        for axis in "xp" for k in range(n_w) for q in (0, 1)},
            "alphas": (0.5, rng.uniform(0.55, 0.95), 1.0),
        }

    def make_unit(inp: dict) -> list:
        # Each library call is one operation: first every (state, axis,
        # width, offset) is binned once, then every report set reads two of
        # those binnings.  A report op fails if a binning it needs failed.
        states, widths, offsets = inp["states"], inp["widths"], inp["offsets"]
        lib = library()
        binned = {}

        def bin_op(i_s, axis, k, q):
            def run():
                make = lib.position_density if axis == "x" else lib.momentum_density
                binned[i_s, axis, k, q] = lib.bin_density(make(states[i_s]), widths[k],
                                                          offsets[(axis, k, q)])
                return binned[i_s, axis, k, q]
            return Op(run=run, check=gates.mass_conserved, work=0)

        def report_op(i_s, kx, kp, q, a):
            def run():
                return lib.binned_relation_reports(binned[i_s, "x", kx, q],
                                                   binned[i_s, "p", kp, q], alpha=a)
            return Op(run=run, check=gates.all_hold, work=1)

        return ([bin_op(i_s, axis, k, q) for i_s in range(len(states)) for axis in "xp"
                 for k in range(n_w) for q in (0, 1)]
                + [report_op(i_s, kx, kp, q, a) for i_s in range(len(states))
                   for kx in range(n_w) for kp in range(n_w) for q in (0, 1)
                   for a in inp["alphas"]])

    n_bins = cfg["grid_states"] * 2 * n_w * 2
    n_reports = cfg["grid_states"] * n_w * n_w * 2 * 3
    return Workload("validity_grid", [grid_inputs(i) for i in range(_MAX_UNITS)],
                    make_unit,
                    meta={"unit": f"one grid pass: {n_bins} binnings, then {n_reports} "
                                  f"report sets",
                          "op": "one bin_density or binned_relation_reports call",
                          "work": "report sets"})


# ---------------------------------------------------------------------------
# kernel_sweep: bounds, kfun and region commands, no binning at all


def kernel_sweep(seed: int, tmp: str, size: str = "full") -> Workload:
    """Each command is one operation.  The sweeps are smaller than a typical
    plot (2000 points, 256x256) so that a run holds a few hundred operations,
    enough for a 95th percentile with ten of them beyond it; each command
    still takes 0.05-0.25 s, so its fixed costs do not dominate."""
    cfg = SIZES[size]
    n_b, n_k, n = cfg["bounds_points"], cfg["kfun_points"], cfg["region_n"]
    paths = {c: os.path.join(tmp, f"{c}.csv") for c in ("bounds", "kfun", "region")}

    def sweep_round(i: int) -> list:
        rng = _rng("kernel_sweep", seed, i)
        # the bounds sweep always spans the R = B_1 crossover near dd/hbar = 6.5
        b = ["bounds", "--sweep-min", _f(10 ** rng.uniform(-2.1, -1.9)),
             "--sweep-max", _f(10 ** rng.uniform(1.9, 2.1)),
             "--sweep-points", str(n_b), "--alpha", _f(rng.uniform(0.5, 1.0)),
             "--out", paths["bounds"]]
        k = ["kfun", "--sweep-min", _f(10 ** rng.uniform(-6.0, -5.9)),
             "--sweep-max", _f(10 ** rng.uniform(5.9, 6.0)),
             "--sweep-points", str(n_k), "--out", paths["kfun"]]
        r = ["region", "--delta", _f(10 ** rng.uniform(-0.5, 0.5)),
             "--delta-p", _f(10 ** rng.uniform(-0.5, 0.5)),
             "--grid-umax", _f(rng.uniform(0.5, 2.0)), "--grid-n", str(n),
             "--out", paths["region"]]
        return [b, k, r]

    gated = ((gates.bounds_output(n_b), n_b), (gates.kfun_output(n_k), n_k),
             (gates.region_output(n * n), n * n))

    def make_unit(argvs: list) -> list:
        return [_cli_op(argv, argv[-1], gate, rows) for argv, (gate, rows) in zip(argvs, gated)]

    return Workload("kernel_sweep", [sweep_round(i) for i in range(_MAX_SWEEP_UNITS)],
                    make_unit,
                    meta={"unit": f"bounds ({n_b} points), kfun ({n_k} points), "
                                  f"region ({n}x{n})",
                          "op": "one command", "work": "output rows"})


# ---------------------------------------------------------------------------
# sample_run: the finite-statistics experiment at 1e6 draws per axis


def sample_run(seed: int, tmp: str, size: str = "full") -> Workload:
    cfg = SIZES[size]
    n = cfg["samples"]

    def sample_round(i: int) -> list:
        rng = _rng("sample_run", seed, i)
        argvs = []
        for state, dx, dp in (("squarewell:n=3", 10 ** rng.uniform(-1.0, 0.0),
                               cfg["sw_delta_p"]),
                              ("hermite:n=2", 1.0, 1.0)):
            argvs.append(["sample", "--state", state, "--delta", _f(dx), "--delta-p", _f(dp),
                          "--offset-x", _f(rng.uniform(0, dx)),
                          "--offset-p", _f(rng.uniform(0, dp)),
                          "--alpha", _f(rng.choice((0.5, 0.75, 1.0))),
                          "--samples", str(n), "--seed", str(rng.randrange(2 ** 31)),
                          "--out", os.path.join(tmp, f"sample{len(argvs)}.json")])
        return argvs

    def make_unit(argvs: list) -> list:
        # one operation runs the experiment on both states, so its latency
        # is not split between two very different commands
        outs = [argv[-1] for argv in argvs]

        def run():
            return [cli.main(argv) for argv in argvs]

        def check(rcs):
            return all(gates.sample_output(rc, out) for rc, out in zip(rcs, outs))

        return [Op(run=run, check=check, work=2 * n * len(argvs), outputs=tuple(outs))]

    return Workload("sample_run", [sample_round(i) for i in range(_MAX_UNITS)],
                    make_unit,
                    meta={"unit": "one experiment", "op": "the sample command on both states",
                          "work": "draws, both axes"})


WORKLOADS = {
    "check_stream": check_stream,
    "validity_grid": validity_grid,
    "kernel_sweep": kernel_sweep,
    "sample_run": sample_run,
}
