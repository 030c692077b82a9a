"""Build the two Chebyshev tables behind specfun.prolate_r00 from the mpmath
reference oracles.prolate_mp, or rebuild them and check specfun's copies.

    PYTHONPATH=src python tests/gen_prolate_table.py          # print the tables
    PYTHONPATH=src python tests/gen_prolate_table.py --check  # rebuild and compare

For c in [0, 2], R00(c, 1) = 1 + c^2 S(c^2), and _R00_SERIES is S as a
Chebyshev series in t = c^2/2 - 1.  For c in [2, 380], _G_SERIES is
g(c) = ln[(1 - lambda0) / (4 sqrt(pi c) e^{-2c})] as a Chebyshev series in
x = 2/c, that is in t = (760/c - 191)/189.  Each series is fitted at
first-kind Chebyshev nodes, all interior, so c = 0 is never one, and cut
after its last coefficient of magnitude at least CUT.  A node counts only if
prolate_mp(c, finer=True), with 1.5 times the terms and 40 more digits,
agrees with it.

--check rebuilds both tables and requires each coefficient to equal
specfun's within one ulp, then compares prolate_r00 with the reference on
CHECK_GRID, c values that are not nodes: lambda0 within 2e-15 relative
where it is below 1/2, and 1 - lambda0 within 1e-14 relative (or one
subnormal step) where it is not.  Not collected by pytest.
"""

import argparse
import math
import sys
import time

import mpmath
import numpy as np

from cg_uncert import specfun
from oracles import prolate_mp
from test_specfun import MP_C_GRID, SMALL_C

DPS = 40  # working precision of the fits
CUT = 5e-18
# a log grid and the points the tier-1 tests check
CHECK_GRID = sorted(set(np.geomspace(1e-6, 380.0, 40).tolist()) | set(SMALL_C + MP_C_GRID))
AGREE = mpmath.mpf(10) ** -30


def _s(c, finer):
    return (prolate_mp(c, finer)[0] - 1) / c**2


def _g(c, finer):
    deficit = prolate_mp(c, finer)[1]
    return mpmath.log(deficit / (4 * mpmath.sqrt(mpmath.pi * c))) + 2 * c


# name -> (node count, c at node t, the tabulated function of c)
TABLES = {
    "_R00_SERIES": (24, lambda t: mpmath.sqrt(2 * (t + 1)), _s),
    "_G_SERIES": (96, lambda t: 760 / (189 * t + 191), _g),
}


def build(name: str) -> tuple:
    """The coefficients of one table, fitted at its nodes and cut at CUT."""
    n, c_of_t, f = TABLES[name]
    angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
    values = []
    for a in angles:
        c = c_of_t(mpmath.cos(a))
        v, check = f(c, False), f(c, True)
        if abs(v - check) > AGREE:
            sys.exit(f"{name}: the reference at c = {mpmath.nstr(c, 17)} moves by "
                     f"{mpmath.nstr(abs(v - check), 3)} with more terms and digits")
        values.append(v)
    coeffs = [2 * mpmath.fsum(v * mpmath.cos(k * a) for v, a in zip(values, angles)) / n
              for k in range(n)]
    coeffs[0] /= 2
    keep = max(k for k, v in enumerate(coeffs) if abs(v) >= CUT) + 1
    return tuple(float(v) for v in coeffs[:keep])


def source(name: str, coeffs: tuple) -> str:
    rows = [", ".join(repr(v) for v in coeffs[i:i + 3]) for i in range(0, len(coeffs), 3)]
    return f"{name} = (\n" + "".join(f"    {r},\n" for r in rows) + ")\n"


def check_tables() -> bool:
    ok = True
    for name in TABLES:
        new, old = build(name), getattr(specfun, name)
        off = [k for k in range(max(len(new), len(old)))
               if k >= min(len(new), len(old)) or abs(new[k] - old[k]) > math.ulp(old[k])]
        print(f"{name}: {len(new)} coefficients rebuilt, {len(old)} in specfun, "
              f"{len(off)} differ by more than an ulp")
        ok &= not off
    return ok


def check_grid() -> bool:
    nodes = [t for n, _, _ in TABLES.values()
             for t in np.cos(np.pi * (np.arange(n) + 0.5) / n)]
    worst_lam = worst_deficit = 0.0
    ok = True
    for c in CHECK_GRID:
        t = 0.5 * c * c - 1.0 if c <= 2.0 else (760.0 / c - 191.0) / 189.0
        assert min(abs(t - node) for node in nodes) > 1e-6, f"c = {c} is a node"
        got = specfun.prolate_r00(c)
        _, deficit = prolate_mp(c)
        if got.lambda0 < 0.5:
            err = float(abs(got.lambda0 / (1 - deficit) - 1))
            worst_lam = max(worst_lam, err)
            ok &= err <= 2e-15
        else:
            err = float(abs(got.lambda0_deficit - deficit))
            if deficit >= sys.float_info.min:
                worst_deficit = max(worst_deficit, err / float(deficit))
            ok &= err <= 1e-14 * deficit + 5e-324
        if not ok:
            print(f"c = {c!r}: absolute error {err:.3g}")
            break
    print(f"{len(CHECK_GRID)} c values in [1e-6, 380]: worst relative error "
          f"{worst_lam:.2g} in lambda0 below 1/2, {worst_deficit:.2g} in 1 - lambda0 "
          "above (normal range)")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true",
                   help="rebuild the tables and compare them with specfun's")
    args = p.parse_args(argv)
    start = time.perf_counter()
    with mpmath.workdps(DPS):
        if args.check:
            ok = check_tables() & check_grid()
            print(f"{'ok' if ok else 'FAILED'} in {time.perf_counter() - start:.1f} s")
            return 0 if ok else 1
        for name in TABLES:
            print(source(name, build(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
