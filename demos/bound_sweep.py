"""Sweep the coarse-graining product and tabulate every lower bound.

Shows where the eigenvalue-based bound R takes over from the additive
entropic bound B_1 and where the g factor switches on.  Run with no
arguments; prints a fixed-width table plus the computed crossover.
"""

import math

import numpy as np

from cg_uncert.bounds import bound_B, bound_L, bound_R


def main():
    grid = np.geomspace(0.01, 100.0, 25)
    print(f"{'dd/hbar':>10} {'B_half':>10} {'B_one':>10} {'R':>12} "
          f"{'L_one':>10} {'g':>10}")
    for dd in grid:
        bset = bound_L(dd, 1.0, 1.0, 1.0)
        b_half = bound_B(dd, 1.0, 1.0, 0.5)
        print(f"{dd:>10.4f} {b_half:>10.5f} {bset.b_alpha:>10.5f} "
              f"{bset.r:>12.5e} {bset.l_alpha:>10.5f} {bset.g:>10.5f}")

    # R - B_1 changes sign once on [5, 8]: bisect it
    lo, hi = 5.0, 8.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if bound_R(mid, 1.0, 1.0) > bound_B(mid, 1.0, 1.0, 1.0):
            hi = mid
        else:
            lo = mid
    cross = 0.5 * (lo + hi)
    print()
    print(f"R overtakes B_1 at dd/hbar = {cross:.6f}")
    print(f"past that point the Shannon lower bound L_1 stays strictly "
          f"positive (R = {bound_R(cross, 1.0, 1.0):.6f} there)")
    print(f"for very fine graining the additive bound wins: at dd/hbar = 0.01 "
          f"the gap R - B_half is {bound_R(0.01, 1, 1) - bound_B(0.01, 1, 1, 0.5):.2e}")


if __name__ == "__main__":
    main()
