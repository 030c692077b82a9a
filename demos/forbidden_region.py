"""Map the forbidden region of discrete variance pairs.

For any finite bin widths there are variance pairs no physical state can
produce: both rescaled variances too small at once.  The map shrinks as
the product of widths grows but never empties.  Prints an ASCII chart
(# forbidden, . allowed) on a log grid of rescaled variances.
"""

import numpy as np

from cg_uncert.bounds import feasibility_region


def chart(dd):
    grid = np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 23)))
    region = feasibility_region(dd, 1.0, grid)
    print(f"dd/hbar = {dd:g}   forbidden fraction {region.fraction:.4f}   "
          f"log rhs {region.log_rhs:.4e}")
    for i in range(len(grid) - 1, -1, -1):
        row = "".join("#" if region.forbidden[ix][i] else "."
                      for ix in range(len(grid)))
        label = f"{grid[i]:8.1e}" if i % 4 == 0 else " " * 8
        print(f"  {label} {row}")
    print(f"  {'':8} {'^u_x -> 1.0 (log scale), origin at left':<40}\n")


def main():
    for dd in (1.0, 10.0, 100.0):
        chart(dd)
    print("the origin stays forbidden at every coarseness: zero discrete")
    print("variance in both position and momentum is never attainable")


if __name__ == "__main__":
    main()
