"""Finite-statistics detector simulation.

Draws binned samples from a mixed state's marginals, as exact multinomial
draws over the bin probabilities, builds empirical binnings from the counts
(frequencies counts / n on the exact grid), and compares their discrete
statistics and relation verdicts against the exact ones as the sample count
grows.
"""

import math

from cg_uncert.bounds import binned_relation_reports
from cg_uncert.cli import parse_state
from cg_uncert.coarse import (
    BinnedDistribution,
    bin_density,
    discrete_renyi,
    discrete_variance,
    sample_counts,
)
from cg_uncert.states import momentum_density, position_density


def empirical(exact, n, seed):
    """The binning of n draws from exact: its counts over n, on exact's grid."""
    counts = sample_counts(exact, n, seed=seed)
    return BinnedDistribution(width=exact.width, offset=exact.offset, j_min=exact.j_min,
                              masses=counts / n)


def main():
    state = parse_state("mix:0.6*gaussian:x0=-1+0.4*gaussian:x0=2,sigma=1.5")
    width = 0.7
    rho_x, rho_p = position_density(state), momentum_density(state)
    exact_x = bin_density(rho_x, width)
    exact_p = bin_density(rho_p, width)
    var_ref = discrete_variance(exact_x)
    ent_ref = discrete_renyi(exact_x, 1.0)
    print(f"exact position stats at width {width}: "
          f"var {var_ref:.6f}, H {ent_ref:.6f}")
    print(f"{'n':>9} {'emp var':>10} {'var err':>10} {'emp H':>9} "
          f"{'H err':>10}")
    for n in (100, 1000, 10000, 100000, 1000000):
        emp = empirical(exact_x, n, seed=42)
        var = discrete_variance(emp)
        ent = discrete_renyi(emp, 1.0)
        print(f"{n:>9d} {var:>10.5f} {abs(var - var_ref):>10.2e} "
              f"{ent:>9.5f} {abs(ent - ent_ref):>10.2e}")
    print("errors shrink roughly like 1/sqrt(n); single-seed noise aside\n")

    n = 200000
    emp_x = empirical(exact_x, n, seed=7)
    emp_p = empirical(exact_p, n, seed=8)
    print(f"relation verdicts from {n} samples per axis:")
    exact_reports = binned_relation_reports(exact_x, exact_p)
    emp_reports = binned_relation_reports(emp_x, emp_p)
    for ex, em in zip(exact_reports, emp_reports):
        print(f"  {ex.relation_id:<14} exact margin {ex.margin:>12.6f}  "
              f"empirical margin {em.margin:>12.6f}  [{em.verdict}]")


if __name__ == "__main__":
    main()
