"""Walk through binning a state, reconstructing a density, and checking the
variance/entropy decompositions against the reconstruction's variance and
Shannon entropy taken by quadrature.

A Gaussian marginal is binned at progressively finer widths.  Discrete
statistics converge to the continuous ones from above (each bin adds the
profile variance of the histogram cell), and the reconstruction identities
hold to quadrature precision at every width.  Every per-bin profile is a
GhfSpec(eta, a), exp(-a (u/eta)^2) truncated to the bin, with a >= 0; a = 0
is the flat bin.
"""

from cg_uncert.cli import parse_state
from cg_uncert.coarse import (
    GhfSpec,
    ReconstructedPdf,
    bin_density,
    decompose_stats,
    discrete_renyi,
    discrete_variance,
)
from cg_uncert.states import position_density, renyi_entropy_cont, variance


def main():
    state = parse_state("gaussian:sigma=1")
    dens = position_density(state)

    print("flat profile (a = 0), Gaussian sigma=1")
    print(f"{'width':>8} {'bins':>6} {'discrete var':>14} {'var - 1':>12} "
          f"{'H (nats)':>10}")
    for eta in (2.0, 1.0, 0.5, 0.25):
        binned = bin_density(dens, eta)
        var = discrete_variance(binned)
        ent = discrete_renyi(binned, 1.0)
        print(f"{eta:>8.3f} {binned.masses.size:>6d} {var:>14.8f} "
              f"{var - 1.0:>12.2e} {ent:>10.5f}")
    print("the discrete variance sits eta^2/12 above the continuous value\n")

    eta = 0.8
    binned = bin_density(dens, eta, offset=0.3)
    for label, ghf in (("flat (a=0)", GhfSpec(eta)),
                       ("narrow gaussian (a=4)", GhfSpec(eta, 4.0))):
        var_sum, ent_sum = decompose_stats(binned, ghf)
        dens = ReconstructedPdf(binned, ghf).density()
        var_q, ent_q = variance(dens), renyi_entropy_cont(dens, 1.0)
        print(f"profile {label}:")
        print(f"  variance  decomposition {var_sum:.12f}  quadrature {var_q:.12f}"
              f"  diff {abs(var_sum - var_q):.1e}")
        print(f"  entropy   decomposition {ent_sum:.12f}  quadrature {ent_q:.12f}"
              f"  diff {abs(ent_sum - ent_q):.1e}")


if __name__ == "__main__":
    main()
