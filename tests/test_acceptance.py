"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and enforces its runtime budget.  Tolerances are pinned; do not loosen.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from cg_uncert.bounds import (
    binned_relation_reports,
    bound_B,
    bound_R,
    feasibility_region,
    func_F,
    func_K,
    func_M,
    func_M_inv,
)
from cg_uncert.cli import parse_state
from cg_uncert.coarse import (
    BinnedDistribution,
    GhfSpec,
    ReconstructedPdf,
    bin_density,
    decompose_stats,
    discrete_renyi,
    discrete_variance,
    sample_counts,
)
from cg_uncert.specfun import prolate_r00
from cg_uncert.states import (
    SquareWell,
    catalog_states,
    momentum_density,
    position_density,
    renyi_entropy_cont,
    variance,
)
from oracles import quad, sinc_eigen_oracle

TWO_PI_E = 2.0 * math.pi * math.e


class _outcome:
    """Prints one `acceptance NN label: PASS/FAIL` line per criterion."""

    def __init__(self, num, label, budget_s):
        self.num, self.label, self.budget = num, label, budget_s
        self.note = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        dt = time.perf_counter() - self.t0
        print(f"acceptance {self.num:02d} {self.label}: {status}{extra} [{dt:.1f}s]")
        return False

    def check_budget(self):
        assert time.perf_counter() - self.t0 < self.budget


def test_criterion_01_gaussian_saturation():
    with _outcome(1, "gaussian saturation", 1.0) as out:
        s = parse_state("gaussian:sigma=1")
        rho_x, rho_p = position_density(s), momentum_density(s)
        prod = variance(rho_x) * variance(rho_p)
        assert abs(prod - 0.25) <= 1e-9
        hsum = renyi_entropy_cont(rho_x, 1.0) + renyi_entropy_cont(rho_p, 1.0)
        assert abs(hsum - math.log(math.pi * math.e)) <= 1e-8
        out.check_budget()


def test_criterion_02_bound_sweep():
    with _outcome(2, "bound sweep and crossover", 120.0) as out:
        dd = np.geomspace(0.01, 100.0, 200)
        b_half = np.array([bound_B(v, 1.0, 1.0, 0.5) for v in dd])
        b_one = np.array([bound_B(v, 1.0, 1.0, 1.0) for v in dd])
        r = np.array([bound_R(v, 1.0, 1.0) for v in dd])

        fine = dd <= 0.1
        assert np.all(np.abs(r[fine] - b_half[fine]) < 0.01)
        assert np.all(r >= b_half)

        gap = r - b_one
        flips = np.nonzero(np.sign(gap[:-1]) != np.sign(gap[1:]))[0]
        assert len(flips) == 1
        i = flips[0]
        cross = brentq(lambda v: bound_R(v, 1.0, 1.0) - bound_B(v, 1.0, 1.0, 1.0),
                       dd[i], dd[i + 1], xtol=1e-12)
        assert 5.5 <= cross <= 7.5
        out.note = f"R=B_1 at dd/hbar={cross:.4f}"
        out.check_budget()


def test_criterion_03_dual_method_lambda0():
    with _outcome(3, "dual-method lambda0", 60.0) as out:
        lams = []
        for c in (0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0):
            lam = prolate_r00(c).lambda0
            ref = sinc_eigen_oracle(c)
            assert abs(lam - ref) / lam <= 1e-6
            assert 0.0 < lam < 1.0
            lams.append(lam)
        assert all(a < b for a, b in zip(lams, lams[1:]))
        out.check_budget()


def test_criterion_04_shape_function_chain():
    with _outcome(4, "M/K function chain", 30.0) as out:
        ts = np.geomspace(1e-6, 50.0, 400)
        ms = np.array([func_M(t) for t in ts])
        assert np.all(np.diff(ms) < 0.0)

        us = np.geomspace(1e-6, 1e6, 100)
        for u in us:
            assert abs(func_M(func_M_inv(u)) - u) <= 1e-10 * max(1.0, u)
        assert func_K(0.0) == 1.0
        for u in us:
            assert func_K(u) <= TWO_PI_E * (u + 1.0 / 12.0) * (1.0 + 1e-14)

        rng = np.random.default_rng(4)
        for _ in range(1000):
            u = 10.0 ** rng.uniform(-6.0, 3.0)
            t = 10.0 ** rng.uniform(-6.0, 3.0)
            assert func_F(u, t) >= func_K(u) * (1.0 - 1e-12)
        out.check_budget()


def test_criterion_05_hur_recovery():
    with _outcome(5, "fine-grained limit", 60.0) as out:
        s = parse_state("gaussian:sigma=1")
        rho_x, rho_p = position_density(s), momentum_density(s)
        target = TWO_PI_E ** 2 * 0.25
        gaps = []
        for w in (1e-1, 1e-2, 1e-3):
            ux = discrete_variance(bin_density(rho_x, w)) / w ** 2
            up = discrete_variance(bin_density(rho_p, w)) / w ** 2
            prod = (w ** 2 * func_K(ux)) * (w ** 2 * func_K(up))
            gaps.append(abs(prod - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] / target <= 1e-3
        out.note = f"relative gap {gaps[2] / target:.2e} at width 1e-3"
        out.check_budget()


_DECOMP_TOL = dict(abs_tol=1e-13, rel_tol=1e-12)


def _reconstruction_stats_by_quadrature(recon, binned):
    """Variance and Shannon entropy of the reconstructed density, integrated
    bin by bin (the profile is smooth inside each bin, discontinuous at
    edges)."""
    dens = recon.density()
    p = binned.masses
    j = np.arange(binned.j_min, binned.j_min + p.size)
    lo = binned.offset + (j - 0.5) * binned.width
    hi = lo + binned.width
    i0 = i1 = i2 = ent = 0.0
    for a, b in zip(lo, hi):
        i0 += quad(dens.eval, a, b, **_DECOMP_TOL)
        i1 += quad(lambda x: dens.eval(x) * x, a, b, **_DECOMP_TOL)
        i2 += quad(lambda x: dens.eval(x) * x * x, a, b, **_DECOMP_TOL)

        def neg_xlogx(x):
            w = dens.eval(x)
            return np.where(w > 0.0, -w * np.log(np.where(w > 0.0, w, 1.0)), 0.0)

        ent += quad(neg_xlogx, a, b, **_DECOMP_TOL)
    var = i2 - 2.0 * i1 * i1 + i1 * i1 * i0
    return var, ent


def test_criterion_06_decomposition_identities():
    with _outcome(6, "decomposition identities", 120.0) as out:
        rng = np.random.default_rng(61)
        cat = catalog_states()
        for _ in range(50):
            _, state = cat[rng.integers(len(cat))]
            dens = momentum_density(state) if rng.random() < 0.5 else position_density(state)
            if dens.heavy_tail:
                dens = position_density(state)  # keep bin counts bounded
            eta = 10.0 ** rng.uniform(-1.0, 1.0)
            offset = rng.uniform(0.0, eta)
            if rng.random() < 0.5:
                ghf = GhfSpec()
            else:
                ghf = GhfSpec(t=rng.uniform(0.0, 8.0) * eta ** 2)
            binned = bin_density(dens, eta, offset)
            var_sum, ent_sum = decompose_stats(binned, ghf)
            var_q, ent_q = _reconstruction_stats_by_quadrature(
                ReconstructedPdf(binned, ghf), binned)
            assert abs(var_sum - var_q) <= 1e-8 * max(1.0, abs(var_q))
            assert abs(ent_sum - ent_q) <= 1e-8 * max(1.0, abs(ent_q))
        out.check_budget()


def test_criterion_07_universal_validity():
    with _outcome(7, "universal validity", 600.0) as out:
        widths = np.geomspace(10.0 ** -1.5, 10.0 ** 1.5, 6)
        cat = catalog_states()
        densities = [(position_density(s), momentum_density(s)) for _, s in cat]
        cache = {}

        def binned(i_state, axis, width, offset):
            key = (i_state, axis, width, offset)
            if key not in cache:
                dens = densities[i_state][0 if axis == "x" else 1]
                cache[key] = bin_density(dens, width, offset)
            return cache[key]

        combos = 0
        violations = []
        for i_state in range(len(cat)):
            for dx in widths:
                for dp in widths:
                    for ox, op in ((0.0, 0.0), (dx / 2.0, dp / 2.0)):
                        bx = binned(i_state, "x", dx, ox)
                        bp = binned(i_state, "p", dp, op)
                        for alpha in (0.5, 0.75, 1.0):
                            combos += 1
                            for rep in binned_relation_reports(bx, bp, alpha=alpha):
                                if rep.verdict != "holds":
                                    violations.append(
                                        (cat[i_state][0], dx, dp, ox, op, alpha,
                                         rep.relation_id, rep.margin))
        assert combos >= 200 * 2 * 3
        assert violations == []
        out.note = f"{combos} checks, 0 violations"
        out.check_budget()


def test_criterion_08_forbidden_region():
    with _outcome(8, "forbidden region shrinks", 60.0) as out:
        grid = np.concatenate(([0.0], np.geomspace(1e-6, 0.5, 48)))
        fractions = []
        for dd in (1.0, 10.0, 100.0):
            region = feasibility_region(dd, 1.0, grid)
            assert region.forbidden[0][0]
            fractions.append(region.fraction)
        assert fractions[0] > fractions[1] > fractions[2] > 0.0
        out.note = "fractions " + ", ".join(f"{f:.2e}" for f in fractions)
        out.check_budget()


def test_criterion_09_square_well_zero_position_variance():
    with _outcome(9, "square well extreme binning", 60.0) as out:
        n, length = 10, 1.0
        s = SquareWell(n, length)
        delta_p = 100.0 * math.pi * n / length
        bx = bin_density(position_density(s), length, offset=length / 2.0)
        bp = bin_density(momentum_density(s), delta_p)
        # single bin covering the well: variance vanishes up to the roundoff
        # of the unit bin mass ((1 - p0) * z0 enters the mean squared)
        assert discrete_variance(bx) <= 1e-30
        assert discrete_variance(bp) > 0.0
        reports = binned_relation_reports(bx, bp)
        optimal = reports[3]
        assert optimal.relation_id == "HeisOptimal"
        assert optimal.verdict == "holds"
        out.note = f"momentum variance {discrete_variance(bp):.3f}"
        out.check_budget()


def test_criterion_10_monte_carlo_consistency():
    with _outcome(10, "monte carlo consistency", 60.0) as out:
        s = parse_state("gaussian:sigma=1")
        n = 10 ** 6
        pairs = []
        for dens, seed in ((position_density(s), 314159),
                           (momentum_density(s), 314160)):
            exact = bin_density(dens, 1.0)
            emp = BinnedDistribution(width=exact.width, offset=exact.offset, j_min=exact.j_min,
                                     masses=sample_counts(exact, n, seed=seed) / n)
            pairs.append((exact, emp))

            p = exact.masses
            j = np.arange(exact.j_min, exact.j_min + p.size)
            z = exact.offset + j.astype(float) * exact.width
            m = float(np.dot(p, z))
            v = float(np.dot(p, (z - m) ** 2))
            mu4 = float(np.dot(p, (z - m) ** 4))
            sd_var = math.sqrt(max(mu4 - v * v, 0.0) / n)
            assert abs(discrete_variance(emp) - v) <= 5.0 * sd_var

            logp = np.log(p)
            h = float(-np.dot(p, logp))
            sd_h = math.sqrt(max(float(np.dot(p, logp ** 2)) - h * h, 0.0) / n)
            assert abs(discrete_renyi(emp, 1.0) - h) <= 5.0 * sd_h

        (bx, ex), (bp, ep) = pairs
        exact_verdicts = [r.verdict for r in binned_relation_reports(bx, bp)]
        emp_verdicts = [r.verdict for r in binned_relation_reports(ex, ep)]
        assert emp_verdicts == exact_verdicts
        assert exact_verdicts == ["holds"] * 4
        out.check_budget()
