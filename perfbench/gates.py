"""Correctness gates: each returns True when one operation's output is right.

An operation fails when it raises or its gate returns False; failures feed
the run's `failed` count and its error rate.  The gates read the program's
outputs the way a user would (exit code, the --out file) and recompute what
they check with the standard library only, so a gate never trusts the code
it is checking.
"""

from __future__ import annotations

import csv
import json
import math

VERDICT = "holds"
MASS_TOL = 1e-9
KFUN_TOL = 1e-10
CROSSOVER = (5.5, 7.5)
N_SE = 5.0
REPORT_TOL = 1e-9  # reported statistics against the recomputed ones


def all_hold(reports) -> bool:
    """The four coarse-grained relation reports, all with verdict holds."""
    return len(reports) == 4 and all(r.verdict == VERDICT for r in reports)


def mass_conserved(binned) -> bool:
    """Bin masses plus the recorded tail add up to one."""
    total = math.fsum(binned.probs.values()) + binned.tail_mass
    return abs(total - 1.0) <= MASS_TOL


def check_output(rc: int, path: str) -> bool:
    with open(path) as f:
        reports = json.load(f)
    return (rc == 0 and len(reports) == 4
            and all(r["verdict"] == VERDICT for r in reports))


def _read_table(path: str) -> tuple:
    with open(path, newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def func_m(t: float) -> float:
    """M(t) = exp(-t/4) / (2 sqrt(pi t) erf(sqrt(t)/2)), from its definition."""
    return math.exp(-0.25 * t) / (2.0 * math.sqrt(math.pi * t) * math.erf(0.5 * math.sqrt(t)))


def crossovers(rows: list, header: list) -> list:
    """dd/hbar values where R - B_1 changes sign, linearly interpolated in
    log dd."""
    i_dd, i_b1, i_r = header.index("dd_over_hbar"), header.index("B_one"), header.index("R")
    out = []
    for a, b in zip(rows, rows[1:]):
        ga, gb = a[i_r] - a[i_b1], b[i_r] - b[i_b1]
        if (ga > 0.0) != (gb > 0.0):
            la, lb = math.log(a[i_dd]), math.log(b[i_dd])
            out.append(math.exp(la + (lb - la) * ga / (ga - gb)))
    return out


def bounds_output(n_rows: int):
    def gate(rc: int, path: str) -> bool:
        header, rows = _read_table(path)
        cross = crossovers(rows, header)
        return (rc == 0 and len(rows) == n_rows and len(cross) == 1
                and CROSSOVER[0] <= cross[0] <= CROSSOVER[1])
    return gate


def kfun_output(n_rows: int):
    def gate(rc: int, path: str) -> bool:
        header, rows = _read_table(path)
        i_u, i_t = header.index("u"), header.index("M_inv_u")
        for row in rows:
            u = row[i_u]
            if u > 0.0 and not abs(func_m(row[i_t]) - u) <= KFUN_TOL * max(1.0, u):
                return False
        return rc == 0 and len(rows) == n_rows
    return gate


def region_output(n_rows: int):
    def gate(rc: int, path: str) -> bool:
        _, rows = _read_table(path)
        return rc == 0 and len(rows) == n_rows
    return gate


def _moments(pairs: list) -> dict:
    """Variance, fourth central moment, Shannon entropy and the second moment
    of -ln p of (centre z, probability p) pairs, summed with fsum."""
    z = [zi for zi, _ in pairs]
    p = [pi for _, pi in pairs]
    mean = math.fsum(pi * zi for pi, zi in zip(p, z))
    var = math.fsum(pi * (zi - mean) ** 2 for pi, zi in zip(p, z))
    mu4 = math.fsum(pi * (zi - mean) ** 4 for pi, zi in zip(p, z))
    logs = [math.log(pi) for pi in p]
    h = -math.fsum(pi * li for pi, li in zip(p, logs))
    m2 = math.fsum(pi * li * li for pi, li in zip(p, logs))
    return {"var": var, "mu4": mu4, "h": h, "m2": m2, "bins": len(p)}


def _expected_plugin_entropy(p: list, n: int) -> float:
    """Mean of the plug-in Shannon entropy -sum (k/n) ln(k/n) of n exact
    draws, with each bin's count k ~ Poisson(n p).

    Bins expecting far less than one draw pull it below the exact entropy:
    on the square-well momentum marginal at 1e6 draws the gap is about 2.5
    standard errors, so the test compares against this mean, not against
    the exact entropy itself.
    """
    log_n = math.log(n)
    terms = []
    for q in p:
        lam = n * q
        if lam < 0.01:
            # counts of 1 and 2; larger counts add under 1e-7 of this
            terms.append(math.exp(-lam) * lam * (log_n + lam * (log_n - math.log(2.0))) / n)
        elif lam > 100.0:
            terms.append(-q * math.log(q) - 0.5 * (1.0 - q) / n)
        else:
            pk, k, s = math.exp(-lam), 0, 0.0
            while True:
                k += 1
                pk *= lam / k
                s += pk * k * (log_n - math.log(k))
                if k > lam and pk < 1e-17:
                    break
            terms.append(s / n)
    return math.fsum(terms)


def _same(reported: float, recomputed: float, scale: float) -> bool:
    return abs(reported - recomputed) <= REPORT_TOL * (abs(recomputed) + scale)


def _axis_within_errors(axis: dict, n: int) -> bool:
    """The axis's empirical variance and Shannon entropy lie within N_SE
    standard errors of what n draws from the exact binned distribution give
    on average, and the figures the program reports match them.

    Every figure is recomputed here from the per-bin observed and expected
    counts at the bin centres; the program's discrete statistics are only
    compared with the recomputed values, never used in the test.  The
    standard errors are the first-order ones of the exact bin
    probabilities.  They vanish when every bin centre sits at the same
    distance from the mean (one bin, or two equal bins), where the
    estimators move only at second order, so each is floored at the size of
    its second-order term: 2.5 var/n and sqrt(bins)/n.
    """
    width, offset = axis["width"], axis["offset"]
    bins = axis["chi2"]["per_bin"]
    exact = [(offset + b["bin"] * width, b["expected"] / n) for b in bins if b["expected"] > 0.0]
    seen = [(offset + b["bin"] * width, b["observed"] / n) for b in bins if b["observed"] > 0]
    ex, em = _moments(exact), _moments(seen)
    reported = (_same(axis["exact"]["variance"], ex["var"], 1e-12 * width ** 2)
                and _same(axis["exact"]["shannon"], ex["h"], 1e-12)
                and _same(axis["empirical"]["variance"], em["var"], 1e-12 * width ** 2)
                and _same(axis["empirical"]["shannon"], em["h"], 1e-12))
    se_var = max(math.sqrt(max(ex["mu4"] - ex["var"] ** 2, 0.0) / n), 2.5 * ex["var"] / n)
    se_h = max(math.sqrt(max(ex["m2"] - ex["h"] ** 2, 0.0) / n), math.sqrt(ex["bins"]) / n)
    # the plug-in estimators' means under exact sampling
    var_mean = ex["var"] * (1.0 - 1.0 / n)
    h_mean = _expected_plugin_entropy([p for _, p in exact], n)
    return (reported
            and abs(em["var"] - var_mean) <= N_SE * se_var + 1e-12 * width ** 2
            and abs(em["h"] - h_mean) <= N_SE * se_h + 1e-12)


def sample_output(rc: int, path: str) -> bool:
    with open(path) as f:
        doc = json.load(f)
    n = doc["samples"]
    return (rc == 0 and _axis_within_errors(doc["position"], n)
            and _axis_within_errors(doc["momentum"], n))
