"""Self-test of the benchmark at a tiny size (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * every workload prints, in both modes, exactly the metrics BENCHMARK.json
    names, each with its unit, and a correct result;
  * the traced run attaches _pmap rows to their parent and reports no
    negative self time, and kernel_sweep does no binning;
  * each gate passes a real output and rejects a deliberately corrupted copy,
    and a run whose results are corrupted counts every operation as failed
    (the corruption happens here, on the outputs, never in src/);
  * the benchmark refuses to run, without printing a result, in a directory
    that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TMP = os.path.join(ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")

sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def expect(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# printed metrics


def test_metrics_printed() -> None:
    spec = _spec()
    for w in bench.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = _run(w, trace)
            expect(r.returncode == 0, f"{w} trace {trace}: exit {r.returncode}\n{r.stderr}")
            lines = r.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{w}: result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace {trace}: {res['failed']} of {res['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = res["metrics"]
            expect(list(got) == list(want), f"{w} trace {trace}: metrics {list(got)}")
            for name, unit in want.items():
                v = got[name]["value"]
                expect(got[name]["unit"] == unit, f"{w}: {name} unit {got[name]['unit']}")
                expect(isinstance(v, (int, float)) and math.isfinite(v), f"{w}: {name} = {v}")
                if trace == 0:
                    expect(v > 0, f"{w}: end-to-end {name} = {v}")
                elif name.endswith("_s"):
                    expect(v >= 0, f"{w}: negative self time {name} = {v}")
            text = "\n".join(lines[:-1])
            expect(text.startswith("provenance: "), f"{w}: no provenance line")
            prov = json.loads(lines[0][len("provenance: "):])
            for key in ("git_sha", "src_sha256", "nproc", "python", "numpy", "scipy",
                        "seed", "CG_UNCERT_THREADS"):
                expect(key in prov, f"{w}: provenance lacks {key}")
            expect("error_rate:" in text, f"{w}: no error_rate line")
            if trace == 0:
                own = bench.aliases(w)
                expect(own, f"{w}: predictions.json names no metric of its own")
                for name in own.values():
                    expect(f"{name} = " in text, f"{w}: {name} not in the summary")
            if trace == 1:
                expect("tracing overhead" in text, f"{w}: no tracing overhead line")
                expect("boundaries not found" not in text, f"{w}: {text}")
                if w == "kernel_sweep":
                    expect(got["coarse.bin_calls"]["value"] == 0, "kernel_sweep binned")
                    rows = got["cli.pmap_rows_s"]["value"]
                    expect(rows > 0, "no pmap row spans")
                    expect(got["cli.pmap_overlap_s"]["value"] >= 0, "negative overlap")


def test_refuses_without_sources() -> None:
    empty = os.path.join(TMP, "empty")
    os.makedirs(empty)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check_stream",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=empty, capture_output=True, text=True, timeout=170)
    expect(r.returncode != 0, "ran without src/")
    expect("{" not in r.stdout, f"printed a result without src/: {r.stdout!r}")


# ---------------------------------------------------------------------------
# gates against corrupted outputs


def _rewrite_json(path: str, edit) -> None:
    with open(path) as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w") as f:
        json.dump(doc, f)


def _drop_last_line(path: str) -> None:
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:-1])


def _flip_verdict(doc) -> None:
    doc[-1]["verdict"] = "violated"


def _inflate_variance(doc) -> None:
    emp = doc["momentum"]["empirical"]
    emp["variance"] *= 1.5


def _skew_counts(doc) -> None:
    """Move 2% of the momentum draws from the fullest bin to the farthest one,
    and report statistics that agree with the moved counts, so that only the
    statistical test can catch it."""
    import gates
    axis, n = doc["momentum"], doc["samples"]
    bins = axis["chi2"]["per_bin"]
    full = max(bins, key=lambda b: b["observed"])
    far = max((b for b in bins if b["expected"] > 0.0), key=lambda b: abs(b["bin"] - full["bin"]))
    full["observed"] -= n // 50
    far["observed"] += n // 50
    stats = gates._moments([(axis["offset"] + b["bin"] * axis["width"], b["observed"] / n)
                            for b in bins if b["observed"] > 0])
    axis["empirical"]["variance"] = stats["var"]
    axis["empirical"]["shannon"] = stats["h"]


# workload -> corrupt(op, result) -> the corrupted result handed to op.check
def _corrupt_check(op, rc):
    _rewrite_json(op.outputs[0], _flip_verdict)
    return rc


def _corrupt_grid(op, result):
    if isinstance(result, list):  # a report set
        return result[:-1] + [dataclasses.replace(result[-1], verdict="violated")]
    return types.SimpleNamespace(probs=result.probs, tail_mass=result.tail_mass + 1e-6)


def _corrupt_sweep(op, rc):
    _drop_last_line(op.outputs[0])
    return rc


def _corrupt_sample(op, rcs):
    for out in op.outputs:
        _rewrite_json(out, _skew_counts)
    return rcs


CORRUPT = {"check_stream": _corrupt_check, "validity_grid": _corrupt_grid,
           "kernel_sweep": _corrupt_sweep, "sample_run": _corrupt_sample}


def _in_process():
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import gates
    import worker
    import workloads
    return gates, worker, workloads


def test_gates_reject_corruption() -> None:
    gates, worker, workloads = _in_process()
    stdout, sys.stdout = sys.stdout, sys.stderr  # the CLI's messages stay off stdout
    try:
        for name, corrupt in CORRUPT.items():
            tmp = os.path.join(TMP, name)
            os.makedirs(tmp)
            wl = workloads.WORKLOADS[name](5, tmp, "tiny")
            clean = worker.run_units(wl, n_units=1)
            expect(clean["failed"] == 0 and clean["attempted"] >= 1,
                   f"{name}: clean run failed {clean['failures']}")
            bad = worker.run_units(wl, n_units=1,
                                   check=lambda op, res: op.check(corrupt(op, res)))
            expect(bad["failed"] == bad["attempted"] == clean["attempted"],
                   f"{name}: {bad['failed']} of {bad['attempted']} corrupted results failed")
            expect(bad["work"] == 0, f"{name}: corrupted work counted")
            expect(not any("raised" in note for note in bad["failures"]),
                   f"{name}: the gate raised instead of rejecting: {bad['failures']}")
    finally:
        sys.stdout = stdout

    # the checks a whole-workload corruption does not reach
    from cg_uncert import cli
    out = os.path.join(TMP, "sample.json")
    stdout, sys.stdout = sys.stdout, sys.stderr
    try:
        rc = cli.main(["sample", "--state", "hermite:n=2", "--delta", "1", "--delta-p", "1",
                       "--samples", "10000", "--out", out])
    finally:
        sys.stdout = stdout
    expect(gates.sample_output(rc, out), "sample gate rejected a real output")
    _rewrite_json(out, _inflate_variance)
    expect(not gates.sample_output(rc, out),
           "sample gate passed a reported variance that disagrees with the counts")
    expect(not gates.mass_conserved(types.SimpleNamespace(probs={0: 0.5, 1: 0.4999},
                                                          tail_mass=0.0)),
           "mass gate passed a distribution summing to 0.9999")
    from cg_uncert.bounds import func_M
    for t in (1e-6, 0.3, 5.0, 80.0):
        expect(abs(gates.func_m(t) / func_M(t) - 1.0) < 1e-13, f"func_m({t})")
    header = ["dd_over_hbar", "B_one", "R"]
    rows = [[x, 1.0 - math.log(x), 1.0 - math.log(x) + (x - 6.5) * (x - 0.1)]
            for x in (0.05, 1.0, 6.0, 7.0, 50.0)]
    expect(len(gates.crossovers(rows, header)) == 2, "crossover count")
    rows = [[x, 0.0, x - 8.0] for x in (1.0, 6.0, 9.0)]
    expect(not gates.bounds_output(3)(0, _table(header, rows)), "crossover at 8 passed")
    expect(not gates.kfun_output(1)(0, _table(["u", "M_inv_u"], [[2.0, 0.3]])),
           "kfun gate passed M(M^-1(u)) != u")


def _table(header, rows) -> str:
    path = os.path.join(TMP, "table.csv")
    with open(path, "w") as f:
        f.write("# meta=1\r\n" + ",".join(header) + "\r\n")
        for row in rows:
            f.write(",".join(repr(v) for v in row) + "\r\n")
    return path


def main() -> int:
    os.makedirs(TMP)
    failed = 0
    try:
        for test in (test_gates_reject_corruption, test_refuses_without_sources,
                     test_metrics_printed):
            try:
                test()
                print(f"PASS {test.__name__}")
            except Exception:
                failed += 1
                print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
