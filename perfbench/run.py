"""Benchmark of the cg_uncert pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload check_stream --seed 1 --seconds 50 --trace 0

Workloads (BENCHMARK.json says why each exists; predictions.json says which
per-layer metric should move which end-to-end metric on which workload):

  check_stream   independent `check` calls over every catalog kind
  validity_grid  the acceptance-07 grid through the library API, one call
                 per operation
  kernel_sweep   the bounds, kfun and region commands, one per operation
                 (run by name; not in BENCHMARK.json, see README.md)
  sample_run     the sample command at 1e6 draws per axis (run by name;
                 not in BENCHMARK.json, see README.md)

Every measurement runs in a fresh child interpreter (worker.py), one at a
time, as a closed loop with one caller; the program's own `_pmap` pool is
the only extra thread.  With --trace 0 the run splits --seconds between
CHILDREN measuring children, each looping over its own share of the units,
and prints the end-to-end metrics over all of them.  With --trace 1 it runs
a fixed slice of the workload four times, untraced and traced in turn, and
prints the per-layer metrics, the self time of every span and the tracing
overhead; the spans themselves are written to .perfbench_out/.  Every operation's output is checked (gates.py).  Lines
before the last are a human-readable summary; the last line is the JSON
result.  Stdlib only: the program's dependencies are loaded by the children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# A run is split between this many measuring children, one after another.
# A process keeps the speed it starts with: on a shared 2-vCPU machine the
# same work ran up to 1.5 times slower in one process than in the next, with
# a coefficient of variation of 0.105 between processes against 0.04 within
# one.  Pooling five children averages over that.  setup_s is the median of
# their set-up times.
CHILDREN = 5
BUDGET_S = 170.0  # the whole run, all children included
TMP_DIR = ".perfbench_tmp"
SPANS_DIR = ".perfbench_out"

# kernel_sweep and sample_run are not in BENCHMARK.json (README.md says
# why), so they are run by name only
WORKLOADS = ("check_stream", "validity_grid", "kernel_sweep", "sample_run")


def aliases(workload: str) -> dict:
    """End-to-end metric -> the name predictions.json gives it on workload."""
    with open(os.path.join(HERE, "predictions.json")) as f:
        table = json.load(f)["aliases"]
    return {pair[0]: name for name, pair in table.items()
            if name != "about" and pair[1] == workload}


class BenchError(RuntimeError):
    pass


def _spawn(root: str, mode: str, args, tmp: str, deadline: float, extra=()) -> tuple:
    """Run one worker child; (seconds from spawn to READY, RESULT dict).
    extra: further worker arguments, such as --seconds for a measuring run."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--tmp", tmp, "--src", src, *extra]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time budget used up before the next child")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t_ready = perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY":
        raise BenchError(f"{mode} child failed during set-up (exit code {rc})")
    results = [line[len("RESULT "):] for line in rest.splitlines() if line.startswith("RESULT ")]
    if rc != 0 or not results:
        raise BenchError(f"{mode} child exited with code {rc} and no result")
    return t_ready, json.loads(results[-1])


def percentile(xs: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(xs)
    k = (len(s) - 1) * q / 100.0
    f = math.floor(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "cg_uncert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def _provenance(root: str, args, child: dict) -> dict:
    return {"git_sha": _git_sha(root), "src_sha256": _src_digest(root),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, **child["provenance"]}


def _metric_block(specs: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def _pool(parts: list) -> dict:
    """One result from the measuring children's results."""
    res = dict(parts[0])
    for key in ("latencies", "failures"):
        res[key] = [x for part in parts for x in part[key]]
    for key in ("op_time", "work", "attempted", "failed", "units", "wall"):
        res[key] = sum(part[key] for part in parts)
    res["peak_rss_kb"] = max(part["peak_rss_kb"] for part in parts)
    return res


def measure(root: str, args, spec: dict, tmp: str, deadline: float) -> tuple:
    setups, parts, used = [], [], 0.0
    for k in range(CHILDREN):
        # the time a child leaves unused, short of a whole unit, passes on
        share = (k + 1) * args.seconds / CHILDREN - used
        t_ready, part = _spawn(root, "run", args, tmp, deadline,
                               ["--seconds", repr(share),
                                "--part", str(k), "--parts", str(CHILDREN)])
        setups.append(t_ready)
        parts.append(part)
        used += part["wall"]
    res = _pool(parts)
    lat = res["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,  # the largest child's
        "op_p50_ms": 1e3 * percentile(lat, 50),
        "op_p95_ms": 1e3 * percentile(lat, 95),
        "work_per_s": res["work"] / res["op_time"],
    }
    alias = aliases(args.workload)
    lines = [
        f"{args.workload} seed {args.seed}: {res['units']} units "
        f"({res['meta']['unit']}), {res['attempted']} operations in {res['wall']:.2f} s "
        f"over {len(parts)} children",
        f"  op = {res['meta']['op']}; work = {res['meta']['work']}",
        f"  setup_s (median of {len(setups)}: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
    ]
    for m in spec["end_to_end"]:
        name = m["name"]
        label = f"{alias[name]} = {name}" if name in alias else name
        note = (f"  (n={len(lat)} operations)" if name.startswith("op_") else
                f"  ({res['work']} over {res['op_time']:.3f} s of operations)"
                if name == "work_per_s" else "")
        lines.append(f"  {label}: {values[name]:.6g} {m['unit']}{note}")
    lines.append(f"  error_rate: {res['failed'] / res['attempted']:.6g} "
                 f"({res['failed']} failed / {res['attempted']} attempted)")
    lines += [f"  failure: {n}" for n in res["failures"]]
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": _metric_block(spec["end_to_end"], values)}
    return lines, res, result


def trace(root: str, args, spec: dict, tmp: str, deadline: float) -> tuple:
    # the same slice runs untraced, traced, traced, untraced: the overhead
    # compares like with like and a steady drift in machine speed cancels
    os.makedirs(os.path.join(root, SPANS_DIR), exist_ok=True)
    spans = os.path.join(root, SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    plain = [_spawn(root, "slice", args, tmp, deadline)[1]]
    traced = _spawn(root, "trace", args, tmp, deadline, ["--spans", spans])[1]
    again = _spawn(root, "trace", args, tmp, deadline)[1]
    plain.append(_spawn(root, "slice", args, tmp, deadline)[1])
    t_plain = sum(r["op_time"] for r in plain)
    t_traced = traced["op_time"] + again["op_time"]
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = t_traced / t_plain - 1.0
    lines = [
        f"{args.workload} seed {args.seed} traced: {traced['units']} units, "
        f"{traced['attempted']} operations",
        f"  tracing overhead: {t_plain:.3f} s untraced, {t_traced:.3f} s traced, "
        f"same slice twice each ({values['trace.overhead_frac']:+.1%})",
        f"  spans written to {os.path.relpath(spans, root)}",
        "  self time by span (s): self / total / overlap / spans",
    ]
    for name, row in traced["self_times"].items():
        lines.append(f"    {name:24s} {row['self_s']:10.4f} {row['total_s']:10.4f} "
                     f"{row['overlap_s']:10.4f} {row['spans']:8d}")
    lines += [f"  {m['name']}: {values[m['name']]:.6g} {m['unit']}" for m in spec["per_layer"]]
    if traced["missing"]:
        lines.append("  boundaries not found in the program: " + ", ".join(traced["missing"]))
    runs = plain + [traced, again]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    lines.append(f"  error_rate: {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    lines += [f"  failure: {n}" for r in runs for n in r["failures"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _metric_block(spec["per_layer"], values)}
    return lines, traced, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cg_uncert benchmark (see module docstring)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the self-test")
    args = p.parse_args(argv)
    deadline = perf_counter() + BUDGET_S

    root = os.getcwd()
    for need in (os.path.join("src", "cg_uncert", "cli.py"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of a cg_uncert checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tmp = os.path.join(root, TMP_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        run = trace if args.trace else measure
        lines, child, result = run(root, args, spec, tmp, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, TMP_DIR))
        except OSError:
            pass
    print("provenance: " + json.dumps(_provenance(root, args, child), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
