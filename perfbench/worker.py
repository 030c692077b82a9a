"""Child interpreter of the benchmark: one fresh process per measurement.

Started by run.py with src/ on PYTHONPATH.  It imports cg_uncert.cli,
generates the workload's inputs from the seed, prints READY, runs, and
prints one ``RESULT <json>`` line.  Modes:

  run     closed loop over units --part, --part + --parts, ... for --seconds
          (never less than one unit)
  slice   the first unit, untraced
  trace   the first unit with the tracer installed
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

_MAX_FAILURE_NOTES = 5


def run_units(workload, seconds=None, n_units=None, tracer=None, check=None) -> dict:
    """Run units one operation at a time until n_units are done or, with
    seconds, until the next unit would end after the time is up (never fewer
    than one unit).  check(op, result) overrides op.check."""
    latencies = []
    work = attempted = failed = done = 0
    notes = []
    t_start = perf_counter()
    for inp in workload.inputs:
        t_unit = perf_counter()
        for op in workload.make_unit(inp):
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
            t0 = perf_counter()
            try:
                result = op.run()
            except (Exception, SystemExit) as exc:  # argparse exits on bad argv
                latencies.append(perf_counter() - t0)
                failed += 1
                if len(notes) < _MAX_FAILURE_NOTES:
                    notes.append("".join(traceback.format_exception_only(exc)).strip())
                continue
            latencies.append(perf_counter() - t0)
            try:
                ok = op.check(result) if check is None else check(op, result)
            except Exception as exc:
                ok = False
                if len(notes) < _MAX_FAILURE_NOTES:
                    notes.append(f"gate raised {exc!r}")
            del result  # a unit's outputs must not outlive it (peak RSS)
            if ok:
                work += op.work
            else:
                failed += 1
                if len(notes) < _MAX_FAILURE_NOTES and (not notes or "gate" not in notes[-1]):
                    notes.append(f"gate rejected operation {attempted}")
        done += 1
        now = perf_counter()
        if n_units is not None:
            if done >= n_units:
                break
        elif (now - t_start) + (now - t_unit) > seconds:
            break
    return {"latencies": latencies, "op_time": sum(latencies), "work": work,
            "attempted": attempted, "failed": failed, "units": done,
            "wall": perf_counter() - t_start, "failures": notes}


def _provenance() -> dict:
    import numpy
    import scipy

    import cg_uncert
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cg_uncert": cg_uncert.__version__,
            "nproc": os.cpu_count(),
            "CG_UNCERT_THREADS": os.environ.get("CG_UNCERT_THREADS")}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("run", "slice", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--size", default="full")
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--tmp", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--spans", help="trace mode: write the spans here as JSON lines")
    args = p.parse_args()

    # the protocol owns stdout; anything the program prints goes to stderr
    out = sys.stdout
    sys.stdout = sys.stderr

    import cg_uncert.cli  # noqa: F401  (the import users pay for)
    import cg_uncert
    pkg = os.path.realpath(os.path.dirname(cg_uncert.__file__))
    if os.path.dirname(pkg) != os.path.realpath(args.src):
        print(f"cg_uncert imported from {pkg}, not from {args.src}", file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp, args.size)
    out.write("READY\n")
    out.flush()

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        if args.mode == "run":
            wl.inputs = wl.inputs[args.part::args.parts]
            res = run_units(wl, seconds=args.seconds)
        else:
            res = run_units(wl, n_units=1, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    res["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res["provenance"] = _provenance()
    res["meta"] = wl.meta
    if tracer is not None:
        res["layers"] = tracer.layer_metrics()
        res["self_times"] = tracer.self_time_table()
        res["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    out.write("RESULT " + json.dumps(res) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
