"""Spans and counters recorded at the program's module boundaries.

The tracer rebinds public callables in the namespaces of the modules that
import them (for example ``cg_uncert.bounds.prolate_r00`` or
``cg_uncert.cli.bin_density``) and restores them afterwards; nothing under
src/ is edited.  Each span records its name, start, end, parent span and
operation id and is kept in memory until the run ends.  Counts are taken at
the same boundaries.

Threads: ``cli._pmap`` runs rows on a ThreadPoolExecutor, whose ``map`` does
not carry the caller's context, so the pmap span is attached explicitly as
the parent of every row span.  Rows overlap in time, so a span's self time
is its duration minus the union of its children's intervals (never
negative), and the overlap -- summed child time beyond that union -- is
reported separately.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import threading
import types
from time import perf_counter

import numpy as np

import cg_uncert.bounds as bounds
import cg_uncert.cli as cli
import cg_uncert.coarse as coarse
import cg_uncert.states as states

import workloads

# expected count a bin needs to enter the per-bin z^2 diagnostic
CORE_EXPECTED = 5.0


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, op id)
        self.counts = collections.Counter()
        self.prolate_cs = set()
        self.op_id = 0
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        par = parent if parent is not None else (stack[-1] if stack else 0)
        op = self.op_id
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, par, op))

    def count(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    def spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Rebind owner.attr to make(original); skipped, and listed in
        self.missing, when the program no longer has that name."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def install(self) -> None:
        sp = self.spanned
        # namespaces calling into other layers
        user_ns = (cli, bounds, workloads.library())

        # cli: parsing, the thread pool, the chi-square loop, serialization
        self.patch(cli, "build_parser", self._traced_build_parser)
        self.patch(cli, "config_from_args", lambda f: sp("cli.parse", f))
        self.patch(cli, "parse_state", lambda f: sp("cli.parse", f))
        self.patch(cli, "_pmap", self._traced_pmap)
        self.patch(cli, "_axis_sample", lambda f: sp("cli.chi2", f, self._after_axis_sample))
        self.patch(cli, "_write_table", lambda f: sp("cli.serialize", f))
        self.patch(cli, "_emit", lambda f: sp("cli.serialize", f, self._after_emit))
        self.patch(cli, "json", self._traced_json)

        # states: every density handed to another layer evaluates through a span
        for ns in user_ns:
            for attr in ("position_density", "momentum_density"):
                self.patch(ns, attr, self._traced_density)

        # coarse
        for ns in user_ns:
            self.patch(ns, "bin_density", lambda f: sp("coarse.bin_density", f, self._after_bin))
        for ns in (cli, bounds):
            self.patch(ns, "discrete_variance", lambda f: sp("coarse.stats", f))
            self.patch(ns, "discrete_renyi", lambda f: sp("coarse.stats", f))
        self.patch(cli, "sample_counts", lambda f: sp("coarse.sample_counts", f, self._after_sample))
        self.patch(coarse.BinnedDistribution, "arrays", lambda f: sp("coarse.arrays", f))
        self.patch(coarse, "_clean_block_masses", self._traced_clean_block)
        self.patch(coarse, "_single_bin_mass", self._counted("coarse.bins"))

        # bounds and specfun
        for ns in (cli, bounds):
            self.patch(ns, "bound_L", lambda f: sp("bounds.bound_L", f))
            self.patch(ns, "func_K", lambda f: sp("bounds.func_K", f))
        for ns in user_ns:
            self.patch(ns, "binned_relation_reports", lambda f: sp("bounds.reports", f))
        self.patch(bounds, "find_root_bracketed", self._traced_root)
        self.patch(bounds, "prolate_r00", lambda f: sp("specfun.prolate_r00", f, self._after_prolate))

        # numerics
        for ns in (coarse, states):
            self.patch(ns, "integrate", self._traced_integrate)
            self.patch(ns, "gauss_legendre_panels", self._traced_gl)

    # -- boundary-specific wrappers ----------------------------------------

    def _traced_build_parser(self, build):
        def wrapper():
            parser = self.call("cli.parse", build)
            parse_args = parser.parse_args
            parser.parse_args = lambda *a, **k: self.call("cli.parse", parse_args, a, k)
            return parser
        return wrapper

    def _traced_pmap(self, pmap):
        def wrapper(fn, xs):
            def outer():
                parent = self._stack()[-1]

                def row(x):
                    return self.call("cli.pmap_row", fn, (x,), parent=parent)
                return pmap(row, xs)
            return self.call("cli.pmap", outer)
        return wrapper

    def _traced_json(self, mod):
        proxy = types.SimpleNamespace(**{k: getattr(mod, k) for k in dir(mod)
                                         if not k.startswith("__")})
        proxy.dumps = self.spanned("cli.serialize", mod.dumps)
        return proxy

    def _traced_density(self, make):
        def wrapper(state):
            d = make(state)
            ev = d.eval

            def traced_eval(x):
                self.count("states.eval_points", int(np.size(x)))
                return self.call("states.eval", ev, (x,))
            return dataclasses.replace(d, eval=traced_eval)
        return wrapper

    def _traced_clean_block(self, f):
        def wrapper(d, j_arr, *args, **kwargs):
            self.count("coarse.bins", len(j_arr))
            self._local.in_clean = True
            try:
                return f(d, j_arr, *args, **kwargs)
            finally:
                self._local.in_clean = False
        return wrapper

    def _counted(self, key):
        def make(f):
            def wrapper(*args, **kwargs):
                self.count(key)
                return f(*args, **kwargs)
            return wrapper
        return make

    def _traced_integrate(self, f):
        def wrapper(*args, **kwargs):
            if getattr(self._local, "in_clean", False):
                self.count("coarse.fallback_calls")
            return self.call("numerics.integrate", f, args, kwargs)
        return wrapper

    def _traced_gl(self, f):
        def wrapper(f_vec, lo, hi, order):
            self.count("numerics.gl_points", int(np.size(lo)) * int(order))
            return f(f_vec, lo, hi, order)
        return wrapper

    def _traced_root(self, f):
        def wrapper(fn, *args, **kwargs):
            def counted(t):
                self.count("bounds.root_fevals")
                return fn(t)
            return f(counted, *args, **kwargs)
        return wrapper

    def _after_bin(self, args, kwargs, out) -> None:
        self.count("coarse.bins_kept", len(out.probs))

    def _after_sample(self, args, kwargs, out) -> None:
        n = args[3] if len(args) > 3 else kwargs["n"]
        self.count("coarse.sample_draws", int(n))

    def _after_prolate(self, args, kwargs, out) -> None:
        with self._lock:
            self.prolate_cs.add(float(args[0]))
        self.count("specfun.prolate_terms", out.terms_used)

    def _after_emit(self, args, kwargs, out) -> None:
        self.count("cli.bytes_out", len(args[1]))

    def _after_axis_sample(self, args, kwargs, out) -> None:
        terms = [b["chi2_term"] for b in out[1]["chi2"]["per_bin"]
                 if b["expected"] >= CORE_EXPECTED]
        self.count("coarse.z2_sum", float(sum(terms)))
        self.count("coarse.z2_bins", len(terms))

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple:
        """(self time, inclusive time, child overlap, span count) per name."""
        children = collections.defaultdict(list)
        for s in self.spans:
            children[s[4]].append(s)
        self_t = collections.Counter()
        incl = collections.Counter()
        overlap = collections.Counter()
        n = collections.Counter()
        for sid, name, t0, t1, _, _ in self.spans:
            kids = sorted((max(c[2], t0), min(c[3], t1)) for c in children.get(sid, ()))
            covered = 0.0
            end = t0
            summed = 0.0
            for a, b in kids:
                if b <= a:
                    continue
                summed += b - a
                if b > end:
                    covered += b - max(a, end)
                    end = b
            self_t[name] += max(0.0, (t1 - t0) - covered)
            incl[name] += t1 - t0
            overlap[name] += summed - covered
            n[name] += 1
        return self_t, incl, overlap, n

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> value; *_s metrics are self times."""
        st, incl, ov, n = self.self_times()
        c = self.counts

        def frac(a, b):
            return a / b if b else 0.0

        return {
            "cli.parse_s": st["cli.parse"],
            "cli.pmap_s": incl["cli.pmap"],
            "cli.pmap_rows_s": incl["cli.pmap_row"],
            "cli.pmap_overlap_s": ov["cli.pmap"],
            "cli.chi2_s": st["cli.chi2"],
            "cli.serialize_s": st["cli.serialize"],
            "cli.bytes_out": c["cli.bytes_out"],
            "states.eval_calls": n["states.eval"],
            "states.eval_points": c["states.eval_points"],
            "states.eval_s": st["states.eval"],
            "coarse.bin_calls": n["coarse.bin_density"],
            "coarse.bin_s": st["coarse.bin_density"],
            "coarse.bins": c["coarse.bins"],
            "coarse.bins_kept_frac": frac(c["coarse.bins_kept"], c["coarse.bins"]),
            "coarse.fallback_calls": c["coarse.fallback_calls"],
            "coarse.fallback_frac": frac(c["coarse.fallback_calls"], c["coarse.bins"]),
            "coarse.arrays_calls": n["coarse.arrays"],
            "coarse.arrays_s": st["coarse.arrays"],
            "coarse.stats_s": st["coarse.stats"],
            "coarse.sample_s": st["coarse.sample_counts"],
            "coarse.sample_draws": c["coarse.sample_draws"],
            "coarse.sample_z2_mean": frac(c["coarse.z2_sum"], c["coarse.z2_bins"]),
            "bounds.bound_L_calls": n["bounds.bound_L"],
            "bounds.bound_L_s": st["bounds.bound_L"],
            "bounds.reports_s": st["bounds.reports"],
            "bounds.func_K_calls": n["bounds.func_K"],
            "bounds.func_K_s": st["bounds.func_K"],
            "bounds.root_fevals": c["bounds.root_fevals"],
            "specfun.prolate_calls": n["specfun.prolate_r00"],
            "specfun.prolate_distinct_frac": frac(len(self.prolate_cs), n["specfun.prolate_r00"]),
            "specfun.prolate_s": st["specfun.prolate_r00"],
            "specfun.prolate_terms": c["specfun.prolate_terms"],
            "numerics.quad_calls": n["numerics.integrate"],
            "numerics.quad_s": st["numerics.integrate"],
            "numerics.gl_points": c["numerics.gl_points"],
            "trace.spans": len(self.spans),
        }

    def self_time_table(self) -> dict:
        st, incl, ov, n = self.self_times()
        return {name: {"self_s": st[name], "total_s": incl[name],
                       "overlap_s": ov[name], "spans": n[name]}
                for name in sorted(st, key=st.get, reverse=True)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for sid, name, t0, t1, par, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                    "parent": par, "op": op}) + "\n")
