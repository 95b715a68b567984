"""Span tracing of `turanvdc` from outside the library.

`Tracer.install` replaces each layer's public functions by timing wrappers,
in the defining module and in every `turanvdc` module that bound the same
function with `from .x import name` (extremal binds `lipschitz_certify`,
properties binds `delta_grid_lp` and `eval_cospoly`, cli binds `fejer`).
`uninstall` puts the originals back, so untraced passes run the library
untouched.

A span is (name, start, end, parent index, op id), kept in memory.  Counts
are recorded at the same boundaries; the "computed" ones are worked out by
the benchmark from the arguments' shapes, not read from inside the library.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from oracle import self_reported_violation


def _count_simplex(counts, args, kwargs, res):
    prob = args[0] if args else kwargs["prob"]
    m, n = prob.A.shape
    inequalities = sum(rel != "=" for rel in prob.relations)
    columns = n + int(prob.free.sum()) + inequalities + m + 1
    counts["lp.simplex.pivots"] += res.iterations
    counts["lp.simplex.cells_computed"] += res.iterations * m * columns
    counts[f"lp.simplex.status.{res.status}"] += 1


def _count_grid(counts, args, kwargs, res):
    if self_reported_violation(res):
        counts["lp.grid.bad_optimal"] += 1


def _count_certify(counts, args, kwargs, res):
    T = args[0] if args else kwargs["T"]
    M = args[1] if len(args) > 1 else kwargs["M"]
    counts["lp.certify.points"] += M + 1
    counts["lp.certify.cos_evals_computed"] += (M + 1) * len(T.coeffs)


def _count_eval(counts, args, kwargs, res):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts["core.eval.points_computed"] += int(np.size(x))


# (module, function, span name, counter)
TARGETS = (
    ("lp", "simplex_solve", "lp.simplex", _count_simplex),
    ("lp", "delta_grid_lp", "lp.grid", _count_grid),
    ("lp", "delta_periodic_lp", "lp.periodic", None),
    ("lp", "turan_relaxed_lp", "lp.turan", None),
    ("lp", "lipschitz_certify", "lp.certify", _count_certify),
    ("lp", "certification_grid", "lp.certgrid", None),
    ("extremal", "build_extremal", "extremal.build", None),
    ("extremal", "verify_membership", "extremal.verify", None),
    ("closed_forms", "turan_value", "closed_forms", None),
    ("closed_forms", "solve_gamma", "closed_forms", None),
    ("kernels", "fejer", "kernels.fejer", None),
    ("core", "eval_cospoly", "core.eval", _count_eval),
    ("properties", "pairing_check", "properties", None),
    ("properties", "check_monotonicity", "properties", None),
    ("properties", "check_dilation", "properties", None),
    ("properties", "check_divisibility_bound", "properties", None),
    ("properties", "check_supermultiplicative", "properties", None),
    ("properties", "vdc_verdict", "properties", None),
)

# counters reported even when a workload never increments them
COUNTS = ("lp.simplex.pivots", "lp.simplex.cells_computed", "lp.simplex.status.Optimal",
          "lp.simplex.status.Infeasible", "lp.simplex.status.Unbounded",
          "lp.simplex.status.IterationLimit", "lp.grid.bad_optimal", "lp.certify.points",
          "lp.certify.cos_evals_computed", "core.eval.points_computed")

# layers reported as busy/self time; each gets .calls, .busy_s and .self_s
LAYERS = ("lp.simplex", "lp.grid", "lp.turan", "lp.certify", "extremal.build",
          "extremal.verify", "closed_forms", "kernels.fejer", "core.eval", "properties")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if counter is not None:
                counter(counts, args, kwargs, res)
            return res
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "turanvdc" or name.startswith("turanvdc."))]
        for mod_name, attr, span, counter in TARGETS:
            orig = getattr(sys.modules[f"turanvdc.{mod_name}"], attr)
            wrapped = self._wrap(span, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def load_child(self, path):
        """Append the spans a traced child process dumped, under the current op."""
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op_id])
        self.counts.update(data["counts"])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_totals(spans) -> dict:
    """Per-layer calls, busy time (outermost spans of that name) and self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name not in out:
            continue
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["busy_s"] += end - start
    return out


def top_level_time(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
