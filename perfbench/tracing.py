"""Span tracing of fdekit from outside, for the benchmark's traced run.

``install(tracer)`` puts a timing wrapper on every public function of the
fdekit modules (rebinding it at every import site, since ``build`` and others
are imported by name), on ``cli.main``, and on the class methods the
per-layer metrics need.  Each call becomes a span ``[id, parent, op, name,
start, end, attrs]`` kept in memory; ``write_spans`` writes them
out at the end.  Wrappers return and raise exactly what the wrapped call
does; ``install`` returns a function that puts the originals back.

``layer_metrics`` turns the spans into the per-layer metrics, per pass over
the workload: ``.s`` is inclusive time, ``.self_s`` is time not covered by
child spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("chebfun", "expr", "problem", "conditions", "picard", "gevrey", "cli")


def _points(x):
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if isinstance(x, (list, tuple)) else 1


def _degree(self, *args, **kwargs):
    return {"degree": self.degree}


def _eval_points(self, x, *args, **kwargs):
    return {"points": _points(x)}


def _solve_result(attrs, sol):
    attrs["iterations"] = sol.iterations
    attrs["degree"] = sol.u.degree


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # id of the operation running now
        self._stack = []

    def call(self, name, fn, args, kwargs, attrs=None, on_return=None):
        stack = self._stack
        span = [len(self.spans), stack[-1][0] if stack else None, self.op, name, 0.0, 0.0, attrs]
        self.spans.append(span)
        stack.append(span)
        span[4] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[6] = dict(attrs or (), failed=1)
            raise
        finally:
            span[5] = perf_counter()
            stack.pop()
        if on_return is not None:
            span[6] = attrs = attrs if attrs is not None else {}
            on_return(attrs, result)
        return result

    def wrap(self, name, fn, on_call=None, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = on_call(*args, **kwargs) if on_call is not None else None
            return self.call(name, fn, args, kwargs, attrs, on_return)

        return wrapper

    def wrap_build(self, fn):
        """chebfun.build, counting the points sampled through its callable."""

        @functools.wraps(fn)
        def build(f, *args, **kwargs):
            attrs = {"samples": 0}

            def counted(x):
                attrs["samples"] += _points(x)
                return f(x)

            def done(attrs, u):
                attrs["grid"] = u.grid_size

            return self.call("chebfun.build", fn, (counted, *args), kwargs, attrs, done)

        return build


def install(tracer):
    """Wrap fdekit's public functions and the traced methods; returns undo()."""
    import importlib

    import fdekit

    mods = {name: importlib.import_module(f"fdekit.{name}") for name in MODULES}
    sites = [fdekit, *mods.values()]
    build, solve = mods["chebfun"].build, mods["picard"].solve
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for short, mod in mods.items():
        names = ["main"] if short == "cli" else list(mod.__all__)
        if short == "conditions":
            names.append("a_l1_norm")
        for fname in names:
            orig = getattr(mod, fname)
            if not callable(orig) or isinstance(orig, type):
                continue
            if orig is build:
                new = tracer.wrap_build(orig)
            else:
                on_return = _solve_result if orig is solve else None
                new = tracer.wrap(f"{short}.{fname}", orig, on_return=on_return)
            for site in sites:
                for attr, val in list(vars(site).items()):
                    if val is orig:
                        patch(site, attr, new)

    methods = [
        (mods["chebfun"].ChebFun, "sup_norm", "chebfun.sup_norm", _degree),
        (mods["chebfun"].ChebFun, "abs_integral", "chebfun.abs_integral", _degree),
        (mods["chebfun"].ChebFun, "eval", "chebfun.eval", _eval_points),
        (mods["chebfun"].ChebFun, "eval_complex", "chebfun.eval_complex", _eval_points),
        (mods["chebfun"].ChebFun, "antiderivative", "chebfun.antiderivative", None),
        (mods["chebfun"].ChebFun, "differentiate", "chebfun.differentiate", None),
        (mods["expr"].Expr, "eval_real", "expr.eval_real", _eval_points),
        (mods["expr"].Expr, "eval_complex", "expr.eval_complex", _eval_points),
        (mods["gevrey"].StadiumRegion, "sample", "gevrey.stadium_sample", None),
        (mods["problem"].Problem, "validate", "problem.validate", None),
        (mods["problem"].Problem, "effective_mu", "problem.effective_mu", None),
    ]
    for cls, attr, name, on_call in methods:
        patch(cls, attr, tracer.wrap(name, vars(cls)[attr], on_call=on_call))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        undo.clear()

    return uninstall


def write_spans(spans, path):
    keys = ("id", "parent", "op", "name", "start", "end", "attrs")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- per-layer metrics ------------------------------------------------------------


def _stats(spans):
    """Per span name: inclusive and self seconds, calls, summed attributes."""
    child = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child[span[1]] += span[5] - span[4]
    stats = defaultdict(lambda: defaultdict(float))
    for span in spans:
        st = stats[span[3]]
        dur = span[5] - span[4]
        st["s"] += dur  # no traced function calls itself, so no span nests in its own name
        st["self_s"] += dur - child[span[0]]
        st["calls"] += 1
        for key, val in (span[6] or {}).items():
            st[key] += val
            st[key + "_max"] = max(st[key + "_max"], val)
    return stats


# (metric, unit, span name, statistic)
_PLAIN = [
    ("chebfun.sup_norm.s", "s", "chebfun.sup_norm", "s"),
    ("chebfun.sup_norm.calls", "count", "chebfun.sup_norm", "calls"),
    ("chebfun.sup_norm.degree_sum", "count", "chebfun.sup_norm", "degree"),
    ("chebfun.abs_integral.s", "s", "chebfun.abs_integral", "s"),
    ("chebfun.abs_integral.calls", "count", "chebfun.abs_integral", "calls"),
    ("chebfun.abs_integral.degree_sum", "count", "chebfun.abs_integral", "degree"),
    ("chebfun.build.s", "s", "chebfun.build", "s"),
    ("chebfun.build.calls", "count", "chebfun.build", "calls"),
    ("chebfun.build.samples", "count", "chebfun.build", "samples"),
    ("chebfun.build.failed", "count", "chebfun.build", "failed"),
    ("chebfun.eval.s", "s", "chebfun.eval", "s"),
    ("chebfun.eval.points", "count", "chebfun.eval", "points"),
    ("chebfun.eval_complex.s", "s", "chebfun.eval_complex", "s"),
    ("chebfun.eval_complex.points", "count", "chebfun.eval_complex", "points"),
    ("expr.eval_real.s", "s", "expr.eval_real", "s"),
    ("expr.eval_real.calls", "count", "expr.eval_real", "calls"),
    ("expr.eval_real.points", "count", "expr.eval_real", "points"),
    ("expr.eval_complex.s", "s", "expr.eval_complex", "s"),
    ("expr.eval_complex.calls", "count", "expr.eval_complex", "calls"),
    ("expr.eval_complex.points", "count", "expr.eval_complex", "points"),
    ("problem.validate.s", "s", "problem.validate", "s"),
    ("problem.effective_mu.s", "s", "problem.effective_mu", "s"),
    ("conditions.analyze.s", "s", "conditions.analyze", "s"),
    ("conditions.a_l1_norm.s", "s", "conditions.a_l1_norm", "s"),
    ("conditions.source_mass.s", "s", "conditions.source_mass", "s"),
    ("conditions.compute_theta.s", "s", "conditions.compute_theta", "s"),
    ("conditions.localize_radii.s", "s", "conditions.localize_radii", "s"),
    ("picard.solve.self_s", "s", "picard.solve", "self_s"),
    ("picard.apply_T.s", "s", "picard.apply_T", "s"),
    ("picard.apply_T.self_s", "s", "picard.apply_T", "self_s"),
    ("picard.apply_T.calls", "count", "picard.apply_T", "calls"),
    ("picard.residual.s", "s", "picard.residual", "s"),
    ("picard.iterations", "count", "picard.solve", "iterations"),
    ("gevrey.check_ek.s", "s", "gevrey.check_ek", "s"),
    ("gevrey.check_ek.calls", "count", "gevrey.check_ek", "calls"),
    ("gevrey.stadium_sample.s", "s", "gevrey.stadium_sample", "s"),
    ("gevrey.omega_sequence.s", "s", "gevrey.omega_sequence", "s"),
    ("gevrey.stadium_inclusion_probe.s", "s", "gevrey.stadium_inclusion_probe", "s"),
    ("gevrey.derivative_norms.s", "s", "gevrey.derivative_norms", "s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
]

# metric name -> unit; every metric but useful_ratio is better lower
UNITS = {name: unit for name, unit, _, _ in _PLAIN}
UNITS.update({
    "chebfun.build.useful_ratio": "ratio",
    "chebfun.calculus.s": "s",
    "picard.degree_max": "count",
    "trace.overhead_share": "ratio",
})


def layer_metrics(spans, passes, overhead_share):
    """Per-layer metrics per pass (degree_max and ratios are not divided)."""
    st = _stats(spans)
    out = {name: st[span][stat] / passes for name, _, span, stat in _PLAIN}
    build = st["chebfun.build"]
    out["chebfun.build.useful_ratio"] = build["grid"] / build["samples"] if build["samples"] else 0.0
    out["chebfun.calculus.s"] = (
        st["chebfun.antiderivative"]["s"] + st["chebfun.differentiate"]["s"]
    ) / passes
    out["picard.degree_max"] = st["picard.solve"]["degree_max"]
    out["trace.overhead_share"] = overhead_share
    return {name: {"value": out[name], "unit": UNITS[name]} for name in UNITS}
