"""Command-line front end: problem files, checks, solves, diagnostics.

Problem files are JSON documents:

    {
      "k": 1.0, "d": 0.0, "c": 0.01,
      "P": [-1.0, 0.125, -1.0, 0.0, 1.0],
      "a": "2*ln(2)*2^t", "b": "(301*ln(2)/150)*2^t", "psi": "sin(t)",
      "mu": 1.0,
      "solver": {"tol": 1e-12, "max_iter": 200, "cheb_tol": 1e-13,
                 "max_degree": 32768}
    }

"P" lists polynomial coefficients in ascending powers; "mu" and "solver" are
optional; unknown keys are rejected.  No command reads a file's "mu" beyond
validating it: only gevrey.omega_sequence uses it, and reproduce calls that
only on the built-in examples, which set mu = 1.  Reports are printed to
stdout as JSON with full float precision; exit codes are a stable contract:
0 success, 2 hypothesis failure, 3 convergence/diagnostic failure, 4 input
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import sys
import time

import numpy as np

from . import conditions, gevrey, picard
from .chebfun import ChebError
from .expr import ExprError, parse
from .problem import SOLVER_RULES, Polynomial, Problem, ProblemError

__all__ = [
    "EXIT_OK",
    "EXIT_HYPOTHESIS",
    "EXIT_FAILURE",
    "EXIT_INPUT",
    "example1_doc",
    "example2_doc",
    "load_problem",
    "load_problem_file",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_FAILURE = 3
EXIT_INPUT = 4

REQUIRED_KEYS = {"k", "d", "c", "P", "a", "b", "psi"}
OPTIONAL_KEYS = {"mu", "solver"}
# Exit code of every fdekit error type that can reach main: bad input and
# data that cannot be evaluated or resolved exit 4, and so does a non-finite
# sample or an unresolved iterate inside the Picard loop (a ResolutionError);
# numerical failures inside the hypothesis checks and PicardErrors exit 3.
# Which code a divergence should have is ROADMAP item 20's to settle.
_EXIT_CODES = {
    ProblemError: EXIT_INPUT,
    ExprError: EXIT_INPUT,
    ChebError: EXIT_INPUT,
    gevrey.GevreyError: EXIT_INPUT,
    conditions.ConditionsError: EXIT_FAILURE,
    picard.PicardError: EXIT_FAILURE,
}

CSV_POINTS = 1000  # grid is x_i = -1 + 2 i / 1000, i = 0..1000

# stderr line of every solve forced past failing hypotheses
FORCED_NOTE = ("warning: solving outside the hypothesis window: no invariant ball; "
               "the solve stops on the contraction ratio it observes")


# --- built-in example problems ----------------------------------------------


def example1_doc(alpha=1.0, beta=0.1, gamma=1.0, N=1):
    """Cubic nonlinearity with power-law weight and cosh source:
    y' = alpha t^N (y(sin t))^3 + beta cosh(gamma t), y(0) = 0."""
    return {
        "k": 1.0,
        "d": 0.0,
        "c": 0.0,
        "P": [0.0, 0.0, 0.0, 1.0],
        "a": f"({alpha!r})*t^{int(N)}",
        "b": f"({beta!r})*cosh(({gamma!r})*t)",
        "psi": "sin(t)",
        "mu": 1.0,
    }


def example2_doc():
    """Quartic nonlinearity with exponential weight:
    y' = 2 ln2 2^t (y(sin t)^4 - y(sin t)^2 + y(sin t)/8 - 1)
         + (301 ln2/150) 2^t,  y(0) = 1/100."""
    return {
        "k": 1.0,
        "d": 0.0,
        "c": 0.01,
        "P": [-1.0, 0.125, -1.0, 0.0, 1.0],
        "a": "2*ln(2)*2^t",
        "b": "(301*ln(2)/150)*2^t",
        "psi": "sin(t)",
        "mu": 1.0,
    }


# --- problem loading ----------------------------------------------------------


def load_problem(doc):
    """Build a Problem from a parsed JSON document.  This checks the
    document's shape and parses the expressions; Problem checks the values."""
    if not isinstance(doc, dict):
        raise ProblemError("problem file must contain a JSON object")
    keys = set(doc)
    unknown = keys - REQUIRED_KEYS - OPTIONAL_KEYS
    if unknown:
        raise ProblemError(f"unknown keys: {sorted(unknown)}")
    missing = REQUIRED_KEYS - keys
    if missing:
        raise ProblemError(f"missing keys: {sorted(missing)}")
    # anything but a list has no coefficients, which from_coeffs rejects
    P = Polynomial.from_coeffs(doc["P"] if isinstance(doc["P"], list) else [])

    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        raise ProblemError('"solver" must be an object')
    unknown = set(solver) - set(SOLVER_RULES)
    if unknown:
        raise ProblemError(f"unknown solver keys: {sorted(unknown)}")

    exprs = {}
    for key in ("a", "b", "psi"):
        if not isinstance(doc[key], str):
            raise ProblemError(f'"{key}" must be an expression string')
        try:
            exprs[key] = parse(doc[key])
        except ExprError as exc:
            raise ProblemError(f'bad expression for "{key}": {exc}') from exc

    return Problem(
        **exprs,
        P=P,
        k=doc["k"],
        d=doc["d"],
        c=doc["c"],
        mu=doc.get("mu"),
        **{SOLVER_RULES[key][0]: value for key, value in solver.items()},
    )


def load_problem_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ProblemError(f"invalid JSON in {path!r}: {exc}") from exc
    return load_problem(doc)


# --- report helpers ------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii  # a str as a quoted JSON string


def _dumps(x, nl="\n"):
    """x as JSON text indented by 2, nl being a newline plus the indent of the
    line its closing bracket goes on: every report becomes JSON here, in one
    walk.  Dataclass records become {field: value} over their repr=True fields
    in declaration order, tuples lists, numpy scalars Python ones, non-finite
    floats null: byte for byte json.dumps(..., indent=2) of the converted value.
    A list of records of one type is written by `_rows` in one pass where
    every leaf is an exact int or float."""
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else "null"
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        text = x and _rows(x, inner) or ",".join([inner + _dumps(v, inner) for v in x])
        return "[" + text + nl + "]" if text else "[]"
    if isinstance(x, dict):
        parts = [inner + _key(k) + _dumps(v, inner) for k, v in x.items()]
    elif isinstance(x, (np.floating, np.integer, np.bool_)):
        return _dumps(x.item())
    else:
        parts = [inner + key + _dumps(getattr(x, name), inner) for name, key in _fields(type(x))]
    return "{" + ",".join(parts) + nl + "}" if parts else "{}"


def _rows(x, inner):
    """The records of the nonempty list or tuple x as list members at indent
    inner, in one pass: the leaves become text in one repr of their list, inf
    and nan null, filled into the type's _row_format; None unless the items
    are records of one type and every leaf is an exact int or float, which
    x[0] is checked for first."""
    row, leaves = _row_format(type(x[0]), inner)
    if row is None or not set(map(type, leaves(x[:1]))) <= {int, float}:
        return None
    if len(set(map(type, x))) > 1:
        return None
    values = leaves(x)
    if not set(map(type, values)) <= {int, float}:
        return None
    text = repr(values)
    if "n" in text:  # no int or finite float repr has one
        text = text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
    return ",".join([row] * len(x)) % tuple(text[1:-1].split(", "))


@functools.cache
def _row_format(cls, inner):
    """(row, leaves): row the %-format of one cls item at indent inner, one %s
    per leaf, and leaves(run) the list of a run's leaves in row order; (None,
    None) unless cls is a dataclass with repr=True fields."""
    fields = _fields(cls) if dataclasses.is_dataclass(cls) else ()
    if not fields:
        return None, None
    get, many = operator.attrgetter(*[name for name, _ in fields]), len(fields) > 1
    row = inner + "{" + ",".join([inner + "  " + key + "%s" for _, key in fields]) + inner + "}"
    return row, lambda run: list(itertools.chain.from_iterable(map(get, run)) if many
                                 else map(get, run))


def _key(k):
    """'"k": ' as json writes an object key: strings ASCII-escaped, float,
    int, bool and None keys as their JSON text in quotes."""
    if isinstance(k, str):
        return _quote(k) + ": "
    if isinstance(k, (int, float)) or k is None:
        return f'"{json.dumps(k)}": '
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


@functools.cache
def _fields(cls):
    """(name, '"name": ') of each repr=True field of dataclass cls, in order."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return tuple((f.name, _key(f.name)) for f in dataclasses.fields(cls) if f.repr)


def _load_and_validate(path):
    """Returns (problem, validation_report) or raises ProblemError."""
    prob = load_problem_file(path)
    report = prob.validate()
    bad = report.failures()
    if bad:
        raise ProblemError(bad[0].detail)
    return prob, report


# --- commands -------------------------------------------------------------------


def cmd_check(path):
    t0 = time.perf_counter()
    prob, vreport = _load_and_validate(path)
    creport = conditions.analyze(prob)
    print(_dumps({
        "validation": vreport,
        "conditions": creport,
        "timing": {"seconds": time.perf_counter() - t0},
    }))
    return EXIT_OK if creport.ok else EXIT_HYPOTHESIS


def cmd_solve(path, tol=None, max_iter=None, out=None, force=False, require_ek=False):
    t0 = time.perf_counter()
    prob, vreport = _load_and_validate(path)
    if tol is not None:
        prob = dataclasses.replace(prob, solve_tol=tol)
    if max_iter is not None:
        prob = dataclasses.replace(prob, max_iter=max_iter)
    if out is not None:
        _check_writable(out)

    report = {"validation": vreport}
    creport = conditions.analyze(prob)
    report["conditions"] = creport

    code, csv_error = EXIT_HYPOTHESIS, None
    ek_ok = True
    if require_ek:
        ek = gevrey.check_ek(prob.psi, prob.k, gevrey.DEFAULT_SCALES, 20, density=64)
        report["diagnostics"] = {"ek": ek}
        ek_ok = ek.passed

    if ek_ok and (creport.ok or force):
        try:
            sol = _solve(prob, creport, force)
        except picard.PicardError as exc:
            report["solve"], code = {"error": str(exc)}, EXIT_FAILURE
        else:
            report["solve"] = sol
            code = EXIT_OK if sol.converged else EXIT_FAILURE
            if out is not None:
                # besides OSError: psi leaving [-1, 1], or data that cannot be
                # evaluated, at a CSV point that is no validation point
                try:
                    _write_csv(out, sol.u, prob)
                except (OSError, ProblemError, ExprError) as exc:
                    code, csv_error = EXIT_INPUT, f"error: cannot write CSV {out!r}: {exc}"

    report["timing"] = {"seconds": time.perf_counter() - t0}
    print(_dumps(report))
    if csv_error is not None:
        print(csv_error, file=sys.stderr)
    return code


def _solve(prob, creport, force):
    """picard.solve on the analysed problem, forced (with FORCED_NOTE on
    stderr) when its hypotheses fail and force is set."""
    forced = force and not creport.ok
    if forced:
        print(FORCED_NOTE, file=sys.stderr)
    return picard.solve(prob, creport, force=forced)


def _check_writable(path):
    """Raise ProblemError unless path can be opened for writing; a file this
    check creates is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ProblemError(f"cannot write CSV {path!r}: {exc}") from exc
    if not existed:
        os.remove(path)


def _write_csv(path, u, prob):
    xs = np.array([-1.0 + 2.0 * i / CSV_POINTS for i in range(CSV_POINTS + 1)])
    uv = u.eval(xs)
    res = np.abs(picard.defect(u, prob, xs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,u,residual\n")
        for x, v, r in zip(xs, uv, res):
            fh.write(f"{float(x)!r},{float(v)!r},{float(r)!r}\n")


def cmd_ek(path, A_list, pmax, density):
    if not 1 <= pmax <= gevrey.MAX_EK_LEVELS:
        raise ProblemError(f"--pmax must be in [1, {gevrey.MAX_EK_LEVELS}]")
    if not 1 <= density <= gevrey.MAX_EK_DENSITY:
        raise ProblemError(f"--density must be in [1, {gevrey.MAX_EK_DENSITY}]")
    # no range gate here: the inclusion check is itself the psi diagnostic,
    # and maps that leave [-1,1] must be reported as failing, not rejected
    prob = load_problem_file(path)
    report = gevrey.check_ek(prob.psi, prob.k, A_list, pmax, density=density)
    print(_dumps(report))
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def cmd_gevrey(path, nmax=None, force=False, selftest=False):
    if selftest:
        synthetic = [float(j) ** (2 * j) for j in range(1, 13)]
        est = gevrey.gevrey_order_estimate(synthetic)
        ok = est.k_hat is not None and abs(est.k_hat - 1.0) <= 0.05
        print(_dumps({"selftest": est, "ok": ok}))
        return EXIT_OK if ok else EXIT_FAILURE
    nmax = 12 if nmax is None else nmax
    if not 1 <= nmax <= gevrey.MAX_DERIVATIVES:
        raise ProblemError(f"--nmax must be in [1, {gevrey.MAX_DERIVATIVES}]")
    prob, _ = _load_and_validate(path)
    creport = conditions.analyze(prob)
    if not creport.ok and not force:
        print(_dumps({"conditions": creport}))
        return EXIT_HYPOTHESIS
    sol = _solve(prob, creport, force)
    if not sol.converged:
        print(_dumps({"solve": sol}))
        return EXIT_FAILURE
    norms = gevrey.derivative_norms(sol.u, n_max=nmax)
    est = gevrey.gevrey_order_estimate(norms.values, norms.flagged)
    print(_dumps({"solve": sol, "derivative_norms": norms, "estimate": est}))
    return EXIT_OK


# --- reference reproduction ------------------------------------------------------

# Reference brackets and values asserted by `reproduce`.
EX2_THETA_BRACKET = (0.1020416497, 0.1020416498)
EX2_GAP_BRACKET = (0.0289635672, 0.0289635673)
EX2_COND1_LHS = 0.375
EX2_COND2_LHS = 0.02
EX1_PARAMS = {"alpha": 1.0, "beta": 0.1, "gamma": 1.0, "N": 1}

SOURCE_TERM_NOTE = (
    "the built-in quartic example uses b = (301*ln(2)/150)*2^t; the variant "
    "(9*ln(2)/500)*2^t sometimes attached to this equation fails the "
    "reference mass ||b+P(0)a||_1 + |c| = 0.02 and is not used"
)


def _hypothesis_checks(name, rep):
    """(label, ok, detail) of the hypothesis-stage checks of a built-in
    example: reference brackets and values for example2, closed forms for
    example1."""
    if name == "example2":
        lo, hi = EX2_THETA_BRACKET
        glo, ghi = EX2_GAP_BRACKET
        return [
            ("theta in reference bracket", rep.theta is not None and lo < rep.theta < hi,
             f"theta={rep.theta!r}"),
            ("gap in reference bracket", rep.gap is not None and glo < rep.gap < ghi,
             f"gap={rep.gap!r}"),
            ("cond1 lhs = 0.375 +- 1e-12",
             abs(rep.cond1_lhs - EX2_COND1_LHS) <= 1e-12, f"lhs={rep.cond1_lhs!r}"),
            ("cond2 lhs = 0.02 +- 1e-10",
             rep.cond2_lhs is not None and abs(rep.cond2_lhs - EX2_COND2_LHS) <= 1e-10,
             f"lhs={rep.cond2_lhs!r}"),
        ]
    alpha, beta, gamma, N = (EX1_PARAMS[key] for key in ("alpha", "beta", "gamma", "N"))
    theta_ref = math.sqrt((N + 1) / (6.0 * abs(alpha)))
    lhs_ref = (2.0 * beta / gamma) * math.sinh(gamma)
    # sufficient reference bound for the second hypothesis; smaller than the
    # report's gap, so lhs < bound_ref implies the strict inequality
    bound_ref = math.sqrt((N + 1) / (24.0 * abs(alpha)))
    return [
        ("theta matches closed form",
         rep.theta is not None and abs(rep.theta - theta_ref) <= 1e-12,
         f"theta={rep.theta!r} ref={theta_ref!r}"),
        ("cond2 lhs matches closed form",
         rep.cond2_lhs is not None and abs(rep.cond2_lhs - lhs_ref) <= 1e-12,
         f"lhs={rep.cond2_lhs!r} ref={lhs_ref!r}"),
        ("lhs below reference bound",
         rep.cond2_lhs is not None and rep.cond2_lhs < bound_ref,
         f"bound_ref={bound_ref!r}"),
        ("reference bound below gap",
         rep.gap is not None and bound_ref <= rep.gap + 1e-12,
         f"gap={rep.gap!r}"),
    ]


def _reproduce_one(name):
    """The PASS/FAIL lines of one built-in example, one per check in a fixed
    order, and its inclusion probe report (None for example1)."""
    prob = load_problem(example2_doc() if name == "example2" else example1_doc(**EX1_PARAMS))
    rep = conditions.analyze(prob)
    sol = picard.solve(prob, rep, keep_iterates=(name == "example2"))
    u0 = sol.u.eval(prob.d)
    bound = picard.coeff_bound(sol.u.coeffs)
    ek = gevrey.check_ek(prob.psi, prob.k, gevrey.DEFAULT_SCALES, 100, density=128)
    checks = _hypothesis_checks(name, rep) + [
        ("both hypotheses pass", rep.ok, rep.error or ""),
        ("solve converged", sol.converged, f"iterations={sol.iterations}"),
        (f"u({prob.d:g}) = {prob.c:g} +- 1e-12", abs(u0 - prob.c) <= 1e-12, f"u0={u0!r}"),
        ("residual <= 1e-10", sol.residual_sup <= 1e-10, f"residual={sol.residual_sup!r}"),
        ("iterates inside invariant ball", picard.within_ball(bound, sol.r0_used),
         f"bound={bound!r} r0={sol.r0_used!r}"),
        ("deviating-map inclusion check passes", ek.passed, f"worst ratio={ek.worst_ratio!r}"),
    ]
    probe = None
    if name == "example2":
        # the largest scale that passed the inclusion check at every level
        tau = max((A for A, first in ek.first_pass_p.items() if first == 1), default=None)
        omega = gevrey.omega_sequence(prob, 0.0, rep.r0, 1, tau)
        s0 = 1.0 / (2.0 * omega.C_est)
        probe = gevrey.stadium_inclusion_probe(
            sol.iterates, rep.r0, prob.k, s0, omega.C_est, range(1, 9)
        )
        checks.append(
            ("iterate continuations inside fattened value interval",
             probe.all_within, f"s_used={probe.s_used!r}")
        )
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {label}" + (f"  [{detail}]" if detail else "")
             for label, ok, detail in checks]
    return lines, probe


def cmd_reproduce(which):
    names = ["example1", "example2"] if which == "all" else [which]
    runs = [_reproduce_one(name) for name in names]
    lines = [line for run_lines, _ in runs for line in run_lines]
    for line in lines:
        print(line)
    ok = all(line.startswith("PASS") for line in lines)
    probes = {"probe": probe for _, probe in runs if probe is not None}
    print(_dumps({"ok": ok, "note": SOURCE_TERM_NOTE, **probes}))
    return EXIT_OK if ok else EXIT_FAILURE


# --- argument parsing --------------------------------------------------------------


def _scales(text):
    try:
        vals = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad scale list {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty scale list")
    return vals


@functools.cache
def _parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fdekit",
        description="check, solve and diagnose functional differential "
        "equations y' = a P(y o psi) + b on [-1, 1]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate and run the hypothesis checks")
    p_check.add_argument("path")
    p_check.set_defaults(run=lambda a: cmd_check(a.path))

    p_solve = sub.add_parser("solve", help="check then solve; optionally dump a CSV")
    p_solve.add_argument("path")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--out", default=None, help="CSV output path (x,u,residual)")
    p_solve.add_argument("--force", action="store_true",
                         help="solve even when the hypotheses fail")
    p_solve.add_argument("--require-ek", action="store_true",
                         help="refuse to solve when the deviating-map "
                         "inclusion sampling check fails")
    p_solve.set_defaults(run=lambda a: cmd_solve(
        a.path, tol=a.tol, max_iter=a.max_iter, out=a.out, force=a.force,
        require_ek=a.require_ek))

    p_ek = sub.add_parser("ek", help="deviating-map stadium inclusion check")
    p_ek.add_argument("path")
    p_ek.add_argument("--A", type=_scales, default=gevrey.DEFAULT_SCALES,
                      help="comma-separated fattening scales")
    p_ek.add_argument("--pmax", type=int, default=100)
    p_ek.add_argument("--density", type=int, default=128)
    p_ek.set_defaults(run=lambda a: cmd_ek(a.path, a.A, a.pmax, a.density))

    p_gevrey = sub.add_parser("gevrey", help="derivative-growth regularity estimate")
    p_gevrey.add_argument("path", nargs="?", default=None)
    p_gevrey.add_argument("--nmax", type=int, default=None)
    p_gevrey.add_argument("--force", action="store_true")
    p_gevrey.add_argument("--selftest", action="store_true",
                          help="fit a synthetic norm sequence instead of a problem")
    p_gevrey.set_defaults(run=lambda a: cmd_gevrey(
        a.path, nmax=a.nmax, force=a.force, selftest=a.selftest))

    p_rep = sub.add_parser("reproduce", help="run the built-in examples against "
                           "their reference values")
    p_rep.add_argument("which", choices=["example1", "example2", "all"])
    p_rep.set_defaults(run=lambda a: cmd_reproduce(a.which))
    return parser


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gevrey" and not args.selftest and args.path is None:
            parser.error("gevrey requires a problem file unless --selftest is given")
        if args.command == "gevrey" and args.selftest and args.path is not None:
            parser.error("gevrey --selftest reads no problem file")
        if args.command == "gevrey" and args.selftest and (args.nmax is not None or args.force):
            parser.error("gevrey --selftest takes no --nmax or --force")
    except SystemExit as exc:
        if exc.code:  # a usage error; --help exits 0
            return EXIT_INPUT
        raise
    try:
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[t] for t in type(exc).__mro__ if t in _EXIT_CODES)


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # a reader closed stdout early: as for an unwritable CSV
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a silent exit flush
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
