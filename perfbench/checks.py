"""Correctness checks on the output of one CLI operation.

``check_output(cmd, code, stdout, expect)`` returns None when the report is
right and a one-line reason otherwise.  ``expect`` holds the reference values
from ``oracle.expectations`` (None for ``reproduce``).  Only the standard
library is used, so the measured process loads nothing beyond fdekit.
"""

from __future__ import annotations

import json

REL_TOL = 1e-10
RESIDUAL_MAX = 1e-10
EK_PASS_SLACK = 1e-12
GEVREY_NMAX = 12
KNOWN_RED = {"example2: theta in reference bracket", "example2: gap in reference bracket"}


def _rel_err(x, ref):
    return abs(x - ref) / abs(ref)


def _conditions(cond, expect):
    for key in ("a_l1", "cond2_lhs"):
        val = cond.get(key)
        if val is None or _rel_err(val, expect[key]) > REL_TOL:
            return f"{key} {val!r} differs from reference {expect[key]!r}"
    closed = expect["theta_closed"]
    if closed is not None:
        theta = cond.get("theta")
        if theta is None or _rel_err(theta, closed) > REL_TOL:
            return f"theta {theta!r} differs from closed form {closed!r}"
    if (cond["cond1_ok"] and cond["cond2_ok"]) != expect["ok"]:
        return f"verdict {cond['cond1_ok']}/{cond['cond2_ok']} != expected {expect['ok']}"
    return None


def _solved(sol):
    if sol.get("converged") is not True:
        return "solve did not converge"
    if not sol.get("residual_sup", float("inf")) <= RESIDUAL_MAX:
        return f"residual {sol.get('residual_sup')!r} > {RESIDUAL_MAX}"
    return None


def _check(code, doc, expect):
    if code != (0 if expect["ok"] else 2):
        return f"exit {code}, expected {0 if expect['ok'] else 2}"
    return _conditions(doc["conditions"], expect)


def _solve(code, doc, expect):
    bad = _check(code, doc, expect)
    if bad:
        return bad
    if not expect["ok"]:
        return "solve ran although hypotheses fail" if "solve" in doc else None
    return _solved(doc["solve"])


def _ek(code, doc, expect):
    worst = doc["worst_ratio"]
    if doc["passed"] != (worst <= 1.0 + EK_PASS_SLACK):
        return f"passed={doc['passed']} disagrees with worst_ratio {worst!r}"
    if worst != max(lv["worst_ratio"] for lv in doc["levels"]):
        return "worst_ratio is not the largest level ratio"
    if code != (0 if doc["passed"] else 2):
        return f"exit {code} disagrees with passed={doc['passed']}"
    return None


def _gevrey(code, doc, expect):
    if not expect["ok"]:
        if code != 2:
            return f"exit {code}, expected 2"
        return _conditions(doc["conditions"], expect)
    if code != 0:
        return f"exit {code}, expected 0"
    bad = _solved(doc["solve"])
    if bad:
        return bad
    if len(doc["derivative_norms"]["values"]) != GEVREY_NMAX:
        return "wrong number of derivative norms"
    if doc["estimate"]["classification"] not in ("analytic-like", "gevrey", "unresolved"):
        return f"unknown classification {doc['estimate']['classification']!r}"
    return None


def _reproduce(code, stdout):
    if code != 3:
        return f"exit {code}, expected 3 (known red reference brackets)"
    text_lines, _, summary = stdout.partition("\n{")
    fails = set()
    for line in text_lines.splitlines():
        status, _, rest = line.partition("  ")
        if status == "FAIL":
            fails.add(rest.partition("  [")[0])
        elif status != "PASS":
            return f"unexpected line {line!r}"
    if fails != KNOWN_RED:
        return f"FAIL lines {sorted(fails)} != known red {sorted(KNOWN_RED)}"
    if json.loads("{" + summary)["ok"] is not False:
        return "summary ok is not false"
    return None


_BY_COMMAND = {"check": _check, "solve": _solve, "ek": _ek, "gevrey": _gevrey}


def check_output(cmd, code, stdout, expect):
    """None if the operation's exit code and report are right, else a reason."""
    try:
        if cmd == "reproduce":
            return _reproduce(code, stdout)
        return _BY_COMMAND[cmd](code, json.loads(stdout), expect)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
