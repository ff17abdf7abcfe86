"""Independent reference values for the generated problems.

Norms are computed with ``scipy.integrate.quad`` on the generator's own
parameters (never through fdekit's expression parser or Chebyshev series),
split at every sign change of the integrand, so ``|f|`` is smooth on each
piece.  The hypothesis-2 gap comes from the generator's majorant helpers.
This runs once, untimed, before the measured loop.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from workloads import majorant, theta_and_gap

_GRID = np.linspace(-1.0, 1.0, 20001)
LN2 = math.log(2.0)


def _data(spec):
    """(a, b + P(0) a) as numpy-vectorised callables."""
    fam = spec["family"]
    if fam == "example1":
        alpha, N, beta, gamma = spec["alpha"], spec["N"], spec["beta"], spec["gamma"]
        return (lambda t: alpha * t**N), (lambda t: beta * np.cosh(gamma * t))
    if fam == "example2":
        s = spec["s"]
        return (
            lambda t: 2.0 * LN2 * 2.0**t,
            lambda t: (s * 301.0 * LN2 / 150.0 - 2.0 * LN2) * 2.0**t,
        )
    if fam == "oscillatory":
        A, w, B, v = spec["A"], spec["w"], spec["B"], spec["v"]
        return (lambda t: A * np.cos(w * t)), (lambda t: B * np.sin(v * t))
    raise ValueError(f"unknown family {fam!r}")


def abs_l1(f):
    """Integral of |f| over [-1, 1], split at the sign changes of f."""
    vals = f(_GRID)
    cuts = {-1.0, 1.0, *_GRID[vals == 0.0]}
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        cuts.add(brentq(f, _GRID[i], _GRID[i + 1], xtol=1e-15, rtol=1e-15))
    cuts = sorted(float(x) for x in cuts)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        total += abs(val)
    return total


def expectations(problem):
    """Reference a_l1, cond2_lhs and verdict (plus closed-form theta for
    example1) for one generated problem; raises if the verdict the generator
    built in disagrees with the reference values."""
    doc, spec = problem["doc"], problem["spec"]
    a, src = _data(spec)
    a_l1 = abs_l1(a)
    lhs = abs_l1(src) + abs(doc["c"])
    P = doc["P"]
    ok = a_l1 * majorant(P, 0.0, 1) < 1.0
    if ok:
        _, gap = theta_and_gap(P, a_l1)
        ok = 0.0 < lhs < gap
    if ok != problem["expect_ok"]:
        raise AssertionError(f"{problem['id']}: reference verdict {ok} != built-in")
    theta_closed = None
    if spec["family"] == "example1":
        theta_closed = math.sqrt((spec["N"] + 1) / (6.0 * spec["alpha"]))
    return {"ok": ok, "a_l1": a_l1, "cond2_lhs": lhs, "theta_closed": theta_closed}
