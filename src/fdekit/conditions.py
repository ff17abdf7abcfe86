"""Hypothesis checks and solution-ball localisation.

The contraction construction needs two strict inequalities on the data:

  (i)   ||a||_1 * M'(0) < 1, where M is the majorant polynomial of P, which
        makes ||a||_1 * M'(r) = 1 uniquely solvable for r > 0 (theta);
  (ii)  0 < ||b + P(0) a||_1 + |c| < theta - M(theta)/M'(theta).

Under both, H(r) = ||a||_1 M(r) + ||b + P(0)a||_1 + |c| - r has exactly two
positive roots r0 < theta < r1; the closed sup-norm ball of radius r0 is
invariant for the integral operator, which contracts on it with constant
q = ||a||_1 * M'(r0) < 1.

The stages take P (read through P.majorant) and the norms analyze, the one
reader of the Problem, computes.  Each root is one of a convex function, met
by Newton's method from a point where it is positive (0 for r0, _far_start
for theta and r1); verdicts compare exactly and the report has every slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chebfun import DEFAULT_TOL, ResolutionError, build

__all__ = [
    "ConditionsReport",
    "ConditionsError",
    "ThetaUndefinedError",
    "check_condition1",
    "compute_theta",
    "check_condition2",
    "localize_radii",
    "source_mass",
    "analyze",
]

THETA_RESIDUAL_TOL = 1e-12
ROOT_RESIDUAL_TOL = 1e-11
_NEWTON_CAP = 200


class ConditionsError(Exception):
    pass


class ThetaUndefinedError(ConditionsError):
    pass


@dataclass
class ConditionsReport:
    a_l1: float
    cond1_lhs: float
    cond1_ok: bool
    theta: float | None = None
    gap: float | None = None
    cond2_lhs: float | None = None
    cond2_ok: bool = False
    r0: float | None = None
    r1: float | None = None
    q: float | None = None
    slacks: dict = field(default_factory=dict)
    brackets: dict = field(default_factory=dict)
    cheb_tol: float = DEFAULT_TOL
    error: str | None = None

    @property
    def ok(self):
        return self.cond1_ok and self.cond2_ok


def a_l1_norm(p):
    """||a||_1 from the adaptive series representation."""
    return _l1_norm(p, "a", p.a.eval_real)


def source_mass(p):
    """||b + P(0) a||_1 from the adaptive series representation."""
    p0 = p.P.eval(0.0)
    return _l1_norm(p, "b + P(0) a", lambda t: p.b.eval_real(t) + p0 * p.a.eval_real(t))


def _l1_norm(p, name, f):
    """||f||_1 of the data function called name; a ResolutionError names it."""
    try:
        return build(f, p.cheb_tol, p.max_degree).l1_norm()
    except ResolutionError as exc:
        raise ResolutionError(f'"{name}": {exc}') from exc


def check_condition1(P, a_l1):
    """First hypothesis: ||a||_1 * M'(0) < 1, strict.  Returns (lhs, ok)."""
    lhs = a_l1 * P.majorant(0.0, 1)
    return lhs, lhs < 1.0


def compute_theta(P, a_l1):
    """Unique positive root of ||a||_1 * M'(r) = 1.

    Newton runs down the convex g(r) = ||a||_1 M'(r) - 1 from x*
    (_far_start), where g(x*) >= 1; |g(theta)| <= 1e-12 is checked.
    """
    if a_l1 == 0.0:
        raise ThetaUndefinedError("theta undefined: ||a||_1 = 0")
    if P.below_theorem_degree:
        raise ThetaUndefinedError("theta undefined (degenerate polynomial)")
    lhs0 = a_l1 * P.majorant(0.0, 1)
    if not lhs0 < 1.0:
        raise ConditionsError(
            f"||a||_1 * M'(0) = {lhs0!r} >= 1: no positive threshold root"
        )

    def g(r):
        return a_l1 * P.majorant(r, 1) - 1.0

    def gp(r):
        return a_l1 * P.majorant(r, 2)

    theta = _convex_root(g, gp, _far_start(P, a_l1), "threshold")
    if abs(g(theta)) > THETA_RESIDUAL_TOL:
        raise ConditionsError(
            f"threshold root residual {g(theta)!r} exceeds {THETA_RESIDUAL_TOL}"
        )
    return theta


def check_condition2(P, theta, lhs):
    """Second hypothesis: 0 < lhs < theta - M(theta)/M'(theta), where lhs is
    ||b + P(0)a||_1 + |c|.

    Returns (bound, ok); both comparisons are strict.
    """
    bound = theta - P.majorant(theta) / P.majorant(theta, 1)
    ok = (0.0 < lhs) and (lhs < bound)
    return bound, ok


def localize_radii(P, theta, a_l1, cond2_lhs):
    """The two positive roots r0 < theta < r1 of
    H(r) = a_l1 M(r) + cond2_lhs - r, where a_l1 = ||a||_1 and
    cond2_lhs = ||b + P(0)a||_1 + |c|.

    H is convex, decreases strictly on [0, theta] and increases after, so
    Newton runs up to r0 from 0 and down to r1 from x* (_far_start), where
    H > 0 in exact arithmetic.  |H| at each root must be at most
    ROOT_RESIDUAL_TOL * max(1, r).  Returns (r0, r1, certificates) where
    certificates record the brackets (lo, hi, H(lo), H(hi)).
    """

    def H(r):
        return a_l1 * P.majorant(r) + cond2_lhs - r

    def Hp(r):
        return a_l1 * P.majorant(r, 1) - 1.0

    h0 = H(0.0)
    htheta = H(theta)
    if htheta >= 0.0:
        raise ConditionsError(
            "internal: H(theta) >= 0 although the second hypothesis holds"
        )
    if h0 <= 0.0:
        raise ConditionsError("internal: H(0) <= 0 although the lhs is positive")
    r0 = _convex_root(H, Hp, 0.0, "lower-root")
    hi = _far_start(P, a_l1)
    r1 = _convex_root(H, Hp, hi, "upper-root")

    for name, val in (("r0", r0), ("r1", r1)):
        tol = ROOT_RESIDUAL_TOL * max(1.0, val)  # an ulp of r moves H by ~ulp(r)
        if abs(H(val)) > tol:
            raise ConditionsError(f"{name} residual {H(val)!r} exceeds {tol!r}")
    certificates = {
        "r0_bracket": (0.0, theta, h0, htheta),
        "r1_bracket": (theta, hi, htheta, H(hi)),
    }
    return r0, r1, certificates


def _far_start(P, a_l1):
    """x* = min over j >= 2, P_j != 0, of x_j = (a_l1 |P_j|)^(-1/(j-1)).  The j-th term
    alone gives a_l1 M'(x_j) >= j > 1 and H(x_j) >= H(0) > 0, so x* lies past theta and r1.
    A product a_l1 |P_j| that underflows makes x_j overflow (an OverflowError or
    ZeroDivisionError, taken as inf); one that overflows to inf makes x_j 0.0."""
    try:
        x = min((a_l1 * abs(c)) ** (-1.0 / (j - 1)) for j, c in enumerate(P.coeffs) if j > 1 and c)
    except (OverflowError, ZeroDivisionError):
        x = math.inf
    if not 0.0 < x < math.inf:
        raise ConditionsError(f"root search start is not positive and finite (||a||_1 = {a_l1!r})")
    return x


def _convex_root(f, fp, x, name):
    """The root of a convex f that Newton's method reaches from x, f(x) > 0.

    The tangent lies below f, so a step passes the root only by rounding;
    no bracket is kept.  Stops at the first x where f <= 0, a step leaves x
    unchanged or the slope is 0, and raises after _NEWTON_CAP steps.
    """
    for _ in range(_NEWTON_CAP):
        fx = f(x)
        if fx <= 0.0:
            return x
        slope = fp(x)
        if slope == 0.0 or x - fx / slope == x:
            return x
        x -= fx / slope
    raise ConditionsError(f"{name}: no convergence in {_NEWTON_CAP} Newton steps")


def analyze(p):
    """Run every hypothesis check and localisation step into a ConditionsReport
    (failed stages leave later fields None); a failing root search raises."""
    a_l1 = a_l1_norm(p)
    cond1_lhs, cond1_ok = check_condition1(p.P, a_l1=a_l1)
    report = ConditionsReport(
        a_l1=a_l1,
        cond1_lhs=cond1_lhs,
        cond1_ok=cond1_ok,
        cheb_tol=p.cheb_tol,
    )
    report.slacks["cond1"] = 1.0 - cond1_lhs
    if not cond1_ok:
        report.error = "first hypothesis fails: ||a||_1 * M'(0) >= 1"
        return report
    try:
        theta = compute_theta(p.P, a_l1=a_l1)
    except ThetaUndefinedError as exc:
        report.error = str(exc)
        return report
    report.theta = theta

    lhs = source_mass(p) + abs(p.c)
    bound, cond2_ok = check_condition2(p.P, theta, lhs=lhs)
    report.cond2_lhs = lhs
    report.gap = bound
    report.cond2_ok = cond2_ok
    report.slacks["cond2_lower"] = lhs
    report.slacks["cond2_upper"] = bound - lhs
    if not cond2_ok:
        report.error = "second hypothesis fails: mass outside (0, gap)"
        return report

    r0, r1, certs = localize_radii(p.P, theta, a_l1=a_l1, cond2_lhs=lhs)
    report.r0 = r0
    report.r1 = r1
    report.brackets = certs
    report.q = a_l1 * p.P.majorant(r0, 1)
    report.slacks["q_margin"] = 1.0 - report.q
    return report
