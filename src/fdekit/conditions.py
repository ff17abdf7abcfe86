"""Hypothesis checks and solution-ball localisation.

The contraction construction needs two strict inequalities on the data:

  (i)   ||a||_1 * M'(0) < 1, where M is the majorant polynomial of P, which
        makes ||a||_1 * M'(r) = 1 uniquely solvable for r > 0 (theta);
  (ii)  0 < ||b + P(0) a||_1 + |c| < theta - M(theta)/M'(theta).

Under both, H(r) = ||a||_1 M(r) + ||b + P(0)a||_1 + |c| - r has exactly two
positive roots r0 < theta < r1; the closed sup-norm ball of radius r0 is
invariant for the integral operator, which contracts on it with constant
q = ||a||_1 * M'(r0) < 1.

All roots are found by bracketed bisection (monotonicity keeps the bracket
valid) followed by one Newton polish step; verdicts use exact floating
comparisons and the report carries the slack of every inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chebfun import ResolutionError, build

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
_BRACKET_CAP = 2.0**60


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
    cheb_tol: float = 1e-13
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


def check_condition1(p, a_l1):
    """First hypothesis: ||a||_1 * M'(0) < 1, strict.  Returns (lhs, ok)."""
    lhs = a_l1 * p.P.majorant_deriv_eval(0.0)
    return lhs, lhs < 1.0


def compute_theta(p, a_l1):
    """Unique positive root of ||a||_1 * M'(r) = 1.

    Bracketed by doubling from 1, bisected to width 1e-14, then one Newton
    polish; the returned theta satisfies |  ||a||_1 M'(theta) - 1 | <= 1e-12.
    """
    if a_l1 == 0.0:
        raise ThetaUndefinedError("theta undefined: ||a||_1 = 0")
    P = p.P
    if P.degree < 2 or all(c == 0.0 for c in P.coeffs[2:]):
        raise ThetaUndefinedError("theta undefined (degenerate polynomial)")
    lhs0 = a_l1 * P.majorant_deriv_eval(0.0)
    if not lhs0 < 1.0:
        raise ConditionsError(
            f"||a||_1 * M'(0) = {lhs0!r} >= 1: no positive threshold root"
        )

    def g(r):
        return a_l1 * P.majorant_deriv_eval(r) - 1.0

    def gp(r):
        return a_l1 * P.majorant_second_deriv_eval(r)

    theta, _ = _monotone_root(g, gp, 0.0, 1.0, 1e-14, "threshold")
    if abs(g(theta)) > THETA_RESIDUAL_TOL:
        raise ConditionsError(
            f"threshold root residual {g(theta)!r} exceeds {THETA_RESIDUAL_TOL}"
        )
    return theta


def check_condition2(p, theta, lhs):
    """Second hypothesis: 0 < lhs < theta - M(theta)/M'(theta), where lhs is
    ||b + P(0)a||_1 + |c|.

    Returns (bound, ok); both comparisons are strict.
    """
    P = p.P
    bound = theta - P.majorant_eval(theta) / P.majorant_deriv_eval(theta)
    ok = (0.0 < lhs) and (lhs < bound)
    return bound, ok


def localize_radii(p, theta, a_l1, cond2_lhs):
    """The two positive roots r0 < theta < r1 of
    H(r) = a_l1 M(r) + cond2_lhs - r, where a_l1 = ||a||_1 and
    cond2_lhs = ||b + P(0)a||_1 + |c|.

    H decreases strictly on [0, theta] and increases after, so both roots are
    bisected inside guaranteed brackets (to width 1e-13, plus one Newton
    polish each).  Returns (r0, r1, certificates) where certificates record
    the sign-change brackets.
    """
    P = p.P

    def H(r):
        return a_l1 * P.majorant_eval(r) + cond2_lhs - r

    def Hp(r):
        return a_l1 * P.majorant_deriv_eval(r) - 1.0

    h0 = H(0.0)
    htheta = H(theta)
    if htheta >= 0.0:
        raise ConditionsError(
            "internal: H(theta) >= 0 although the second hypothesis holds"
        )
    if h0 <= 0.0:
        raise ConditionsError("internal: H(0) <= 0 although the lhs is positive")
    r0, _ = _monotone_root(H, Hp, 0.0, theta, 1e-13, "lower-root")
    r1, hi = _monotone_root(H, Hp, theta, 2.0 * theta, 1e-13, "upper-root")

    for name, val in (("r0", r0), ("r1", r1)):
        if abs(H(val)) > ROOT_RESIDUAL_TOL:
            raise ConditionsError(
                f"{name} residual {H(val)!r} exceeds {ROOT_RESIDUAL_TOL}"
            )
    certificates = {
        "r0_bracket": (0.0, theta, h0, htheta),
        "r1_bracket": (theta, hi, htheta, H(hi)),
    }
    return r0, r1, certificates


def _monotone_root(f, fp, lo, hi, width, name):
    """The root of f in a bracket [lo, hi] where f is monotone, f(lo) != 0.

    Doubles hi until f changes sign on [lo, hi] (at most _BRACKET_CAP times
    its start), bisects to `width` keeping the endpoint whose sign matches (a
    zero at the midpoint replaces hi; the bisection also stops once the ends
    are adjacent floats), then takes one Newton step, kept only inside the
    bracket and only if it does not increase |f|.  Returns (root, hi) with hi
    the final bracket end.
    """
    s = 1.0 if f(lo) > 0.0 else -1.0  # s*f falls from positive to <= 0
    cap = _BRACKET_CAP * hi
    while s * f(hi) >= 0.0:
        hi *= 2.0
        if hi > cap:
            raise ConditionsError(f"{name} bracket expansion failed")
    a, b = lo, hi
    while b - a > width:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if s * f(mid) > 0.0:
            a = mid
        else:
            b = mid
    r = 0.5 * (a + b)
    slope = fp(r)
    if slope != 0.0:
        cand = r - f(r) / slope
        if lo < cand < hi and abs(f(cand)) <= abs(f(r)):
            r = cand
    return r, hi


def analyze(p):
    """Run every hypothesis check and localisation step; always returns a
    ConditionsReport (failed stages leave later fields as None)."""
    a_l1 = a_l1_norm(p)
    cond1_lhs, cond1_ok = check_condition1(p, a_l1=a_l1)
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
        theta = compute_theta(p, a_l1=a_l1)
    except ConditionsError as exc:
        report.error = str(exc)
        return report
    report.theta = theta

    lhs = source_mass(p) + abs(p.c)
    bound, cond2_ok = check_condition2(p, theta, lhs=lhs)
    report.cond2_lhs = lhs
    report.gap = bound
    report.cond2_ok = cond2_ok
    report.slacks["cond2_lower"] = lhs
    report.slacks["cond2_upper"] = bound - lhs
    if not cond2_ok:
        report.error = "second hypothesis fails: mass outside (0, gap)"
        return report

    r0, r1, certs = localize_radii(p, theta, a_l1=a_l1, cond2_lhs=lhs)
    report.r0 = r0
    report.r1 = r1
    report.brackets = certs
    report.q = a_l1 * p.P.majorant_deriv_eval(r0)
    report.slacks["q_margin"] = 1.0 - report.q
    return report
