"""Problem instances: data functions, polynomial nonlinearity, validation.

A Problem packages the right-hand side data of

    y'(x) = a(x) * P(y(psi(x))) + b(x),    y(d) = c,    x in [-1, 1],

together with the regularity index k, an optional analyticity-width hint mu,
and the numerical tolerances.  Construction owns every rule on these values:
it takes them raw (as a problem file holds them), converts k, d, c, mu and
the solver settings, and raises ProblemError on the first one out of range.
The deviating map psi must send [-1, 1] into itself; validation samples this
at 4097 Chebyshev points, which is evidence and not a proof, and reports
per-check results rather than raising.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .chebfun import DEFAULT_TOL, MAX_DEGREE, TOL_RANGE, ChebError, _pts_desc, build
from .expr import Expr, ExprError

__all__ = [
    "Polynomial",
    "Problem",
    "ValidationReport",
    "CheckResult",
    "clamp_unit",
    "ProblemError",
]

PSI_RANGE_TOL = 1e-12
VALIDATION_GRID = 4096  # 4097 Chebyshev points
# problem-file solver key -> (Problem field, its type, accepted values,
# description of the accepted values)
SOLVER_RULES = {
    "tol": ("solve_tol", float, lambda v: 0.0 < v < math.inf, "a finite positive number"),
    "max_iter": ("max_iter", int, lambda v: v.is_integer() and v >= 1, "an integer >= 1"),
    "cheb_tol": (
        "cheb_tol",
        float,
        lambda v: TOL_RANGE[0] <= v <= TOL_RANGE[1],
        "a number in [{:g}, {:g}]".format(*TOL_RANGE),
    ),
    "max_degree": (
        "max_degree",
        int,
        lambda v: v.is_integer() and 16 <= v <= MAX_DEGREE,
        f"an integer in [16, {MAX_DEGREE}]",
    ),
}


class ProblemError(Exception):
    pass


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial sum a_j x^j with coefficients in ascending powers.

    Its majorant M(x) = sum_{j>=1} |a_j| x^j and the first two derivatives,
    majorant(x, order), drive every hypothesis constant; they are nonnegative
    and nondecreasing on x >= 0, from tables built with the polynomial.
    """

    coeffs: tuple
    # table r: j!/(j-r)! |a_j| for j >= r, with a_0 dropped, for r = 0, 1, 2
    _tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ProblemError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ProblemError("polynomial coefficients must be finite")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ProblemError("leading polynomial coefficient must be nonzero")
        object.__setattr__(self, "_tables", tuple(
            tuple(math.perm(j, r) * abs(c) if j else 0.0 for j, c in enumerate(self.coeffs))[r:]
            for r in range(3)))

    @classmethod
    def from_coeffs(cls, coeffs):
        """Build from a non-empty sequence of numbers (not booleans),
        trimming trailing zeros."""
        c = [_number(x) for x in coeffs]
        if not c or None in c:
            raise ProblemError('"P" must be a non-empty array of numbers')
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def below_theorem_degree(self):
        """True when degree < 2 (outside the existence theorem's scope)."""
        return self.degree < 2

    def eval(self, x):
        return _horner(self.coeffs, x)

    def majorant(self, x, order=0):
        """The order-th derivative (0, 1 or 2) of sum_{j>=1} |a_j| x^j at x >= 0."""
        if (x < 0) if isinstance(x, float) else np.any(np.asarray(x) < 0):
            raise ProblemError("majorant is only defined for x >= 0")
        return _horner(self._tables[order], x)


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j (ascending powers) by Horner's rule; 0 if empty.
    A float (np.float64 included) takes plain float arithmetic."""
    out = 0.0 if isinstance(x, float) or np.isscalar(x) else 0.0 * np.asarray(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _number(x):
    """A real number (not a boolean; numpy scalars included) as a float,
    else None; integers too large for a float become inf of their sign."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return None
    try:
        return float(x)
    except OverflowError:  # math.copysign(math.inf, x) would overflow too
        return math.inf if x > 0 else -math.inf


def _setting(key, value):
    """A solver value checked against SOLVER_RULES, as its field's type."""
    _, kind, accepted, description = SOLVER_RULES[key]
    number = _number(value)
    if number is None or not accepted(number):
        raise ProblemError(f'solver "{key}" must be {description}')
    return kind(number)


def clamp_unit(values):
    """Clamp deviating-map outputs into [-1, 1]; error beyond PSI_RANGE_TOL."""
    v = np.asarray(values, dtype=float)
    worst = float(np.max(np.abs(v))) if v.size else 0.0
    if worst > 1.0 + PSI_RANGE_TOL:
        raise ProblemError(
            f"deviating map leaves [-1, 1]: |psi| reaches {worst!r}"
        )
    return np.clip(v, -1.0, 1.0)


@dataclass
class CheckResult:
    name: str
    ok: bool
    severity: str  # "error" | "warning"
    detail: str
    worst_t: float | None = None
    worst_value: float | None = None


@dataclass
class ValidationReport:
    """ok is false exactly when a check of severity "error" fails."""

    ok: bool = field(init=False)
    checks: list

    def __post_init__(self):
        self.ok = not self.failures()

    def failures(self):
        return [c for c in self.checks if c.severity == "error" and not c.ok]


@dataclass(frozen=True)
class Problem:
    """One functional differential equation instance.

    Frozen: a changed copy comes from dataclasses.replace, which checks its
    values as construction does.  k, d, c and mu may be given as any JSON
    number (not a boolean) and are stored as floats: k finite and positive,
    d in [-1, 1], c finite, mu None or positive and finite.  The solver
    settings must satisfy SOLVER_RULES (the error names the problem-file
    key); construction stores them as float or int.
    """

    a: Expr
    b: Expr
    psi: Expr
    P: Polynomial
    k: float
    d: float
    c: float
    mu: float | None = None
    cheb_tol: float = DEFAULT_TOL
    solve_tol: float = 1e-12
    max_iter: int = 200
    max_degree: int = MAX_DEGREE

    def __post_init__(self):
        raw = {"k": self.k, "d": self.d, "c": self.c}
        for name, value in raw.items():
            number = _number(value)
            if number is None:
                raise ProblemError(f'"{name}" must be a number')
            object.__setattr__(self, name, number)
        # messages quote the value as given: 0, not 0.0
        if self.k <= 0:
            raise ProblemError(f'"k" must be positive (value {raw["k"]!r})')
        if not -1.0 <= self.d <= 1.0:
            raise ProblemError(f"d outside [-1,1] (value {raw['d']!r})")
        if self.mu is not None:
            object.__setattr__(self, "mu", _number(self.mu))
            if self.mu is None or self.mu <= 0:
                raise ProblemError('"mu" must be a positive number')
        for key, (name, *_) in SOLVER_RULES.items():
            object.__setattr__(self, name, _setting(key, getattr(self, name)))
        for name in ("k", "c"):  # the range test on d rejects inf and nan
            if not math.isfinite(getattr(self, name)):
                raise ProblemError(f"{name} must be finite")
        if self.mu is not None and not self.mu < math.inf:
            raise ProblemError("mu must be positive and finite")

    def validate(self):
        """Range and well-posedness checks; failures are reported, not raised.

        The psi range is sampled at the VALIDATION_GRID + 1 Chebyshev points,
        not proved: 1.000000001-(t-0.002)^2 leaves [-1, 1] only between them
        and passes, and the violation shows up only at a CSV point."""
        # construction has checked d and k; the report still lists them
        checks = [
            CheckResult("d_in_domain", True, "error", "d inside [-1, 1]", worst_value=self.d),
            CheckResult("k_positive", True, "error", "k > 0", worst_value=self.k),
        ]

        grid = _pts_desc(VALIDATION_GRID)
        try:
            vals = self.psi.eval_real(grid)
            worst_i = int(np.argmax(np.abs(vals)))
            worst_v = float(vals[worst_i])
            ok_psi = abs(worst_v) <= 1.0 + PSI_RANGE_TOL
            detail = (
                "psi maps [-1,1] into itself"
                if ok_psi
                else f"psi({float(grid[worst_i])!r}) = {worst_v!r} leaves [-1,1]"
            )
            checks.append(
                CheckResult(
                    "psi_range",
                    ok_psi,
                    "error",
                    detail,
                    worst_t=float(grid[worst_i]),
                    worst_value=worst_v,
                )
            )
        except ExprError as exc:  # evaluation failure is a validation failure
            checks.append(
                CheckResult("psi_range", False, "error", f"psi evaluation failed: {exc}")
            )

        deg_ok = not self.P.below_theorem_degree
        checks.append(
            CheckResult(
                "polynomial_degree",
                deg_ok,
                "warning",
                "degree >= 2"
                if deg_ok
                else f"degree {self.P.degree} < 2: outside existence-theorem scope",
                worst_value=float(self.P.degree),
            )
        )
        return ValidationReport(checks)

    def effective_mu(self):
        """The analyticity-width hint: mu if given, else estimated from the
        coefficient decay of the built data functions (largest stadium that
        fits the smallest estimated Bernstein ellipse)."""
        if self.mu is not None:
            return float(self.mu)
        rho = math.inf
        for e in (self.a, self.b, self.psi):
            try:
                u = build(lambda t, e=e: e.eval_real(t), self.cheb_tol, self.max_degree)
            except (ExprError, ChebError) as exc:
                raise ProblemError(f"mu not given and not estimable: {exc}") from exc
            rho = min(rho, u.ellipse_hint)
        if math.isinf(rho):
            return 1.0  # all data resolved as low-degree polynomials (entire)
        return (rho + 1.0 / rho) / 2.0 - 1.0
