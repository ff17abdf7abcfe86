"""Problem instances: data functions, polynomial nonlinearity, validation.

A Problem packages the right-hand side data of

    y'(x) = a(x) * P(y(psi(x))) + b(x),    y(d) = c,    x in [-1, 1],

together with the regularity index k, an optional analyticity-width hint mu,
and the numerical tolerances.  The deviating map psi must send [-1, 1] into
itself; validation checks this on a dense grid and reports per-check results
rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .chebfun import _pts_desc, build
from .expr import Expr

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


class ProblemError(Exception):
    pass


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial sum a_j x^j with coefficients in ascending powers.

    The associated majorant sum_{j>=1} |a_j| x^j and its derivatives drive
    every hypothesis constant; they are nonnegative and nondecreasing on
    x >= 0.
    """

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ProblemError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ProblemError("polynomial coefficients must be finite")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ProblemError("leading polynomial coefficient must be nonzero")

    @classmethod
    def from_coeffs(cls, coeffs):
        """Build from any coefficient sequence, trimming trailing zeros."""
        c = [float(x) for x in coeffs]
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

    def _majorant(self, x, r):
        """r-th derivative of the majorant: Horner over j!/(j-r)! |a_j|, j >= r,
        with the constant term dropped."""
        if np.any(np.asarray(x) < 0):
            raise ProblemError("majorant is only defined for x >= 0")
        m = [math.perm(j, r) * abs(c) if j else 0.0 for j, c in enumerate(self.coeffs)]
        return _horner(m[r:], x)

    def majorant_eval(self, x):
        """sum_{j>=1} |a_j| x^j at x >= 0."""
        return self._majorant(x, 0)

    def majorant_deriv_eval(self, x):
        """sum_{j>=1} j |a_j| x^(j-1) at x >= 0."""
        return self._majorant(x, 1)

    def majorant_second_deriv_eval(self, x):
        """sum_{j>=2} j (j-1) |a_j| x^(j-2) at x >= 0."""
        return self._majorant(x, 2)


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j (ascending powers) by Horner's rule; 0 if empty."""
    out = 0.0 * np.asarray(x) if not np.isscalar(x) else 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def clamp_unit(values, tol=PSI_RANGE_TOL):
    """Clamp deviating-map outputs into [-1, 1]; error beyond tolerance."""
    v = np.asarray(values, dtype=float)
    worst = float(np.max(np.abs(v))) if v.size else 0.0
    if worst > 1.0 + tol:
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
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks if c.severity == "error")

    def failures(self):
        return [c for c in self.checks if c.severity == "error" and not c.ok]

    def to_dict(self):
        return {"ok": self.ok, "checks": [asdict(c) for c in self.checks]}


@dataclass
class Problem:
    """One functional differential equation instance.

    Treated as immutable after construction; all solver entry points take a
    Problem by value and never mutate it.
    """

    a: Expr
    b: Expr
    psi: Expr
    P: Polynomial
    k: float
    d: float
    c: float
    mu: float | None = None
    cheb_tol: float = 1e-13
    solve_tol: float = 1e-12
    max_iter: int = 200
    max_degree: int = 32768

    def __post_init__(self):
        for name in ("k", "d", "c"):
            if not math.isfinite(float(getattr(self, name))):
                raise ProblemError(f"{name} must be finite")
        if self.mu is not None and not 0 < self.mu < math.inf:
            raise ProblemError("mu must be positive and finite")
        if not (self.cheb_tol > 0 and self.solve_tol > 0):
            raise ProblemError("tolerances must be positive")
        if self.max_iter < 1 or self.max_degree < 16:
            raise ProblemError("max_iter/max_degree out of range")

    def validate(self):
        """Range and well-posedness checks; failures are reported, not raised."""
        checks = []

        ok_d = -1.0 <= self.d <= 1.0
        checks.append(
            CheckResult(
                "d_in_domain",
                ok_d,
                "error",
                "d inside [-1, 1]" if ok_d else f"d outside [-1,1] (value {self.d!r})",
                worst_value=self.d,
            )
        )

        ok_k = self.k > 0
        checks.append(
            CheckResult(
                "k_positive",
                ok_k,
                "error",
                "k > 0" if ok_k else f"k must be positive (value {self.k!r})",
                worst_value=self.k,
            )
        )

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
        except Exception as exc:  # evaluation failure is a validation failure
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
            except Exception as exc:
                raise ProblemError(f"mu not given and not estimable: {exc}") from exc
            rho = min(rho, u.ellipse_hint)
        if math.isinf(rho):
            return 1.0  # all data resolved as low-degree polynomials (entire)
        return (rho + 1.0 / rho) / 2.0 - 1.0
