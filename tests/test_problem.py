import math

import numpy as np
import pytest

from fdekit.expr import parse
from fdekit.problem import Polynomial, Problem, ProblemError, clamp_unit


def make_problem(**kw):
    defaults = dict(
        a=parse("t"),
        b=parse("cosh(t)"),
        psi=parse("sin(t)"),
        P=Polynomial.from_coeffs([0.0, 0.0, 0.0, 1.0]),
        k=1.0,
        d=0.0,
        c=0.0,
    )
    defaults.update(kw)
    return Problem(**defaults)


class TestPolynomial:
    def test_cubic_eval_and_derivative(self):
        P = Polynomial.from_coeffs([0, 0, 0, 1])
        assert P.eval(2.0) == 8.0
        assert P.majorant_deriv_eval(2.0) == 12.0

    def test_quartic_example_at_zero(self):
        P = Polynomial.from_coeffs([-1.0, 0.125, -1.0, 0.0, 1.0])
        assert P.eval(0.0) == -1.0

    def test_square_at_minus_one(self):
        assert Polynomial.from_coeffs([0, 0, 1]).eval(-1.0) == 1.0

    def test_majorant_of_quartic(self):
        P = Polynomial.from_coeffs([-1.0, 0.125, -1.0, 0.0, 1.0])
        x = 0.7
        assert P.majorant_eval(x) == pytest.approx(x**4 + x**2 + x / 8, abs=1e-15)
        assert P.majorant_deriv_eval(0.0) == 0.125

    def test_majorant_of_cube(self):
        P = Polynomial.from_coeffs([0, 0, 0, 1])
        assert P.majorant_deriv_eval(0.5) == pytest.approx(3 * 0.25, abs=1e-16)

    def test_majorant_of_constant_is_zero(self):
        P = Polynomial.from_coeffs([5.0])
        assert P.majorant_eval(2.0) == 0.0
        assert P.majorant_deriv_eval(2.0) == 0.0

    def test_majorant_rejects_negative(self):
        with pytest.raises(ProblemError):
            Polynomial.from_coeffs([0, 1, 1]).majorant_eval(-0.1)

    def test_trailing_zeros_trimmed(self):
        P = Polynomial.from_coeffs([1.0, 2.0, 0.0, 0.0])
        assert P.degree == 1
        assert P.below_theorem_degree

    def test_majorant_derivative_strictly_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            deg = int(rng.integers(2, 6))
            coeffs = rng.uniform(-2, 2, deg + 1)
            coeffs[deg] = abs(coeffs[deg]) + 0.1
            P = Polynomial.from_coeffs(list(coeffs))
            xs = np.linspace(0.0, 3.0, 40)
            vals = P.majorant_deriv_eval(xs)
            assert np.all(np.diff(vals) > 0)

    def test_triangle_inequality_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            deg = int(rng.integers(1, 6))
            coeffs = rng.uniform(-3, 3, deg + 1)
            if coeffs[deg] == 0:
                coeffs[deg] = 1.0
            P = Polynomial.from_coeffs(list(coeffs))
            x = float(rng.uniform(-2, 2))
            assert abs(P.eval(x)) <= abs(P.coeffs[0]) + P.majorant_eval(abs(x)) + 1e-12


class TestValidate:
    def test_sin_passes(self):
        rep = make_problem().validate()
        assert rep.ok
        assert all(c.ok for c in rep.checks)

    def test_psi_out_of_range_fails(self):
        rep = make_problem(psi=parse("2*t")).validate()
        assert not rep.ok
        bad = {c.name: c for c in rep.checks}["psi_range"]
        assert not bad.ok
        assert bad.worst_value == pytest.approx(2.0, abs=1e-12)
        assert abs(bad.worst_t) == pytest.approx(1.0, abs=1e-12)

    def test_identity_passes(self):
        assert make_problem(psi=parse("t")).validate().ok

    def test_d_out_of_range(self):
        rep = make_problem(d=1.5).validate()
        assert not rep.ok

    def test_degree_one_is_warning_not_failure(self):
        rep = make_problem(P=Polynomial.from_coeffs([0.0, 1.0])).validate()
        assert rep.ok
        assert [c.severity for c in rep.checks if not c.ok] == ["warning"]

    def test_constructor_rejects_bad_tolerances(self):
        with pytest.raises(ProblemError):
            make_problem(cheb_tol=-1.0)
        with pytest.raises(ProblemError):
            make_problem(mu=0.0)
        with pytest.raises(ProblemError, match="mu must be positive and finite"):
            make_problem(mu=math.inf)


class TestClamp:
    def test_within_tolerance(self):
        out = clamp_unit(np.array([1.0 + 5e-13, -1.0 - 5e-13, 0.2]))
        assert np.max(np.abs(out)) <= 1.0

    def test_beyond_tolerance(self):
        with pytest.raises(ProblemError):
            clamp_unit(np.array([1.1]))


class TestEffectiveMu:
    def test_explicit_mu_wins(self):
        assert make_problem(mu=0.7).effective_mu() == 0.7

    def test_estimated_for_entire_data(self):
        p = make_problem(b=parse("cosh(t)"), a=parse("2^t"), psi=parse("sin(t)"))
        mu = p.effective_mu()
        assert mu > 0
        assert p.effective_mu() == mu  # deterministic: recomputed, same value

    def test_low_degree_fallback(self):
        p = make_problem(a=parse("t"), b=parse("t^2"), psi=parse("t"))
        assert p.effective_mu() == 1.0
