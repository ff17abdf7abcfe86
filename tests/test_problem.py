import dataclasses
import math

import numpy as np
import pytest

from fdekit.expr import parse
from fdekit.problem import (
    CheckResult,
    Polynomial,
    Problem,
    ProblemError,
    ValidationReport,
    clamp_unit,
)


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


def number_kinds(n):
    """The integer n as a Python float, np.float64, an int, a 0-d array and
    a 1-d array (whose other entry is |n|)."""
    return [float(n), np.float64(n), int(n), np.array(float(n)), np.array([abs(n), float(n)])]


class TestPolynomial:
    def test_cubic_eval_and_derivative(self):
        P = Polynomial.from_coeffs([0, 0, 0, 1])
        assert P.eval(2.0) == 8.0
        assert P.majorant(2.0, 1) == 12.0

    def test_quartic_example_at_zero(self):
        P = Polynomial.from_coeffs([-1.0, 0.125, -1.0, 0.0, 1.0])
        assert P.eval(0.0) == -1.0

    def test_square_at_minus_one(self):
        assert Polynomial.from_coeffs([0, 0, 1]).eval(-1.0) == 1.0

    def test_majorant_of_quartic(self):
        P = Polynomial.from_coeffs([-1.0, 0.125, -1.0, 0.0, 1.0])
        x = 0.7
        assert P.majorant(x) == pytest.approx(x**4 + x**2 + x / 8, abs=1e-15)
        assert P.majorant(0.0, 1) == 0.125

    def test_majorant_of_cube(self):
        P = Polynomial.from_coeffs([0, 0, 0, 1])
        assert P.majorant(0.5, 1) == pytest.approx(3 * 0.25, abs=1e-16)

    def test_majorant_of_constant_is_zero(self):
        P = Polynomial.from_coeffs([5.0])
        assert P.majorant(2.0) == 0.0
        assert P.majorant(2.0, 1) == 0.0

    @pytest.mark.parametrize("coeffs,message", [
        ((), "^polynomial needs at least one coefficient$"),
        ((1.0, math.nan), "^polynomial coefficients must be finite$"),
        ((1.0, 0.0), "^leading polynomial coefficient must be nonzero$"),
    ], ids=["empty", "nan", "zero-leading"])
    def test_direct_construction_checks_the_coefficients(self, coeffs, message):
        with pytest.raises(ProblemError, match=message):
            Polynomial(coeffs)

    def test_majorant_rejects_negative(self):
        P = Polynomial.from_coeffs([0, 1, 1])
        for x in (-0.1, *number_kinds(-1)):
            for order in range(3):
                with pytest.raises(ProblemError):
                    P.majorant(x, order)

    @pytest.mark.parametrize("x", [0, 1, 2])
    def test_majorant_is_the_same_for_every_number_kind(self, x):
        # dyadic coefficients at small integers: every sum below is exact
        coeffs = [-1.0, 0.125, -1.0, 0.0, 1.0]
        P = Polynomial.from_coeffs(coeffs)
        for r in range(3):
            want = sum(
                math.perm(j, r) * abs(c) * float(x) ** (j - r)
                for j, c in enumerate(coeffs)
                if j >= max(r, 1)
            )
            for v in number_kinds(x):
                got = P.majorant(v, r)
                assert np.shape(got) == np.shape(v)
                assert np.all(got == want), (r, type(v))

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
            vals = P.majorant(xs, 1)
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
            assert abs(P.eval(x)) <= abs(P.coeffs[0]) + P.majorant(abs(x)) + 1e-12


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
        with pytest.raises(ProblemError, match=r"^d outside \[-1,1\] \(value 1.5\)$"):
            make_problem(d=1.5)

    def test_degree_one_is_warning_not_failure(self):
        rep = make_problem(P=Polynomial.from_coeffs([0.0, 1.0])).validate()
        assert rep.ok
        assert [c.severity for c in rep.checks if not c.ok] == ["warning"]

    @pytest.mark.parametrize("error_ok", [True, False])
    @pytest.mark.parametrize("warning_ok", [True, False])
    def test_ok_is_false_exactly_when_an_error_check_fails(self, error_ok, warning_ok):
        checks = [CheckResult("e", error_ok, "error", "e"),
                  CheckResult("w", warning_ok, "warning", "w")]
        rep = ValidationReport(checks)
        assert rep.ok is error_ok
        assert rep.failures() == ([] if error_ok else checks[:1])

    def test_constructor_rejects_bad_tolerances(self):
        with pytest.raises(ProblemError):
            make_problem(cheb_tol=-1.0)
        for field, value, key in [
            ("cheb_tol", 0.5, "cheb_tol"),
            ("max_iter", 2.5, "max_iter"),
            ("max_degree", 10**6, "max_degree"),
            ("solve_tol", math.inf, "tol"),
        ]:
            with pytest.raises(ProblemError, match=f'solver "{key}" must be'):
                make_problem(**{field: value})
        with pytest.raises(ProblemError):
            make_problem(mu=0.0)
        with pytest.raises(ProblemError, match="mu must be positive and finite"):
            make_problem(mu=math.inf)


class TestConstruction:
    # field -> raw value -> the error, which quotes the value as given
    REJECTED = [
        ("k", 0, '"k" must be positive (value 0)'),
        ("k", -1.5, '"k" must be positive (value -1.5)'),
        ("k", -math.inf, '"k" must be positive (value -inf)'),
        *[(name, value, f'"{name}" must be a number')
          for name in ("k", "d", "c") for value in (True, "1")],
        *[("mu", value, '"mu" must be a positive number') for value in (True, "1")],
        ("d", 1.5, "d outside [-1,1] (value 1.5)"),
        ("d", -2, "d outside [-1,1] (value -2)"),
        ("d", math.nan, "d outside [-1,1] (value nan)"),
        ("mu", 0, '"mu" must be a positive number'),
        ("mu", -0.5, '"mu" must be a positive number'),
        ("k", math.inf, "k must be finite"),
        ("c", math.nan, "c must be finite"),
        ("mu", math.nan, "mu must be positive and finite"),
    ]

    @pytest.mark.parametrize("name,value,message", REJECTED)
    def test_rejected_value(self, name, value, message):
        with pytest.raises(ProblemError) as ei:
            make_problem(**{name: value})
        assert str(ei.value) == message

    def test_numbers_are_stored_as_floats(self):
        p = make_problem(k=2, d=-1, c=0, mu=1)
        assert [(type(v), v) for v in (p.k, p.d, p.c, p.mu)] == [
            (float, 2.0), (float, -1.0), (float, 0.0), (float, 1.0)
        ]

    def test_numpy_numbers_accepted(self):
        p = make_problem(k=np.int64(2), d=np.float32(0.5), c=np.float64(0))
        assert (p.k, p.d, p.c) == (2.0, 0.5, 0.0)
        assert Polynomial.from_coeffs(np.array([0, 0, 1])).coeffs == (0.0, 0.0, 1.0)

    def test_frozen_and_replaced_with_checks(self):
        p = make_problem()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.solve_tol = 1e-8
        assert p.solve_tol == 1e-12
        q = dataclasses.replace(p, solve_tol=1, max_iter=5.0)
        assert (type(q.solve_tol), q.solve_tol, type(q.max_iter), q.max_iter) == (float, 1.0, int, 5)
        with pytest.raises(ProblemError, match='^solver "max_iter" must be an integer >= 1$'):
            dataclasses.replace(p, max_iter=0)

    @pytest.mark.parametrize("coeffs", [[], ["a"], ["1.5"], [1.0, True], [None]])
    def test_polynomial_rejects_non_numbers(self, coeffs):
        with pytest.raises(ProblemError, match='^"P" must be a non-empty array of numbers$'):
            Polynomial.from_coeffs(coeffs)


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

    def test_undefined_data_is_not_estimable(self):
        # ln(t+1) is undefined at t = -1, a point every build samples
        with pytest.raises(ProblemError, match="^mu not given and not estimable: "):
            make_problem(a=parse("ln(t+1)")).effective_mu()
