import dataclasses
import math

import numpy as np
import pytest

from fdekit import conditions
from fdekit.cli import example1_doc, example2_doc, load_problem
from fdekit.conditions import ThetaUndefinedError
from fdekit.expr import parse
from fdekit.problem import Polynomial, Problem
from _utils import bisect_oracle, random_passing_problem

# Root of 96 x^3 + 48 x - 5 = 0 and the induced gap, both verified to 50
# digits with mpmath; the quartic example's threshold equation reduces to
# this cubic because ||a||_1 = 3 exactly.
EX2_THETA = 0.10204164966613049
EX2_GAP = 0.03221327588112070


def simple_problem(a_src, P_coeffs, b_src="0", c=0.0, psi_src="t"):
    return Problem(
        a=parse(a_src),
        b=parse(b_src),
        psi=parse(psi_src),
        P=Polynomial.from_coeffs(P_coeffs),
        k=1.0,
        d=0.0,
        c=c,
    )


def mass(p):
    """The second hypothesis' left-hand side ||b + P(0)a||_1 + |c|."""
    return conditions.source_mass(p) + abs(p.c)


class TestCondition1:
    def test_quartic_example(self):
        p = load_problem(example2_doc())
        lhs, ok = conditions.check_condition1(p, conditions.a_l1_norm(p))
        assert ok
        assert lhs == pytest.approx(0.375, abs=1e-13)

    def test_cubic_example_lhs_zero(self):
        p = load_problem(example1_doc())
        lhs, ok = conditions.check_condition1(p, conditions.a_l1_norm(p))
        assert lhs == 0.0 and ok

    def test_failing_instance(self):
        p = simple_problem("2", [0.0, 1.0, 1.0])
        lhs, ok = conditions.check_condition1(p, conditions.a_l1_norm(p))
        assert lhs == pytest.approx(4.0, abs=1e-12)
        assert not ok


class TestComputeTheta:
    def test_quartic_example_value(self):
        p = load_problem(example2_doc())
        theta = conditions.compute_theta(p, conditions.a_l1_norm(p))
        assert theta == pytest.approx(EX2_THETA, abs=2e-12)
        # the residual contract
        assert abs(3.0 * p.P.majorant_deriv_eval(theta) - 1.0) <= 1e-12

    def test_cubic_closed_form(self):
        p = load_problem(example1_doc())
        assert conditions.compute_theta(p, conditions.a_l1_norm(p)) == pytest.approx(
            math.sqrt(1.0 / 3.0), abs=1e-12
        )

    def test_half_constant_square(self):
        p = simple_problem("0.5", [0.0, 0.0, 1.0])
        theta = conditions.compute_theta(p, conditions.a_l1_norm(p))
        assert theta == pytest.approx(0.5, abs=1e-13)

    def test_zero_weight_undefined(self):
        p = simple_problem("0", [0.0, 0.0, 1.0])
        with pytest.raises(ThetaUndefinedError):
            conditions.compute_theta(p, conditions.a_l1_norm(p))

    def test_degenerate_polynomial_undefined(self):
        p = simple_problem("0.5", [0.0, 1.0])
        with pytest.raises(ThetaUndefinedError, match="degenerate"):
            conditions.compute_theta(p, conditions.a_l1_norm(p))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            p = random_passing_problem(rng)
            for lam in (0.5, 2.0):
                scaled = Problem(
                    a=parse(f"({lam!r})*({p.a.src})"),
                    b=p.b,
                    psi=p.psi,
                    P=p.P,
                    k=p.k,
                    d=p.d,
                    c=p.c,
                )
                a_l1 = conditions.a_l1_norm(scaled)
                theta = conditions.compute_theta(scaled, a_l1=a_l1)
                assert abs(a_l1 * p.P.majorant_deriv_eval(theta) - 1.0) <= 1e-12


class TestCondition2:
    def test_quartic_example(self):
        p = load_problem(example2_doc())
        theta = conditions.compute_theta(p, conditions.a_l1_norm(p))
        lhs, bound, ok = conditions.check_condition2(p, theta, mass(p))
        assert ok
        assert lhs == pytest.approx(0.02, abs=1e-10)
        assert bound == pytest.approx(EX2_GAP, abs=2e-12)

    def test_cubic_closed_forms(self):
        p = load_problem(example1_doc())
        theta = conditions.compute_theta(p, conditions.a_l1_norm(p))
        lhs, bound, ok = conditions.check_condition2(p, theta, mass(p))
        assert ok
        assert lhs == pytest.approx(0.2 * math.sinh(1.0), abs=1e-12)
        # report bound is the true gap (2/3) theta; the smaller closed-form
        # reference bound sqrt(1/12) must sit below it
        assert bound == pytest.approx(2.0 / 3.0 * math.sqrt(1.0 / 3.0), abs=1e-12)
        assert math.sqrt(1.0 / 12.0) < bound

    def test_degenerate_zero_mass_fails_strictly(self):
        # b = -P(0) a and c = 0 gives lhs = 0: strict positivity fails
        p = simple_problem("2^t", [1.0, 0.0, 1.0], b_src="-(2^t)", c=0.0)
        theta = conditions.compute_theta(p, conditions.a_l1_norm(p))
        lhs, _, ok = conditions.check_condition2(p, theta, mass(p))
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert not ok


class TestLocalizeRadii:
    def test_quartic_example_against_bisection_oracle(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)

        def H(r):
            return 3.0 * (r**4 + r**2 + r / 8.0) + 0.02 - r

        r0_ref = bisect_oracle(H, 0.0, EX2_THETA)
        r1_ref = bisect_oracle(H, EX2_THETA, 1.0)
        assert abs(H(r0_ref)) <= 1e-12 and abs(H(r1_ref)) <= 1e-12
        assert rep.r0 == pytest.approx(r0_ref, abs=1e-10)
        assert rep.r1 == pytest.approx(r1_ref, abs=1e-10)
        assert rep.r0 == pytest.approx(3.95e-2, abs=2e-3)
        assert rep.r1 == pytest.approx(1.64e-1, abs=2e-3)

    def test_quadratic_formula_oracle(self):
        # H(r) = r^2 + 0.1 - r has roots (1 -+ sqrt(0.6))/2
        p = simple_problem("0.5", [0.0, 0.0, 1.0], b_src="0", c=0.1)
        rep = conditions.analyze(p)
        assert rep.ok
        assert rep.r0 == pytest.approx((1 - math.sqrt(0.6)) / 2, abs=1e-12)
        assert rep.r1 == pytest.approx((1 + math.sqrt(0.6)) / 2, abs=1e-12)

    def test_ordering_on_examples(self):
        for doc in (example1_doc(), example2_doc()):
            rep = conditions.analyze(load_problem(doc))
            assert rep.ok
            assert 0.0 < rep.r0 < rep.theta < rep.r1
            assert rep.q <= 1.0 - 1e-12

    def test_cubic_family_closed_forms_generalize(self):
        # theta = sqrt((N+1)/(6|alpha|)) and lhs = (2 beta/gamma) sinh(gamma)
        # for the power-weight cubic family, including negative alpha
        for alpha, beta, gamma, N in ((-2.0, 0.05, 2.0, 3), (0.5, 0.2, 0.5, 2)):
            p = load_problem(example1_doc(alpha, beta, gamma, N))
            rep = conditions.analyze(p)
            theta_ref = math.sqrt((N + 1) / (6.0 * abs(alpha)))
            lhs_ref = (2.0 * beta / gamma) * math.sinh(gamma)
            assert rep.theta == pytest.approx(theta_ref, abs=1e-12)
            assert rep.cond2_lhs == pytest.approx(lhs_ref, abs=1e-12)
            assert rep.gap == pytest.approx(2.0 / 3.0 * theta_ref, abs=1e-12)


class TestAnalyze:
    def test_report_fields_quartic(self):
        rep = conditions.analyze(load_problem(example2_doc()))
        assert rep.a_l1 == pytest.approx(3.0, abs=1e-12)
        assert rep.ok
        assert rep.slacks["cond2_upper"] == pytest.approx(rep.gap - rep.cond2_lhs)
        d = dataclasses.asdict(rep)
        assert d["cond1_ok"] and d["cond2_ok"]
        assert "r0_bracket" in d["brackets"]

    def test_failed_cond1_short_circuits(self):
        rep = conditions.analyze(simple_problem("2", [0.0, 1.0, 1.0]))
        assert not rep.cond1_ok and rep.theta is None and not rep.ok

    def test_failed_cond2_reports(self):
        # large c pushes the mass out of the window
        rep = conditions.analyze(simple_problem("0.5", [0.0, 0.0, 1.0], c=5.0))
        assert rep.cond1_ok and not rep.cond2_ok and rep.r0 is None

    def test_degenerate_polynomial_reported_not_raised(self):
        rep = conditions.analyze(simple_problem("0.5", [0.0, 0.1]))
        assert rep.cond1_ok and rep.theta is None
        assert "degenerate" in rep.error

    def test_roots_where_float_spacing_exceeds_the_width(self):
        # theta = 500 and r1 ~ 1000, where adjacent floats lie further apart
        # than the 1e-14 and 1e-13 bisection widths; bisection must stop
        p = simple_problem("0.0005", [0.0, 0.0, 1.0], c=0.01)
        rep = conditions.analyze(p)
        assert rep.ok
        assert rep.theta == pytest.approx(500.0, rel=1e-12)
        assert rep.r1 == pytest.approx((1 + math.sqrt(1 - 4e-5)) / 2e-3, rel=1e-12)

    def test_randomized_invariants(self):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            p = random_passing_problem(rng)
            rep = conditions.analyze(p)
            assert rep.ok, rep.error
            assert 0.0 < rep.r0 < rep.theta < rep.r1
            assert 0.0 < rep.q < 1.0
            assert abs(rep.a_l1 * p.P.majorant_deriv_eval(rep.theta) - 1.0) <= 1e-12

            def H(r):
                return rep.a_l1 * p.P.majorant_eval(r) + rep.cond2_lhs - r

            assert abs(H(rep.r0)) <= 1e-11
            assert abs(H(rep.r1)) <= 1e-11
            lo0, hi0, h_lo0, h_hi0 = rep.brackets["r0_bracket"]
            lo1, hi1, h_lo1, h_hi1 = rep.brackets["r1_bracket"]
            assert h_lo0 > 0 > h_hi0 and lo0 <= rep.r0 <= hi0
            assert h_lo1 < 0 < h_hi1 and lo1 <= rep.r1 <= hi1
