import dataclasses
import json
import math

import numpy as np
import pytest

from fdekit import cli, conditions
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


def far_start(a_l1, P):
    """The Newton start for theta and r1: min over j >= 2, P_j != 0, of
    (||a||_1 |P_j|)^(-1/(j-1))."""
    return min((a_l1 * abs(c)) ** (-1.0 / (j - 1)) for j, c in enumerate(P.coeffs) if j > 1 and c)


class TestCondition1:
    def test_quartic_example(self):
        p = load_problem(example2_doc())
        lhs, ok = conditions.check_condition1(p.P, conditions.a_l1_norm(p))
        assert ok
        assert lhs == pytest.approx(0.375, abs=1e-13)

    def test_cubic_example_lhs_zero(self):
        p = load_problem(example1_doc())
        lhs, ok = conditions.check_condition1(p.P, conditions.a_l1_norm(p))
        assert lhs == 0.0 and ok

    def test_failing_instance(self):
        p = simple_problem("2", [0.0, 1.0, 1.0])
        lhs, ok = conditions.check_condition1(p.P, conditions.a_l1_norm(p))
        assert lhs == pytest.approx(4.0, abs=1e-12)
        assert not ok


class TestComputeTheta:
    def test_quartic_example_value(self):
        p = load_problem(example2_doc())
        theta = conditions.compute_theta(p.P, conditions.a_l1_norm(p))
        assert theta == pytest.approx(EX2_THETA, abs=2e-12)
        # the residual contract
        assert abs(3.0 * p.P.majorant(theta, 1) - 1.0) <= 1e-12

    def test_cubic_closed_form(self):
        p = load_problem(example1_doc())
        assert conditions.compute_theta(p.P, conditions.a_l1_norm(p)) == pytest.approx(
            math.sqrt(1.0 / 3.0), abs=1e-12
        )

    def test_half_constant_square(self):
        p = simple_problem("0.5", [0.0, 0.0, 1.0])
        theta = conditions.compute_theta(p.P, conditions.a_l1_norm(p))
        assert theta == pytest.approx(0.5, abs=1e-13)

    def test_zero_weight_undefined(self):
        p = simple_problem("0", [0.0, 0.0, 1.0])
        with pytest.raises(ThetaUndefinedError):
            conditions.compute_theta(p.P, conditions.a_l1_norm(p))

    def test_degenerate_polynomial_undefined(self):
        p = simple_problem("0.5", [0.0, 1.0])
        with pytest.raises(ThetaUndefinedError, match="degenerate"):
            conditions.compute_theta(p.P, conditions.a_l1_norm(p))

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
                theta = conditions.compute_theta(scaled.P, a_l1=a_l1)
                assert abs(a_l1 * p.P.majorant(theta, 1) - 1.0) <= 1e-12


class TestCondition2:
    def test_quartic_example(self):
        p = load_problem(example2_doc())
        theta = conditions.compute_theta(p.P, conditions.a_l1_norm(p))
        lhs = mass(p)
        bound, ok = conditions.check_condition2(p.P, theta, lhs)
        assert ok
        assert lhs == pytest.approx(0.02, abs=1e-10)
        assert bound == pytest.approx(EX2_GAP, abs=2e-12)

    def test_cubic_closed_forms(self):
        p = load_problem(example1_doc())
        theta = conditions.compute_theta(p.P, conditions.a_l1_norm(p))
        lhs = mass(p)
        bound, ok = conditions.check_condition2(p.P, theta, lhs)
        assert ok
        assert lhs == pytest.approx(0.2 * math.sinh(1.0), abs=1e-12)
        # report bound is the true gap (2/3) theta; the smaller closed-form
        # reference bound sqrt(1/12) must sit below it
        assert bound == pytest.approx(2.0 / 3.0 * math.sqrt(1.0 / 3.0), abs=1e-12)
        assert math.sqrt(1.0 / 12.0) < bound

    def test_degenerate_zero_mass_fails_strictly(self):
        # b = -P(0) a and c = 0 gives lhs = 0: strict positivity fails
        p = simple_problem("2^t", [1.0, 0.0, 1.0], b_src="-(2^t)", c=0.0)
        theta = conditions.compute_theta(p.P, conditions.a_l1_norm(p))
        lhs = mass(p)
        _, ok = conditions.check_condition2(p.P, theta, lhs)
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

    def test_start_from_the_least_of_all_power_terms(self):
        # x* = min(1, 1e200^(1/3)) = 1; the leading term alone would start
        # Newton at 2e66, where one step leaves theta a residual of -1
        p = simple_problem("0.5", [0.0, 0.0, 1.0, 0.0, 1e-200], b_src="0.01", c=0.01)
        rep = conditions.analyze(p)
        assert rep.ok, rep.error
        assert rep.theta == pytest.approx(0.5, rel=1e-15)
        # H(r) = r^2 + 1e-200 r^4 + 0.03 - r
        assert rep.r0 == pytest.approx((1 - math.sqrt(0.88)) / 2, rel=1e-12)
        assert rep.r1 == pytest.approx((1 + math.sqrt(0.88)) / 2, rel=1e-12)
        assert rep.brackets["r1_bracket"][1] == 1.0

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
        # theta = 500 and r1 ~ 1000, where adjacent floats lie 1e-13 or more
        # apart; Newton must stop once f <= 0 or a step leaves x unchanged
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
            assert abs(rep.a_l1 * p.P.majorant(rep.theta, 1) - 1.0) <= 1e-12

            def H(r):
                return rep.a_l1 * p.P.majorant(r) + rep.cond2_lhs - r

            assert abs(H(rep.r0)) <= 1e-11
            assert abs(H(rep.r1)) <= 1e-11
            lo0, hi0, h_lo0, h_hi0 = rep.brackets["r0_bracket"]
            lo1, hi1, h_lo1, h_hi1 = rep.brackets["r1_bracket"]
            assert h_lo0 > 0 > h_hi0 and lo0 <= rep.r0 <= hi0
            assert h_lo1 < 0 < h_hi1 and lo1 <= rep.r1 <= hi1
            assert hi1 == far_start(rep.a_l1, p.P) and h_hi1 == H(hi1)


# Weakly nonlinear data: ||a||_1 small puts theta and r1 far out, up to ~8e19,
# where one ulp of r moves H by more than 1e-11.
WEAK_CASES = {
    "quadratic-1e-6": {"k": 1.0, "d": 0.0, "c": 0.01, "P": [0.0, 0.0, 1.0],
                       "a": "1e-6", "b": "0.01", "psi": "sin(t)"},
    **{f"example2-{a}": {**example2_doc(), "a": a}
       for a in ("1e-8", "1e-15", "1e-20", "1e-30", "1e-40", "1e-60")},
}


class TestRootResidual:
    @pytest.mark.parametrize("doc", WEAK_CASES.values(), ids=WEAK_CASES.keys())
    def test_far_roots_pass_the_scaled_residual_check(self, doc):
        p = load_problem(doc)
        rep = conditions.analyze(p)
        assert rep.ok, rep.error
        assert 0.0 < rep.r0 < rep.theta < rep.r1
        for r in (rep.r0, rep.r1):
            H = rep.a_l1 * p.P.majorant(r) + rep.cond2_lhs - r
            assert abs(H) <= conditions.ROOT_RESIDUAL_TOL * max(1.0, r)
        _, hi, _, h_hi = rep.brackets["r1_bracket"]
        assert hi == far_start(rep.a_l1, p.P) and rep.r1 <= hi
        # H(x*) >= the mass exactly; only a mass below the float spacing at
        # x* (a = 1e-60: 3.02 against 16384) can round H(x*) to <= 0
        assert h_hi > 0.0 or rep.cond2_lhs < math.ulp(hi)

    def test_far_roots_check_and_solve_exit_0(self, tmp_path, capsys):
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(WEAK_CASES["quadratic-1e-6"]))
        assert cli.main(["check", str(path)]) == cli.EXIT_OK
        assert cli.main(["solve", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    def test_message_quotes_the_scaled_tolerance(self, monkeypatch):
        p = load_problem(WEAK_CASES["quadratic-1e-6"])
        a_l1 = conditions.a_l1_norm(p)
        theta = conditions.compute_theta(p.P, a_l1)
        convex_root, moved = conditions._convex_root, {}

        def off_root(f, fp, x, name):
            # r1 moved 1e-6 relative off the root leaves a residual above tolerance
            r = convex_root(f, fp, x, name)
            if name == "upper-root":
                r = moved["r1"] = r * (1.0 + 1e-6)
            return r

        monkeypatch.setattr(conditions, "_convex_root", off_root)
        with pytest.raises(conditions.ConditionsError) as exc:
            conditions.localize_radii(p.P, theta, a_l1, conditions.source_mass(p) + abs(p.c))
        tol = conditions.ROOT_RESIDUAL_TOL * moved["r1"]
        assert tol > 1e5 * conditions.ROOT_RESIDUAL_TOL  # r1 ~ 5e5
        assert str(exc.value).startswith("r1 residual ")
        assert str(exc.value).endswith(f" exceeds {tol!r}")


# Exit codes of the theta stage: an undefined theta is a hypothesis failure,
# a root search that breaks down is a numerical one.  A subnormal ||a||_1
# with quadratic P puts the Newton start 1/||a||_1 past the float range; a
# product ||a||_1 |P_2| that overflows to inf puts it at 0.0.
THETA_CASES = {
    "zero-weight": ({"a": "0"}, cli.EXIT_HYPOTHESIS, ""),
    "degree-1": ({"P": [0.0, 0.1], "a": "0.5", "b": "0.01"}, cli.EXIT_HYPOTHESIS, ""),
    "non-finite-start": ({"P": [0, 0, 1], "a": "1e-310"}, cli.EXIT_FAILURE,
                         "error: root search start is not positive and finite"
                         " (||a||_1 = 2e-310)\n"),
    "zero-start": ({"P": [0, 0, 1e300], "a": "1e10"}, cli.EXIT_FAILURE,
                   "error: root search start is not positive and finite"
                   " (||a||_1 = 20000000000.0)\n"),
}


@pytest.mark.parametrize("change,code,err", THETA_CASES.values(), ids=THETA_CASES.keys())
def test_theta_failure_exit_codes(tmp_path, capsys, change, code, err):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({**example2_doc(), **change}))
    assert cli.main(["check", str(path)]) == code
    assert capsys.readouterr().err == err


class TestConvexRoot:
    @pytest.mark.parametrize("delta", [1e-2, 1e-8, 1e-12, 1e-15, 3e-16])
    def test_near_double_roots(self, delta):
        # H(r) = r^2 + c - r with roots (1 -+ sqrt(1 - 4c))/2 on both sides
        # of theta = 1/2, which merge as c -> 1/4
        p = simple_problem("0.5", [0.0, 0.0, 1.0], c=0.25 * (1.0 - delta))
        rep = conditions.analyze(p)
        assert rep.ok, rep.error
        assert 0.0 < rep.r0 < rep.theta < rep.r1
        for r in (rep.r0, rep.r1):
            H = rep.a_l1 * p.P.majorant(r) + rep.cond2_lhs - r
            assert abs(H) <= conditions.ROOT_RESIDUAL_TOL

    @pytest.mark.parametrize("doc", [example1_doc, example2_doc])
    def test_majorant_evaluations_per_analyze(self, doc, monkeypatch):
        p = load_problem(doc())
        calls = []
        majorant = Polynomial.majorant

        def counted(self, x, order=0):
            calls.append(order)
            return majorant(self, x, order)

        monkeypatch.setattr(Polynomial, "majorant", counted)
        assert conditions.analyze(p).ok
        assert len(calls) == {example1_doc: 44, example2_doc: 48}[doc]

    def test_zero_slope_returns(self):
        assert conditions._convex_root(lambda x: 1.0, lambda x: 0.0, 0.5, "flat") == 0.5

    def test_no_root_raises_at_the_cap(self):
        with pytest.raises(conditions.ConditionsError, match="no convergence"):
            conditions._convex_root(lambda x: x * x + 1.0, lambda x: 2.0 * x, 0.5, "no-root")
