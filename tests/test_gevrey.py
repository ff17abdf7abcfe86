import dataclasses
import math

import numpy as np
import pytest

from fdekit import conditions, gevrey, picard
from fdekit.chebfun import ChebFun, build
from fdekit.cli import example1_doc, example2_doc, load_problem
from fdekit.expr import parse
from fdekit.gevrey import (
    GevreyError,
    StadiumRegion,
    check_ek,
    derivative_norms,
    gevrey_order_estimate,
    interval_distance,
    lambda_estimate,
    omega_sequence,
    stadium_inclusion_probe,
)


class TestDistToInterval:
    def test_corner(self):
        assert interval_distance(2 + 1j) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_above_interval(self):
        assert interval_distance(0.3 + 0.2j) == pytest.approx(0.2, abs=1e-16)

    def test_real_outside(self):
        assert interval_distance(-1.5 + 0j) == pytest.approx(0.5, abs=1e-16)

    def test_lipschitz_random_pairs(self):
        rng = np.random.default_rng(314)
        for _ in range(100):
            z1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            z2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            r1, r2 = interval_distance(z1), interval_distance(z2)
            assert abs(r1 - r2) <= abs(z1 - z2) + 1e-12


class TestStadiumRegion:
    def test_radius_and_membership(self):
        r = StadiumRegion(k=1.0, A=0.5, n=2)
        assert r.radius == 0.25
        assert interval_distance(0.9 + 0.2j) < r.radius
        assert not interval_distance(0.9 + 0.3j) < r.radius

    def test_nesting_sampled(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            k = float(rng.uniform(0.3, 3.0))
            A = float(rng.uniform(0.05, 1.0))
            n = int(rng.integers(1, 20))
            inner = StadiumRegion(k=k, A=A, n=n + 1)
            outer = StadiumRegion(k=k, A=A, n=n)
            pts = inner.sample(16)
            assert np.all(interval_distance(pts) < outer.radius)

    def test_bad_parameters(self):
        with pytest.raises(GevreyError):
            StadiumRegion(k=0.0, A=1.0, n=1)


class TestCheckEk:
    def test_sine_passes_with_proof_bound(self):
        rep = check_ek(parse("sin(t)"), 1.0, [0.1, 0.5, 0.9], 100, density=128)
        assert rep.passed
        for lv in rep.levels:
            assert lv.worst_dist <= lv.A / (lv.p + 1 - lv.A) + 1e-12

    def test_identity_passes_any_scale(self):
        for k in (0.5, 1.0, 2.0):
            rep = check_ek(parse("t"), k, [0.2, 0.9, 2.0], 30, density=32)
            assert rep.passed

    def test_double_fails_immediately(self):
        rep = check_ek(parse("2*t"), 1.0, [0.5], 1, density=32)
        assert not rep.passed
        assert rep.worst_ratio > 1.0
        assert rep.first_pass_p[0.5] is None

    def test_report_shape(self):
        rep = check_ek(parse("sin(t)"), 1.0, [0.5], 3, density=32)
        d = dataclasses.asdict(rep)
        assert d["passed"] and len(d["levels"]) == 3


# The largest fattening scale at which sin(t), the deviating map of both
# built-in examples, passes check_ek.
SINE_SCALE = 0.9


@pytest.fixture(scope="module")
def quartic():
    p = load_problem(example2_doc())
    rep = conditions.analyze(p)
    return p, rep


class TestOmegaSequence:
    @pytest.mark.parametrize("tau", [None, SINE_SCALE])
    def test_runs_no_inclusion_check(self, quartic, monkeypatch, tau):
        p, rep = quartic
        want = omega_sequence(p, 0.0, rep.r0, 3, tau)

        def forbidden(*args, **kwargs):
            raise AssertionError("omega_sequence ran check_ek")

        monkeypatch.setattr(gevrey, "check_ek", forbidden)
        assert omega_sequence(p, 0.0, rep.r0, 3, tau) == want
        assert want.tau_candidate == tau
        assert want.nu_proxy == min(want.mu, tau or math.inf) / 2.0

    def test_first_value_is_one(self, quartic):
        p, rep = quartic
        om = omega_sequence(p, 0.3, rep.r0, 5, SINE_SCALE)
        assert om.values[0] == 1.0

    def test_zero_scale_collapses(self, quartic):
        p, rep = quartic
        om = omega_sequence(p, 0.0, rep.r0, 10, SINE_SCALE)
        const = om.a_sup * p.P.majorant_eval(rep.r0) + om.source_sup
        assert all(v == pytest.approx(const, rel=1e-15) for v in om.values[1:])

    def test_bounded_by_envelope_constant(self, quartic):
        p, rep = quartic
        om0 = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
        s = 1.0 / (2.0 * om0.C_est)
        om = omega_sequence(p, s, rep.r0, 50, SINE_SCALE)
        assert max(om.values) <= om.C_est
        # independent recursion oracle from the reported sups
        w, oracle = 1.0, [1.0]
        for n in range(1, 50):
            w = om.a_sup * p.P.majorant_eval(rep.r0 + s * n ** (-1.0) * w) + om.source_sup
            oracle.append(w)
        assert np.allclose(oracle, om.values, rtol=1e-13, atol=0)

    def test_envelope_constant_floor(self, quartic):
        p, rep = quartic
        om = omega_sequence(p, 0.0, rep.r0, 2, SINE_SCALE)
        assert om.C_est >= max(2.0 / om.nu_proxy, 1.0)


class TestLambdaEstimate:
    def test_constant_weight_closed_form(self):
        p = load_problem(
            {"k": 1.0, "d": 0.3, "c": 0.01, "P": [0.0, 0.1, 1.0],
             "a": "0.4", "b": "0.01", "psi": "t", "mu": 1.0}
        )
        rep = conditions.analyze(p)
        assert rep.ok
        lam = lambda_estimate(p, 0.0, rep.r0, 1.0)
        want = 0.4 * (1.0 + 0.3) * p.P.majorant_deriv_eval(rep.r0)
        assert lam == pytest.approx(want, abs=1e-12)

    def test_quartic_closed_form_mass(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        lam0 = lambda_estimate(p, 0.0, rep.r0, 1.0)
        # weight mass from 0 to 1 is exactly 2, the farthest-endpoint winner
        assert lam0 == pytest.approx(2.0 * p.P.majorant_deriv_eval(rep.r0), abs=1e-12)
        assert lam0 < 1.0

    def test_monotone_in_s(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        om = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
        lam0 = lambda_estimate(p, 0.0, rep.r0, om.C_est)
        for s in (0.01, 0.05):
            assert lambda_estimate(p, s, rep.r0, om.C_est) >= lam0 - 1e-12

    def test_s_must_stay_below_mu(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        with pytest.raises(GevreyError):
            lambda_estimate(p, 2.0, rep.r0, 1.0)


class TestStadiumInclusionProbe:
    def test_zero_start_has_zero_ratio(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sol = picard.solve(p, rep, keep_iterates=True)
        om = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
        s = 1.0 / (2.0 * om.C_est)
        probe = stadium_inclusion_probe(
            sol.iterates, rep.r0, p.k, s, om.C_est, range(1, 9)
        )
        assert probe.levels[0].ratio == 0.0
        assert probe.all_within
        assert probe.s_used <= s

    def test_identity_forced_instance(self):
        p = load_problem(
            {"k": 1.0, "d": 0.0, "c": 0.0, "P": [0.0, 0.0, 1.0],
             "a": "0", "b": "cos(pi*t/2)*pi/2", "psi": "t"}
        )
        sol = picard.solve(p, force=True, keep_iterates=True)
        probe = stadium_inclusion_probe(
            sol.iterates, sol.r0_used, 1.0, 0.2, 2.0, range(1, 4)
        )
        assert probe.all_within

    def test_missing_iterates_rejected(self):
        with pytest.raises(GevreyError):
            stadium_inclusion_probe([ChebFun([0.0])], 0.1, 1.0, 0.1, 2.0, range(1, 5))


class TestDerivativeNorms:
    def test_exp_constant_norms(self):
        u = build(np.exp, tol=1e-15)
        dn = derivative_norms(u, 6)
        for v, fl in zip(dn.values, dn.flagged):
            assert not fl
            assert v == pytest.approx(math.e, rel=1e-6)

    def test_linear(self):
        dn = derivative_norms(ChebFun([0.0, 1.0]), 4)
        assert dn.values[0] == 1.0
        assert all(v == 0.0 for v in dn.values[1:])
        assert all(dn.flagged[1:])

    def test_simple_pole_outside_gives_factorials(self):
        u = build(lambda t: 1.0 / (2.0 - t), tol=1e-15)
        dn = derivative_norms(u, 6)
        for j, (v, fl) in enumerate(zip(dn.values, dn.flagged), start=1):
            assert not fl
            assert v == pytest.approx(math.factorial(j), rel=1e-4)

    def test_cap(self):
        for n_max in (13, 0, -3):
            with pytest.raises(GevreyError):
                derivative_norms(ChebFun([0.0, 1.0]), n_max)


class TestGevreyOrderEstimate:
    def test_constant_sequence_flat(self):
        est = gevrey_order_estimate([math.e] * 12)
        assert abs(est.slope) <= 0.05
        assert est.classification == "analytic-like"

    def test_factorial_near_unit_slope(self):
        est = gevrey_order_estimate([float(math.factorial(j)) for j in range(1, 13)])
        assert est.slope == pytest.approx(1.0, abs=0.15)
        assert est.classification == "analytic-like"

    def test_square_exponent_recovers_unit_index(self):
        est = gevrey_order_estimate([float(j) ** (2 * j) for j in range(1, 13)])
        assert est.k_hat == pytest.approx(1.0, abs=0.05)
        assert est.classification == "gevrey"

    def test_index_recovery_within_5_percent(self):
        for k in (0.5, 1.0, 2.0):
            seq = [float(j) ** ((1 + 1 / k) * j) for j in range(1, 13)]
            est = gevrey_order_estimate(seq)
            assert est.k_hat == pytest.approx(k, rel=0.05)

    def test_too_few_usable_unresolved(self):
        est = gevrey_order_estimate([1.0, 0.0, 0.0, 0.0, 0.0])
        assert est.classification == "unresolved"
        assert est.slope is None

    def test_fits_derivative_norms(self):
        u = build(np.exp, tol=1e-15)
        dn = derivative_norms(u, 12)
        est = gevrey_order_estimate(dn.values, dn.flagged)
        assert est.classification == "analytic-like"
        assert abs(est.slope) <= 0.05


class TestExamplesOmegaBound:
    def test_both_examples_bounded_to_200(self):
        for doc in (example1_doc(), example2_doc()):
            p = load_problem(doc)
            rep = conditions.analyze(p)
            om0 = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
            s = 1.0 / (2.0 * om0.C_est)
            om = omega_sequence(p, s, rep.r0, 200, SINE_SCALE)
            assert max(om.values) <= om.C_est
