import dataclasses
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdekit import conditions, picard
from fdekit.chebfun import ChebFun, ResolutionError, _clenshaw, _pts_desc, build
from fdekit.cli import example1_doc, example2_doc, load_problem
from fdekit.expr import Expr, parse
from fdekit.picard import ConditionFailure, apply_T, residual, solve
from fdekit.problem import Polynomial, Problem
from _utils import (
    manufactured_problem,
    ode_oracle_problem,
    ode_oracle_values,
    random_passing_problem,
)


def zero_fun():
    return ChebFun([0.0])


class TestApplyT:
    def test_zero_fixed_point(self):
        p = Problem(
            a=parse("t"),
            b=parse("0"),
            psi=parse("sin(t)"),
            P=Polynomial.from_coeffs([0.0, 0.0, 0.0, 1.0]),
            k=1.0,
            d=0.0,
            c=0.0,
        )
        out = apply_T(zero_fun(), p)
        assert out.sup_norm() <= 1e-14

    def test_zero_start_is_integrated_source(self):
        p = load_problem(example1_doc())
        out = apply_T(zero_fun(), p)
        # T(0)(x) = c + int_d^x (b + P(0) a) = 0.1 sinh(x) here
        xs = np.linspace(-1, 1, 201)
        assert np.max(np.abs(out.eval(xs) - 0.1 * np.sinh(xs))) < 1e-13

    def test_quartic_example_closed_form_at_one(self):
        p = load_problem(example2_doc())
        out = apply_T(zero_fun(), p)
        want = 0.01 + 1.0 / 150.0
        assert out.eval(1.0) == pytest.approx(want, abs=1e-13)

    def test_initial_value_exact(self):
        p = load_problem(example2_doc())
        out = apply_T(zero_fun(), p)
        assert out.eval(p.d) == pytest.approx(p.c, abs=1e-15)


class TestSolve:
    def test_quartic_example(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sol = solve(p, rep)
        assert sol.converged
        assert sol.u.eval(0.0) == pytest.approx(0.01, abs=1e-12)
        assert sol.residual_sup <= 1e-10
        assert picard.within_ball(sol.u.sup_norm(), sol.r0_used)
        assert not sol.out_of_theorem
        assert sol.n_req is not None and sol.n_req >= 1
        # final increment obeys the recorded-tolerance contract
        assert sol.increments[-1] <= p.solve_tol * (1.0 - sol.q_used)

    def test_refuses_failing_instance_without_force(self):
        p = load_problem(
            {"k": 1.0, "d": 0.0, "c": 5.0, "P": [0.0, 0.0, 1.0],
             "a": "0.5", "b": "0", "psi": "t"}
        )
        with pytest.raises(ConditionFailure):
            solve(p)

    def test_degenerate_weight_forced_direct_integral(self):
        # a = 0: hypotheses cannot hold (theta undefined); forced run
        # integrates the source: u(x) = sin(pi x / 2)
        p = load_problem(
            {"k": 1.0, "d": 0.0, "c": 0.0, "P": [0.0, 0.0, 1.0],
             "a": "0", "b": "cos(pi*t/2)*pi/2", "psi": "t"}
        )
        rep = conditions.analyze(p)
        assert not rep.ok
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the report's flag, not a warning
            sol = solve(p, force=True)
        assert sol.converged and sol.out_of_theorem
        xs = np.linspace(-1, 1, 401)
        assert np.max(np.abs(sol.u.eval(xs) - np.sin(np.pi * xs / 2))) < 1e-12

    def test_ode_oracle_equivalence(self):
        p = ode_oracle_problem()
        sol = solve(p, force=True)
        assert sol.converged
        xs = np.linspace(-1.0, 1.0, 1001)
        diff = np.max(np.abs(sol.u.eval(xs) - ode_oracle_values(xs)))
        assert diff <= 1e-8

    def test_manufactured_solution_recovery(self):
        p = manufactured_problem()
        rep = conditions.analyze(p)
        assert rep.ok
        sol = solve(p, rep)
        xs = np.linspace(-1.0, 1.0, 1001)
        assert np.max(np.abs(sol.u.eval(xs) - 0.05 * np.sin(xs))) <= 1e-10

    def test_ball_stability_and_ratios(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sol = solve(p, rep, keep_iterates=True)
        for it in sol.iterates:
            assert picard.within_ball(it.sup_norm(), sol.r0_used)
        incs = sol.increments
        for i in range(2, len(incs)):
            assert incs[i] / incs[i - 1] <= sol.q_used + 0.05

    def test_fixed_point_verification(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sol = solve(p, rep)
        assert (apply_T(sol.u, p) - sol.u).sup_norm() <= 10 * p.solve_tol

    def test_independence_from_start(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        assert abs(p.c / 2) <= rep.r0
        sol = solve(p, rep)
        # iterate T from another start in the ball, with solve's stopping rule
        f = ChebFun([p.c / 2])
        for _ in range(p.max_iter):
            f, prev = apply_T(f, p), f
            if (f - prev).sup_norm() <= p.solve_tol * (1.0 - rep.q):
                break
        assert (sol.u - f).sup_norm() <= 10 * p.solve_tol

    def test_max_iter_returns_nonconverged(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sol = solve(dataclasses.replace(p, max_iter=2), rep)
        assert not sol.converged and sol.iterations == 2

    def test_solve_deterministic(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        s1 = solve(p, rep)
        s2 = solve(p, rep)
        assert s1.increments == s2.increments
        assert np.array_equal(s1.u.coeffs, s2.u.coeffs)
        assert s1.residual_sup == s2.residual_sup

    def test_cubic_example(self):
        p = load_problem(example1_doc())
        rep = conditions.analyze(p)
        sol = solve(p, rep)
        assert sol.converged
        assert sol.u.eval(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sol.residual_sup <= 1e-10


def forced_doc(**change):
    """y' = P(y o psi) + b with a = 1, b = 0, psi = t and y(0) = 0, entries
    replaced."""
    return {"k": 1.0, "d": 0.0, "c": 0.0, "P": [0.0, 0.0, 1.0], "a": "1", "b": "0",
            "psi": "t", **change}


TAN = forced_doc(P=[2.4, 0.0, 1.0])  # y' = y^2 + 2.4: sqrt(2.4) tan(sqrt(2.4) x)
EXP = forced_doc(P=[0.0, 5.0], c=1.0)  # y' = 5y, y(0) = 1: e^(5x)
XS = np.linspace(-1.0, 1.0, 2001)


class TestForcedSolve:
    """Outside the hypotheses no r0 or q exists: a forced solve keeps no ball
    and stops on the ratio of its last two increments."""

    def test_tan_closed_form(self):
        # sup 71.7 on [-1, 1], past any ball the data would suggest
        sol = solve(load_problem(TAN), force=True)
        r = math.sqrt(2.4)
        assert sol.converged
        assert np.max(np.abs(sol.u.eval(XS) - r * np.tan(r * XS))) <= 1e-11

    def test_exponential_closed_form(self):
        sol = solve(load_problem(EXP), force=True)
        assert sol.converged
        assert np.max(np.abs(sol.u.eval(XS) / np.exp(5.0 * XS) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("doc", [TAN, EXP], ids=["tan", "exp"])
    def test_scaling_is_bit_for_bit(self, doc):
        # y -> lam y takes P_j to P_j lam^(1-j), c to lam c and tol to lam tol
        # (b = 0 here); a power of two keeps every bit
        base = solve(load_problem(doc), force=True)
        for m in (-40, -20, 30):
            lam = 2.0 ** m
            p = load_problem({**doc, "P": [pj * lam ** (1 - j) for j, pj in enumerate(doc["P"])],
                              "c": lam * doc["c"]})
            sol = solve(dataclasses.replace(p, solve_tol=lam * p.solve_tol), force=True)
            assert sol.converged and sol.iterations == base.iterations
            assert np.array_equal(sol.u.coeffs, lam * base.u.coeffs)

    def test_report_has_no_ball_and_the_observed_ratio(self, monkeypatch):
        def refuse(p):
            raise AssertionError("a forced solve needs no source mass")

        monkeypatch.setattr(conditions, "source_mass", refuse)
        sol = solve(load_problem(TAN), force=True)
        assert sol.out_of_theorem and sol.r0_used == math.inf and sol.n_req is None
        assert sol.q_used == sol.increments[-1] / sol.increments[-2]
        # its increments grow for 8 iterates before they contract: the solve
        # goes on while they grow
        incs = sol.increments
        assert all(later > earlier for earlier, later in zip(incs[1:9], incs[2:10]))

    @pytest.mark.parametrize("doc,iterate", [
        (forced_doc(P=[0.0, 0.0, 4.0], c=1.0), 13),  # y' = 4y^2, y(0) = 1: blow-up at 1/4
        (forced_doc(P=[10.0, 0.0, 1.0]), 13),
        (forced_doc(b="0.8", psi="sin(3*t)"), 17),
        (forced_doc(P=[0.0, 0.0, 0.0, 1.0], c=2.0, psi="sin(t)"), 9),  # max_degree reached
    ], ids=["4y^2", "y^2+10", "sin(3t)", "cubic-sin(t)"])
    def test_divergence_raises_at_its_iterate(self, doc, iterate):
        with pytest.raises(ResolutionError, match=f'^iterate {iterate}: "a P'):
            solve(load_problem(doc), force=True)


class TestRandomizedSolves:
    def test_random_passing_instances_end_to_end(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            p = random_passing_problem(rng)
            rep = conditions.analyze(p)
            assert rep.ok
            sol = solve(p, rep)
            assert sol.converged
            assert sol.residual_sup <= 1e-10
            assert sol.u.sup_norm() <= rep.r0 + 1e-10
            assert abs(sol.u.eval(p.d) - p.c) <= 1e-12 * (1 + abs(p.c))
            assert (apply_T(sol.u, p) - sol.u).sup_norm() <= 10 * p.solve_tol


class TestResidual:
    def test_constant_solves_trivial_equation(self):
        p = load_problem(
            {"k": 1.0, "d": 0.0, "c": 0.7, "P": [0.0, 0.0, 1.0],
             "a": "0", "b": "0", "psi": "t"}
        )
        assert residual(ChebFun([0.7]), p) == 0.0

    def test_manufactured_buildup(self):
        p = manufactured_problem()
        u_star = build(lambda t: 0.05 * np.sin(t))
        assert residual(u_star, p) <= 1e-11

    def test_solution_residual_small(self):
        p = load_problem(example2_doc())
        sol = solve(p, conditions.analyze(p))
        assert residual(sol.u, p) <= 1e-10

    @pytest.mark.parametrize("w", [1000.0, 3000.0])
    def test_fft_derivative_matches_clenshaw(self, w):
        # u' has degree about w, below and above the 2048-cell residual grid,
        # where its coefficients are folded by aliasing before the FFT
        p = load_problem(
            {"k": 1.0, "d": 0.0, "c": 0.0, "P": [0.0, 0.0, 1.0],
             "a": "0.2*cos(3*t)", "b": "sin(t)", "psi": "sin(t)"}
        )
        u = build(lambda t: np.cos(w * t + 0.3))
        assert (u.degree > picard.RESIDUAL_GRID) == (w > 2000.0)
        x = _pts_desc(picard.RESIDUAL_GRID)
        rhs = p.a.eval_real(x) * p.P.eval(u.eval(np.sin(x))) + p.b.eval_real(x)
        want = np.max(np.abs(_clenshaw(u.differentiate().coeffs, x) - rhs))
        scale = np.sum(np.arange(u.degree + 1) * np.abs(u.coeffs))
        assert abs(residual(u, p) - want) <= 1e-13 * scale


def oscillatory_problem(seed):
    """A passing instance whose solution has degree about 2000: a = A cos(w t),
    b = B sin(v t), psi = sin(kappa t), P = t^2, jittered by the seed."""
    rng = np.random.default_rng(seed)
    return load_problem(
        {"k": 1.0, "d": 0.0, "c": float(1e-3 * rng.uniform(0.8, 1.2)), "P": [0.0, 0.0, 1.0],
         "a": f"({0.2 * rng.uniform(0.98, 1.02)!r})*cos({55.0 * rng.uniform(0.95, 1.05)!r}*t)",
         "b": f"({0.01 * rng.uniform(0.95, 1.05)!r})*sin({33.0 * rng.uniform(0.95, 1.05)!r}*t)",
         "psi": f"sin({7.0 * rng.uniform(0.95, 1.05)!r}*t)"}
    )


def cancelling_series():
    # x - T_3(x) = 4x - 4x^3: sum |c_k| = 2, sup = 8 / (3 sqrt(3)) ~ 1.5396
    return ChebFun([0.0, 1.0, 0.0, -1.0])


class TestBallCheck:
    def count_sup_norms(self, monkeypatch):
        calls = []
        sup = ChebFun.sup_norm
        monkeypatch.setattr(ChebFun, "sup_norm", lambda self: calls.append(1) or sup(self))
        return calls

    def test_coefficient_sum_inside_skips_the_sup_norm(self, monkeypatch):
        calls = self.count_sup_norms(monkeypatch)
        picard._check_ball(cancelling_series(), 2.0, 3)
        assert calls == []

    def test_cancelling_series_escapes_by_its_coefficient_bound(self, monkeypatch):
        # its sup (~1.54) is inside r0 = 1.6, but the check trusts only the
        # upper bound sum |c_k| = 2
        f = cancelling_series()
        r0 = 1.6
        assert not picard.within_ball(picard.coeff_bound(f.coeffs), r0)
        assert picard.within_ball(f.sup_norm(), r0)
        calls = self.count_sup_norms(monkeypatch)
        with pytest.raises(picard.BallEscapeError):
            picard._check_ball(f, r0, 3)
        assert calls == []

    def test_scaled_cancelling_series_still_escapes(self):
        # the slack is relative to r0, so the verdict holds at every scale
        lam = 2.0 ** -40
        with pytest.raises(picard.BallEscapeError):
            picard._check_ball(ChebFun(lam * cancelling_series().coeffs), lam * 1.6, 3)

    def test_escape_raises_with_the_coefficient_bound_message(self):
        f = cancelling_series()
        r0 = 1.5
        bound = picard.coeff_bound(f.coeffs)
        assert type(bound) is float
        msg = f"iterate 7 has coefficient bound {bound!r} > invariant radius {r0!r}"
        with pytest.raises(picard.BallEscapeError, match=f"^{re.escape(msg)}$"):
            picard._check_ball(f, r0, 7)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(degree=st.integers(0, 4096), seed=st.integers(0, 2**32 - 1),
           decay=st.floats(0.0, 20.0), signs=st.booleans())
    @example(degree=4096, seed=0, decay=0.0, signs=False)  # equal terms peak at x = 1
    @example(degree=0, seed=1, decay=0.0, signs=True)
    def test_coefficient_sum_bounds_the_sup_norm(self, degree, seed, decay, signs):
        rng = np.random.default_rng(seed)
        c = np.exp(-decay * np.arange(degree + 1) / (degree + 1))
        if signs:
            c *= rng.standard_normal(degree + 1)
        assert picard.coeff_bound(c) >= ChebFun(c).sup_norm()


class TestSampleReuse:
    def test_no_sup_norm_and_one_data_sample_per_grid(self, monkeypatch):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sups, evals = [], Counter()
        sup, eval_real = ChebFun.sup_norm, Expr.eval_real
        monkeypatch.setattr(ChebFun, "sup_norm", lambda self: sups.append(1) or sup(self))

        def counted(self, t):
            evals[id(self), np.size(t)] += 1
            return eval_real(self, t)

        monkeypatch.setattr(Expr, "eval_real", counted)
        sol = solve(p, rep)
        assert sol.iterations >= 3
        assert sups == []
        assert max(evals.values()) == 1
        assert {key[0] for key in evals} == {id(p.a), id(p.b), id(p.psi)}
        # Chebyshev grids build sampled, and the residual grid
        sizes = {key[1] for key in evals}
        assert picard.RESIDUAL_GRID + 1 in sizes
        assert all(n - 1 >= 16 and (n - 1) & (n - 2) == 0 for n in sizes)

    @pytest.mark.parametrize("case", ["example1", "example2", "oscillatory"])
    def test_reuse_is_exact(self, case):
        p = {"example1": lambda: load_problem(example1_doc()),
             "example2": lambda: load_problem(example2_doc()),
             "oscillatory": lambda: oscillatory_problem(11)}[case]()
        rep = conditions.analyze(p)
        assert rep.ok
        sol = solve(p, rep)
        if case == "oscillatory":
            assert sol.u.degree > 128
        f, increments = ChebFun(np.zeros(1)), []
        for _ in range(sol.iterations):
            fn = apply_T(f, p)
            increments.append(picard.coeff_bound((fn - f).coeffs))
            # the recorded increment bounds the sup, and every kept iterate
            # is inside the ball by its coefficient bound
            assert increments[-1] >= (fn - f).sup_norm()
            assert picard.within_ball(picard.coeff_bound(fn.coeffs), rep.r0)
            f = fn
        assert np.array_equal(sol.u.coeffs, f.coeffs)
        assert sol.increments == increments
        assert sol.residual_sup == residual(f, p)
