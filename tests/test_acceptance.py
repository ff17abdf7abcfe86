"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1's two reference brackets are inconsistent with their own defining
equations (verified against a 50-digit independent root; see
test_conditions.py for the corrected oracle values), so that single test is
expected to stay red; it is asserted faithfully as stated rather than
weakened.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from fdekit import conditions, gevrey, picard
from fdekit.chebfun import build
from fdekit.cli import example1_doc, example2_doc, load_problem
from fdekit.expr import parse
from fdekit.gevrey import StadiumRegion, interval_distance
from _utils import (
    integral,
    linear_combination,
    manufactured_problem,
    ode_oracle_problem,
    ode_oracle_values,
    random_passing_problem,
    random_smooth_chebfun_args,
    smooth_fn,
)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


@pytest.fixture(scope="module")
def quartic():
    t0 = time.perf_counter()
    p = load_problem(example2_doc())
    rep = conditions.analyze(p)
    check_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    sol = picard.solve(p, rep, keep_iterates=True)
    solve_seconds = time.perf_counter() - t0
    return p, rep, sol, check_seconds, solve_seconds


@pytest.fixture(scope="module")
def cubic():
    t0 = time.perf_counter()
    p = load_problem(example1_doc())
    rep = conditions.analyze(p)
    sol = picard.solve(p, rep)
    seconds = time.perf_counter() - t0
    return p, rep, sol, seconds


def test_criterion_01_quartic_hypothesis_brackets(quartic):
    _, rep, _, check_seconds, _ = quartic
    failures = []
    if not 0.1020416497 < rep.theta < 0.1020416498:
        failures.append(f"theta={rep.theta!r} outside (0.1020416497, 0.1020416498)")
    if not 0.0289635672 < rep.gap < 0.0289635673:
        failures.append(f"gap={rep.gap!r} outside (0.0289635672, 0.0289635673)")
    if not abs(rep.cond1_lhs - 0.375) <= 1e-12:
        failures.append(f"cond1_lhs={rep.cond1_lhs!r} != 0.375 +- 1e-12")
    if not abs(rep.cond2_lhs - 0.02) <= 1e-10:
        failures.append(f"cond2_lhs={rep.cond2_lhs!r} != 0.02 +- 1e-10")
    if not check_seconds < 1.0:
        failures.append(f"hypothesis stage took {check_seconds:.3f}s >= 1s")
    _report(
        1,
        "quartic example hypothesis reproduction",
        not failures,
        "; ".join(failures),
    )


def test_criterion_02_quartic_solve(quartic):
    p, rep, sol, _, solve_seconds = quartic
    ok = sol.converged
    ok &= abs(sol.u.eval(0.0) - 0.01) <= 1e-12
    ok &= sol.residual_sup <= 1e-10
    ok &= sol.u.sup_norm() <= rep.r0 + 1e-10
    incs = sol.increments
    ok &= all(incs[i] / incs[i - 1] <= rep.q + 0.05 for i in range(2, len(incs)))
    ok &= solve_seconds < 5.0
    _report(
        2,
        "quartic example solve",
        ok,
        f"iters={sol.iterations} residual={sol.residual_sup:.2e} "
        f"time={solve_seconds:.2f}s",
    )


def test_criterion_03_cubic_closed_forms(cubic):
    p, rep, sol, seconds = cubic
    theta_ref = math.sqrt(1.0 / 3.0)
    lhs_ref = 0.2 * math.sinh(1.0)
    bound_ref = math.sqrt(1.0 / 12.0)  # sufficient reference bound; < true gap
    ok = abs(rep.theta - theta_ref) <= 1e-12
    ok &= abs(rep.cond2_lhs - lhs_ref) <= 1e-12
    ok &= abs(math.sqrt((1 + 1) / (24.0 * 1.0)) - bound_ref) <= 1e-12
    ok &= rep.cond2_lhs < bound_ref <= rep.gap + 1e-12
    ok &= rep.cond2_ok
    ok &= sol.converged
    ok &= abs(sol.u.eval(0.0)) <= 1e-12
    ok &= sol.residual_sup <= 1e-10
    ok &= seconds < 5.0
    _report(
        3,
        "cubic example closed forms and solve",
        ok,
        f"theta={rep.theta!r} lhs={rep.cond2_lhs!r} time={seconds:.2f}s",
    )


def test_criterion_04_ode_oracle_equivalence():
    p = ode_oracle_problem()
    sol = picard.solve(p, force=True)
    xs = np.linspace(-1.0, 1.0, 1001)
    diff = float(np.max(np.abs(sol.u.eval(xs) - ode_oracle_values(xs))))
    _report(4, "identity-deviation ODE oracle equivalence", diff <= 1e-8,
            f"sup diff={diff:.2e}")


def test_criterion_05_manufactured_solution():
    p = manufactured_problem()
    sol = picard.solve(p, conditions.analyze(p))
    xs = np.linspace(-1.0, 1.0, 1001)
    err = float(np.max(np.abs(sol.u.eval(xs) - 0.05 * np.sin(xs))))
    _report(5, "manufactured-solution recovery", err <= 1e-10, f"sup err={err:.2e}")


def test_criterion_06_sine_inclusion_check():
    t0 = time.perf_counter()
    rep = gevrey.check_ek(parse("sin(t)"), 1.0, [0.1, 0.5, 0.9], 100, density=128)
    seconds = time.perf_counter() - t0
    ok = rep.passed
    ok &= all(
        lv.worst_dist <= lv.A / (lv.p + 1 - lv.A) + 1e-12 for lv in rep.levels
    )
    ok &= seconds < 10.0
    _report(6, "sine deviating-map inclusion check", ok,
            f"worst ratio={rep.worst_ratio:.6f} time={seconds:.2f}s")


def test_criterion_07_regularity_estimator_calibration():
    ok = True
    details = []

    est = gevrey.gevrey_order_estimate([math.e] * 12)
    ok &= abs(est.slope) <= 0.05
    details.append(f"const slope={est.slope:.3g}")

    est = gevrey.gevrey_order_estimate([float(math.factorial(j)) for j in range(1, 13)])
    ok &= abs(est.slope - 1.0) <= 0.15
    details.append(f"factorial slope={est.slope:.3f}")

    est = gevrey.gevrey_order_estimate([float(j) ** (2 * j) for j in range(1, 13)])
    ok &= est.k_hat is not None and abs(est.k_hat - 1.0) <= 0.05
    details.append(f"k_hat={est.k_hat:.3f}")

    u = build(np.exp, tol=1e-15)
    norms = gevrey.derivative_norms(u, 6)
    worst = max(abs(v - math.e) / math.e for v in norms.values)
    ok &= worst <= 1e-6
    details.append(f"exp norm relerr={worst:.2e}")

    _report(7, "regularity estimator calibration", ok, ", ".join(details))


def test_criterion_08_growth_recursion_bounded(quartic, cubic):
    p2, rep2, _, _, _ = quartic
    p1, rep1, _, _ = cubic
    ok = True
    details = []
    for p, rep, tag in ((p2, rep2, "quartic"), (p1, rep1, "cubic")):
        # 0.9: the largest scale at which sin(t) passes the inclusion check
        base = gevrey.omega_sequence(p, 0.0, rep.r0, 1, 0.9)
        s = 1.0 / (2.0 * base.C_est)
        om = gevrey.omega_sequence(p, s, rep.r0, 200, 0.9)
        ok &= max(om.values) <= om.C_est
        details.append(f"{tag}: max w={max(om.values):.3f} C={om.C_est:.3f}")
    _report(8, "growth recursion bounded by envelope constant", ok,
            "; ".join(details))


def test_criterion_09_property_suites():
    rng = np.random.default_rng(987654321)

    ok_cheb = True
    for _ in range(100):
        u = build(smooth_fn(random_smooth_chebfun_args(rng)))
        v = build(smooth_fn(random_smooth_chebfun_args(rng)))
        ok_cheb &= (u.antiderivative().differentiate() - u).sup_norm() <= 1e-10
        alpha = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-2, 2))
        d = float(rng.uniform(-1, 1))
        x = float(rng.uniform(-1, 1))
        lhs = integral(linear_combination(alpha, u, beta, v), d, x)
        rhs = alpha * integral(u, d, x) + beta * integral(v, d, x)
        ok_cheb &= abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)
        ok_cheb &= u.l1_norm() <= 2.0 * u.sup_norm() + 1e-12

    ok_cond = True
    for _ in range(100):
        p = random_passing_problem(rng)
        rep = conditions.analyze(p)
        ok_cond &= rep.ok
        ok_cond &= 0.0 < rep.r0 < rep.theta < rep.r1
        ok_cond &= rep.q < 1.0
        lo0, hi0, h_lo0, h_hi0 = rep.brackets["r0_bracket"]
        lo1, hi1, h_lo1, h_hi1 = rep.brackets["r1_bracket"]
        ok_cond &= h_lo0 > 0.0 > h_hi0 and h_lo1 < 0.0 < h_hi1

    ok_geom = True
    for _ in range(100):
        k = float(rng.uniform(0.3, 3.0))
        A = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(1, 20))
        inner = StadiumRegion(k=k, A=A, n=n + 1)
        outer = StadiumRegion(k=k, A=A, n=n)
        pts = inner.sample(8)
        ok_geom &= bool(np.all(interval_distance(pts) < outer.radius))
        z1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ok_geom &= abs(interval_distance(z1) - interval_distance(z2)) <= abs(
            z1 - z2
        ) + 1e-12

    _report(
        9,
        "randomized property suites (100 instances each)",
        ok_cheb and ok_cond and ok_geom,
        f"chebfun={ok_cheb} conditions={ok_cond} geometry={ok_geom}",
    )


def test_criterion_10_stadium_inclusion_probe(quartic):
    p, rep, sol, _, _ = quartic
    base = gevrey.omega_sequence(p, 0.0, rep.r0, 1, 0.9)
    s = 1.0 / (2.0 * base.C_est)
    probe = gevrey.stadium_inclusion_probe(
        sol.iterates, rep.r0, p.k, s, base.C_est, range(1, 9)
    )
    ok = probe.all_within and len(probe.levels) == 8
    worst = max(lv.ratio for lv in probe.levels)
    _report(10, "analytic-continuation inclusion probe", ok,
            f"s_used={probe.s_used:.4f} worst ratio={worst:.2e}")
