"""Shared test helpers: instance generators and independent oracles."""

import numpy as np

from fdekit.chebfun import ChebFun
from fdekit.cli import load_problem
from fdekit import conditions
from fdekit.problem import Polynomial, Problem
from fdekit.expr import parse


def random_passing_problem(rng):
    """A random instance that provably satisfies both hypotheses.

    The polynomial has no constant term (so the source mass is just ||b||_1
    + |c|) and a small linear coefficient, which keeps the first hypothesis
    comfortably strict; b and c are then sized inside the second hypothesis
    window computed from theta.
    """
    fam = int(rng.integers(0, 3))
    amp = 0.2 + 0.6 * rng.random()
    if fam == 0:
        w = 0.5 + 2.5 * rng.random()
        a_src = f"({amp!r})*cos(({w!r})*t)"
    elif fam == 1:
        a_src = f"({amp!r})*2^t"
    else:
        off = 0.1 + rng.random()
        a_src = f"({amp!r})*(t^2 + ({off!r}))"

    deg = int(rng.integers(2, 5))
    coeffs = [0.0] * (deg + 1)
    coeffs[1] = 0.3 * rng.random()
    coeffs[deg] = 0.3 + 1.2 * rng.random()
    if deg >= 3 and rng.random() < 0.5:
        coeffs[2] = (0.5 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)

    psi_src = ["t", "sin(t)", f"({0.3 + 0.6 * rng.random()!r})*t"][int(rng.integers(0, 3))]
    d = float(rng.uniform(-0.9, 0.9))

    skeleton = Problem(
        a=parse(a_src),
        b=parse("0"),
        psi=parse(psi_src),
        P=Polynomial.from_coeffs(coeffs),
        k=1.0,
        d=d,
        c=0.0,
    )
    theta = conditions.compute_theta(skeleton.P, conditions.a_l1_norm(skeleton))
    gap, _ = conditions.check_condition2(skeleton.P, theta, lhs=1.0)
    b_const = 0.125 * gap
    c = 0.15 * gap
    return Problem(
        a=parse(a_src),
        b=parse(f"({b_const!r})"),
        psi=parse(psi_src),
        P=Polynomial.from_coeffs(coeffs),
        k=1.0,
        d=d,
        c=c,
    )


def linear_combination(alpha, u, beta, v):
    """alpha*u + beta*v as a ChebFun, from zero-padded coefficient arrays."""
    n = max(u.degree, v.degree) + 1
    cu, cv = (np.pad(w.coeffs, (0, n - len(w.coeffs))) for w in (u, v))
    return ChebFun(alpha * cu + beta * cv)


def random_smooth_chebfun_args(rng):
    """Coefficients for a random smooth test function of modest degree."""
    return {
        "c1": float(rng.uniform(-2, 2)),
        "w1": float(rng.uniform(0.5, 12.0)),
        "phase": float(rng.uniform(0, 6.28)),
        "c2": float(rng.uniform(-1, 1)),
        "rate": float(rng.uniform(-1.5, 1.5)),
        "c3": float(rng.uniform(-1, 1)),
        "m": int(rng.integers(0, 6)),
    }


def smooth_fn(args):
    def f(t):
        t = np.asarray(t, dtype=float)
        return (
            args["c1"] * np.sin(args["w1"] * t + args["phase"])
            + args["c2"] * np.exp(args["rate"] * t)
            + args["c3"] * t ** args["m"]
        )

    return f


def integral(u, d, x):
    """Integral of the ChebFun u from d to x: a difference of antiderivative
    values."""
    anti = u.antiderivative()
    return float(anti.eval(x) - anti.eval(d))


def ode_oracle_problem():
    """Identity-deviation quadratic instance matched by a classical ODE."""
    return load_problem(
        {
            "k": 1.0,
            "d": 0.0,
            "c": 0.1,
            "P": [0.0, 0.0, 1.0],
            "a": "0.3",
            "b": "cos(t)",
            "psi": "t",
        }
    )


def ode_oracle_values(xs):
    """High-order adaptive integration of y' = 0.3 y^2 + cos t, y(0) = 0.1."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [0.3 * y[0] ** 2 + np.cos(t)]

    fwd = solve_ivp(rhs, (0.0, 1.0), [0.1], method="DOP853", rtol=1e-12,
                    atol=1e-14, dense_output=True)
    bwd = solve_ivp(rhs, (0.0, -1.0), [0.1], method="DOP853", rtol=1e-12,
                    atol=1e-14, dense_output=True)
    xs = np.asarray(xs, dtype=float)
    out = np.where(
        xs >= 0.0,
        fwd.sol(np.clip(xs, 0.0, 1.0))[0],
        bwd.sol(np.clip(xs, -1.0, 0.0))[0],
    )
    return out


def manufactured_problem():
    """Instance built around the known solution u*(t) = 0.05 sin t."""
    return load_problem(
        {
            "k": 1.0,
            "d": 0.0,
            "c": 0.0,
            "P": [0.0, 0.0, 0.0, 1.0],
            "a": "t^2",
            "b": "0.05*cos(t) - t^2*(0.05*sin(sin(t)))^3",
            "psi": "sin(t)",
        }
    )


def bisect_oracle(f, lo, hi, tol=1e-14):
    """Plain interval bisection, independent of the package root finders."""
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) == 0.0:
            return mid
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
