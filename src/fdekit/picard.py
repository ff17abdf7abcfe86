"""Fixed-point construction of the solution by contraction iteration.

The solution is the unique fixed point, inside the sup-norm ball of radius
r0, of

    T(f)(x) = integral_d^x  a(t) P(f(psi(t))) dt  +  integral_d^x b(t) dt + c.

Starting from the zero function, the iterates converge geometrically with
ratio q = ||a||_1 M'(r0) < 1; the stopping rule converts the a-posteriori
bound ||u - f_n|| <= q/(1-q) ||f_n - f_{n-1}|| into a sup-norm tolerance.
Each iterate is rebuilt as a fresh adaptive series, and the returned solution
carries the increment history and an equation residual measured on a dense
grid.  A forced solve keeps no ball; its q is the ratio of its last two increments.

The loop measures with one norm: sum |c_k| over the Chebyshev coefficients,
rounded up (coeff_bound), which bounds the sup on [-1, 1] from above since
|T_k| <= 1.  An iterate whose bound exceeds r0 (1 + BALL_SLACK) escapes the
invariant ball, and the recorded increment of f_n is the bound of
f_n - f_{n-1}, so neither the ball check nor the stopping rule rests on a
sampled sup norm.

The data a, clamped psi and b do not change between iterates, and every
adaptive build samples the same Chebyshev grids, so one solve keeps their
values per grid size (``_samples``, see _data) and drops them on return;
residual reads the 2049-point grid from the same store.  Each iterate also
takes the FFT grid step of its own evaluation once, not once per grid its
build samples.  Both are exact reuses: a solve returns the same bits as
repeated apply_T(f, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conditions
from .chebfun import ChebFun, ResolutionError, _evaluator, _grid_values, _pts_desc, build
from .problem import clamp_unit

__all__ = [
    "Solution",
    "PicardError",
    "BallEscapeError",
    "ConditionFailure",
    "apply_T",
    "coeff_bound",
    "solve",
    "residual",
    "defect",
]

RESIDUAL_GRID = 2048  # 2049 Chebyshev points
BALL_SLACK = 1e-10  # relative to r0, so the ball rule holds at every scale
_EPS = float(np.finfo(float).eps)  # a Python float, so bounds print plainly


class PicardError(Exception):
    pass


class BallEscapeError(PicardError):
    """An iterate left the ball the hypotheses make invariant: numerics."""


class ConditionFailure(PicardError):
    """solve() was called on an instance whose hypotheses fail, without force."""


@dataclass
class Solution:
    """increments[n-1] is the rounded-up sum |c_k| of f_{n+1} - f_n
    (coeff_bound), an upper bound of its sup on [-1, 1].  A forced solve has
    r0_used inf, n_req None, q_used increments[-1] / increments[-2] (after
    one increment: inf, or 0.0 if it is 0).  degree is that of u; u and the
    kept iterates are repr=False fields, which the CLI report leaves out."""

    u: ChebFun = field(repr=False)
    iterations: int
    increments: list
    q_used: float
    r0_used: float
    residual_sup: float
    converged: bool
    out_of_theorem: bool = False
    n_req: int | None = None
    coeff_decay: float | None = None
    degree: int | None = None
    iterates: list | None = field(default=None, repr=False)


def apply_T(f, p, *, _samples=None):
    """One application of the integral operator to a ChebFun iterate.

    The integrand t -> a(t) P(f(psi(t))) + b(t) is rebuilt adaptively at the
    problem's series tolerance; psi outputs are clamped into [-1, 1] before
    composition.  The result satisfies T(f)(d) = c to roundoff.  _samples is
    solve's store of data samples (see _data); without it every point set is
    evaluated afresh.
    """
    ev = _evaluator(f.coeffs)
    g = build(lambda t: _rhs(ev, p, t, _samples), p.cheb_tol, p.max_degree)
    u = g.antiderivative()
    shift = u.eval(p.d) - p.c
    cc = u.coeffs.copy()
    cc[0] -= shift
    return ChebFun(cc, u.ellipse_hint)


def solve(p, report=None, *, force=False, keep_iterates=False):
    """Iterate f_1 = 0, f_{n+1} = T(f_n) to the fixed point.

    Requires a passing ConditionsReport (computed if not supplied), whose r0
    and q it uses, unless force=True, which runs outside the hypothesis
    window with no ball (r0 = inf) and q_n = inc_n / inc_(n-1), the observed
    ratio, and marks the result out_of_theorem.  Iteration stops once the
    increment's coefficient bound is at most p.solve_tol * (1 - q), so never
    while forced increments grow; p.max_iter steps without that return
    converged=False.  A ball escape, an unresolved or a non-finite iterate
    raises, naming the iterate.  keep_iterates keeps f_1, f_2, ... on the
    Solution.
    """
    if force:
        r0 = q = math.inf
    else:
        if report is None:
            report = conditions.analyze(p)
        if not report.ok:
            raise ConditionFailure(
                report.error or "hypotheses fail; pass force=True to override"
            )
        r0 = report.r0
        q = report.q

    f = ChebFun(np.zeros(1))
    samples = {}
    iterates = [f] if keep_iterates else None
    increments = []
    converged = False
    n_req = None
    n = 0
    for n in range(1, p.max_iter + 1):
        try:
            fn = apply_T(f, p, _samples=samples)
        except ResolutionError as exc:
            raise ResolutionError(f'iterate {n + 1}: "a P(f o psi) + b": {exc}') from exc
        inc = coeff_bound((fn - f).coeffs)
        increments.append(inc)
        if force:  # the first increment has no ratio: it stops the solve only at 0
            q = inc / increments[-2] if n > 1 else (math.inf if inc else 0.0)
        # stop once the a-posteriori error bound q/(1-q) * inc is below tol; for
        # 0 < q < 1, inc <= tol*(1-q) ensures it and is what the Solution records
        threshold = p.solve_tol * (1.0 - q)
        _check_ball(fn, r0, n + 1)
        if keep_iterates:
            iterates.append(fn)
        if n == 1 and 0.0 < q < 1.0 and inc > 0.0:
            n_req = 1 if threshold >= inc else math.ceil(math.log(threshold / inc) / math.log(q))
        f = fn
        if inc <= threshold:
            converged = True
            break

    return Solution(
        u=f,
        iterations=n,
        increments=increments,
        q_used=q,
        r0_used=r0,
        residual_sup=residual(f, p, _samples=samples),
        converged=converged,
        out_of_theorem=force,
        n_req=n_req,
        coeff_decay=f.ellipse_hint,
        degree=f.degree,
        iterates=iterates,
    )


def within_ball(bound, r0):
    """The invariant-ball rule: bound <= r0 up to the relative slack BALL_SLACK."""
    return bound <= r0 * (1.0 + BALL_SLACK)


def _check_ball(f, r0, index):
    """Raise BallEscapeError unless the coefficient bound of f, an upper bound
    of sup |f|, is within_ball r0: every iterate kept is inside the ball."""
    bound = coeff_bound(f.coeffs)
    if not within_ball(bound, r0):
        raise BallEscapeError(
            f"iterate {index} has coefficient bound {bound!r} > invariant radius {r0!r}"
        )


def coeff_bound(c):
    """sum |c_k| rounded up, an upper bound of sup |sum c_k T_k| on [-1, 1]:
    fsum rounds correctly, and the factor 1 + (len(c) + 1) eps covers that
    rounding and the product's own."""
    return math.fsum(np.abs(c).tolist()) * (1.0 + (len(c) + 1) * _EPS)


def residual(u, p, *, _samples=None):
    """Sup over a 2049-point Chebyshev grid of |u' - a * P(u o psi) - b|,
    with u' on the grid from one FFT of its coefficients.  _samples as in
    apply_T."""
    du = _grid_values(u.differentiate().coeffs, RESIDUAL_GRID)
    rhs = _rhs(u.eval, p, _pts_desc(RESIDUAL_GRID), _samples)
    return float(np.max(np.abs(du - rhs)))


def defect(u, p, x):
    """Pointwise equation defect u'(x) - (a P(u o psi) + b)(x) at points x."""
    return u.differentiate().eval(x) - _rhs(u.eval, p, x)


def _rhs(ev, p, x, samples=None):
    """(a P(f o psi) + b)(x), with psi clamped into [-1, 1] and ev evaluating
    f at real points."""
    a, pv, b = _data(p, x, samples)
    return a * p.P.eval(ev(pv)) + b


def _data(p, x, samples):
    """a(x), clamp_unit(psi(x)) and b(x).  samples, when given, is one solve's
    store: the first point set of each size is kept under its size (for
    apply_T, the Chebyshev grids build samples), and the same points asked
    again are read back; any other point set is evaluated afresh."""
    if samples is not None:
        kept = samples.get(len(x))
        if kept is not None and np.array_equal(kept[0], x):
            return kept[1:]
    pv = clamp_unit(p.psi.eval_real(x))
    vals = (p.a.eval_real(x), pv, p.b.eval_real(x))
    if samples is not None:
        samples.setdefault(len(x), (x, *vals))
    return vals
