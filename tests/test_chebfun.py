import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from fdekit import chebfun
from fdekit.chebfun import (
    DEFAULT_TOL,
    _EVAL_CROSSOVER,
    _EVAL_SLACK,
    _OVERSAMPLE,
    ChebError,
    ChebFun,
    CoefficientError,
    EvalDomainError,
    ResolutionError,
    _clenshaw,
    _evaluator,
    _fft_size,
    _grid_values,
    _pts_desc,
    _sup_norms,
    _theta_eval,
    build,
)
from _utils import integral, linear_combination, random_smooth_chebfun_args, smooth_fn


def bessel_i0_oracle():
    # (1/pi) * int_0^pi exp(cos s) ds by periodic trapezoid (spectrally
    # accurate, independent of the Chebyshev machinery)
    s = np.linspace(0.0, np.pi, 20001)
    return float(np.trapezoid(np.exp(np.cos(s)), s) / np.pi)


class TestBuild:
    def test_identity(self):
        u = build(lambda t: t)
        assert u.degree == 1
        assert u.coeffs[1] == pytest.approx(1.0, abs=1e-15)
        assert abs(u.coeffs[0]) < 1e-15

    def test_t2_maps_to_second_mode(self):
        u = build(lambda t: 2 * t * t - 1)
        assert u.degree == 2
        assert u.coeffs[2] == pytest.approx(1.0, abs=1e-13)
        assert abs(u.coeffs[1]) < 1e-13

    def test_exp_leading_coefficient_is_bessel_value(self):
        u = build(np.exp)
        assert u.coeffs[0] == pytest.approx(bessel_i0_oracle(), abs=1e-12)
        assert u.coeffs[0] == pytest.approx(1.2660658777520084, abs=1e-12)

    def test_zero_function(self):
        u = build(lambda t: 0.0 * t)
        assert u.degree == 0 and u.coeffs[0] == 0.0
        assert u.grid_size == 17  # converged on the first grid, degree 16

    def test_grid_size_only_from_build(self):
        assert ChebFun([1.0, 0.5]).grid_size is None
        assert build(lambda t: np.sin(40 * t)).grid_size == 129  # grids 17, 33, 65, 129

    def test_nonsmooth_fails(self):
        with pytest.raises(ResolutionError):
            build(np.abs, tol=1e-13, max_degree=1024)

    def test_evaluation_error_propagates(self):
        def f(t):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            build(f)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            build(np.exp, tol=1e-2)

    @pytest.mark.parametrize("f", [lambda t: 1.0, lambda t: t[:-1], lambda t: np.outer(t, t)])
    def test_non_vectorised_function_rejected(self, f):
        with pytest.raises(ChebError, match="build needs a vectorised f"):
            build(f)

    def test_trailing_coefficient_above_threshold(self):
        for f in (np.exp, lambda t: 2.0**t, lambda t: np.sin(np.pi * t)):
            u = build(f)
            assert abs(u.coeffs[-1]) >= DEFAULT_TOL * np.max(np.abs(u.coeffs))

    def test_matches_samples_on_final_grid(self):
        for f in (np.exp, lambda t: 2.0**t, lambda t: np.sin(np.pi * t)):
            u = build(f)
            pts = _pts_desc(u.grid_size - 1)
            bound = 10 * DEFAULT_TOL * np.max(np.abs(u.coeffs))
            assert np.max(np.abs(u.eval(pts) - f(pts))) <= bound


class TestEval:
    def test_linear(self):
        u = ChebFun([0.0, 1.0])
        assert u.eval(0.3) == pytest.approx(0.3, abs=1e-16)

    def test_t2_at_half(self):
        u = ChebFun([0.0, 0.0, 1.0])
        assert u.eval(0.5) == -0.5

    def test_exp_at_one(self):
        assert build(np.exp).eval(1.0) == pytest.approx(math.e, abs=1e-12)

    def test_clamp_and_domain(self):
        u = ChebFun([0.0, 1.0])
        assert u.eval(1.0 + 5e-15) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(EvalDomainError):
            u.eval(1.1)

    def test_vectorised(self):
        u = build(np.exp)
        xs = np.linspace(-1, 1, 11)
        assert np.max(np.abs(u.eval(xs) - np.exp(xs))) < 1e-12


class TestEvalComplex:
    def test_identity(self):
        v = ChebFun([0.0, 1.0]).eval_complex(0.2 + 0.1j)
        assert v == pytest.approx(0.2 + 0.1j, abs=1e-16)

    def test_t2_at_i(self):
        v = ChebFun([0.0, 0.0, 1.0]).eval_complex(1j)
        assert v == pytest.approx(-3.0 + 0j, abs=1e-15)

    def test_exp_on_imaginary_axis(self):
        v = build(np.exp).eval_complex(0.1j)
        assert v == pytest.approx(complex(math.cos(0.1), math.sin(0.1)), abs=1e-10)

    def test_real_axis_agrees_with_eval_to_4_ulps(self):
        rng = np.random.default_rng(11)
        u = build(lambda t: np.sin(3 * t) + 0.5 * np.exp(t))
        for x in rng.uniform(-1, 1, 100):
            rv = u.eval(float(x))
            cv = u.eval_complex(complex(x))
            assert cv.imag == 0.0
            assert abs(cv.real - rv) <= 4 * math.ulp(max(abs(rv), 1e-300))


class TestCalculus:
    def test_integral_constants(self):
        assert integral(ChebFun([1.0]), 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert integral(ChebFun([0.0, 1.0]), 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_integral_2_power_t(self):
        u = build(lambda t: 2.0**t)
        want = 3.0 / (2.0 * math.log(2.0))
        assert integral(u, -1.0, 1.0) == pytest.approx(want, abs=1e-13)

    def test_differentiate_t2(self):
        d = ChebFun([0.0, 0.0, 1.0]).differentiate()
        assert d.degree == 1
        assert np.allclose(d.coeffs, [0.0, 4.0])

    def test_differentiate_exp_matches_itself(self):
        u = build(np.exp)
        assert (u.differentiate() - u).sup_norm() < 1e-10

    def test_differentiate_constant(self):
        d = ChebFun([3.0]).differentiate()
        assert d.degree == 0 and d.coeffs[0] == 0.0


class TestNorms:
    def test_sup_linear(self):
        assert ChebFun([0.0, 1.0]).sup_norm() == pytest.approx(1.0, abs=1e-15)

    def test_sup_2_power_t(self):
        assert build(lambda t: 2.0**t).sup_norm() == pytest.approx(2.0, abs=1e-12)

    def test_sup_sin_pi_t(self):
        u = build(lambda t: np.sin(np.pi * t))
        assert u.sup_norm() == pytest.approx(1.0, abs=1e-12)

    def test_l1_linear(self):
        assert ChebFun([0.0, 1.0]).l1_norm() == pytest.approx(1.0, abs=1e-14)

    def test_l1_2_power_t(self):
        u = build(lambda t: 2.0**t)
        assert u.l1_norm() == pytest.approx(3.0 / (2.0 * math.log(2.0)), abs=1e-13)

    def test_l1_sin_pi_t(self):
        u = build(lambda t: np.sin(np.pi * t))
        assert u.l1_norm() == pytest.approx(4.0 / math.pi, abs=1e-13)

    def test_heavy_oscillation_still_integrates(self):
        # 80 sign changes
        u = build(lambda t: np.sin(40 * np.pi * t))
        assert u.l1_norm() == pytest.approx(4.0 / math.pi, rel=1e-10)

    def test_batched_rows_stop_where_their_one_row_runs_stop(self):
        # _newton skips each row of the batch as soon as it has stopped, so
        # a row's norm does not depend on the rows beside it: 2 to 12 decaying
        # rows of up to 600 coefficients, some with their tails cut to zero
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rows, cols = int(rng.integers(2, 13)), int(rng.integers(1, 601))
            decay = rng.uniform(0.0, 16.0, (rows, 1))
            c = rng.standard_normal((rows, cols)) * 10.0 ** (-decay * np.arange(cols) / cols)
            for r in range(rows):
                if rng.random() < 0.3:
                    c[r, rng.integers(1, cols + 1):] = 0.0
            got = _sup_norms(c)
            assert [got[r] == _sup_norms(c[r : r + 1])[0] for r in range(rows)] == [True] * rows

    def test_theta_eval_skips_the_rows_not_moving(self):
        # a moving row reads what the call over all rows gives it, bit for
        # bit, and any other row exact zeros; 300 points take several chunks
        rng = np.random.default_rng(5)
        c = rng.standard_normal((5, 120)) * 0.9 ** np.arange(120)
        counts = np.array([3, 300, 1, 40, 17])
        starts = (np.cumsum(counts) - counts).tolist()
        theta = rng.uniform(0.0, math.pi, counts.sum())
        full = _theta_eval(c, theta, starts)
        for moving in ([True, False, True, False, True], [False, True, False, True, False]):
            got = _theta_eval(c, theta, starts, np.array(moving))
            on = np.repeat(moving, counts)
            assert np.array_equal(got[:, on], full[:, on])
            assert not got[:, ~on].any()


class TestPropertySuites:
    def test_fundamental_theorem_and_linearity_and_norms(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            args = random_smooth_chebfun_args(rng)
            u = build(smooth_fn(args))
            assert u.degree <= 256

            # fundamental theorem of calculus
            assert (u.antiderivative().differentiate() - u).sup_norm() <= 1e-10

            # linearity of the definite integral
            args2 = random_smooth_chebfun_args(rng)
            v = build(smooth_fn(args2))
            alpha = float(rng.uniform(-2, 2))
            beta = float(rng.uniform(-2, 2))
            w = linear_combination(alpha, u, beta, v)
            d = float(rng.uniform(-1, 1))
            x = float(rng.uniform(-1, 1))
            lhs = integral(w, d, x)
            rhs = alpha * integral(u, d, x) + beta * integral(v, d, x)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-13 * scale

            # norm consistency
            assert u.l1_norm() <= 2.0 * u.sup_norm() + 1e-12


def differentiate_reference(c):
    """The derivative recurrence w[k-1] = w[k+1] + 2k c_k, one term at a time."""
    n = len(c) - 1
    if n == 0:
        return np.zeros(1)
    w = np.zeros(n + 2)
    for k in range(n, 0, -1):
        w[k - 1] = w[k + 1] + 2.0 * k * c[k]
    w[0] *= 0.5
    return w[:n]


class TestKernelEdgeCases:
    def test_differentiate_matches_recurrence_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for n in list(range(12)) + [100, 1001, 4096]:
            c = rng.standard_normal(n + 1)
            assert np.array_equal(ChebFun(c).differentiate().coeffs, differentiate_reference(c))

    @pytest.mark.parametrize("coeffs", [[], [[1.0]], [math.inf]], ids=["empty", "2-d", "inf"])
    def test_bad_coefficients_raise_a_cheb_error_that_is_a_value_error(self, coeffs):
        with pytest.raises(CoefficientError) as ei:
            ChebFun(coeffs)
        assert isinstance(ei.value, ChebError) and isinstance(ei.value, ValueError)

    def test_overflowing_derivative_raises_without_a_numpy_warning(self):
        # 2 * 40 * 1e307 overflows; warnings are errors under pytest
        with pytest.raises(CoefficientError, match="^non-finite coefficients$"):
            ChebFun([0.0] * 40 + [1e307]).differentiate()

    def test_grid_values_invert_vals_to_coeffs(self):
        rng = np.random.default_rng(8)
        for m, n in ((0, 64), (5, 5), (5, 64), (40, 321)):
            c = rng.standard_normal(m + 1)
            want = npcheb.chebval(_pts_desc(n), c)
            assert np.max(np.abs(_grid_values(c, n) - want)) <= 1e-14 * np.sum(np.abs(c))

    def test_grid_values_fold_above_degree_n(self):
        # every j-th node of the grid of j*n cells is a node of the n-cell one
        rng = np.random.default_rng(10)
        for m, n, j in ((9, 4, 3), (100, 7, 15), (5000, 2048, 3)):
            c = rng.standard_normal(m + 1)
            want = _grid_values(c, j * n)[::j]
            assert np.max(np.abs(_grid_values(c, n) - want)) <= 1e-13 * np.sum(np.abs(c))

    def test_fft_size_is_the_next_5_smooth_number(self):
        def smooth(k):
            for f in (2, 3, 5):
                while k % f == 0:
                    k //= f
            return k == 1

        for n in list(range(1, 200)) + [10832, 16 * 677, 69912]:
            size = _fft_size(n)
            assert size >= n and smooth(size)
            assert not any(smooth(k) for k in range(n, size))

    def test_root_on_a_grid_node(self):
        # the root sits within 1e-16 of the node x = cos(pi/2)
        assert ChebFun([2e-17, 0.5]).l1_norm() == pytest.approx(0.5, abs=1e-15)
        assert ChebFun([0.0, 1.0]).l1_norm() == pytest.approx(1.0, abs=1e-15)

    def test_example1_odd_power_through_zero(self):
        # a = alpha t^N with N odd has its root at t = 0, a grid node
        for n_pow in (1, 3):
            u = build(lambda t, n=n_pow: 0.9 * t**n)
            assert u.l1_norm() == pytest.approx(2 * 0.9 / (n_pow + 1), abs=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sup_at_an_interval_end(self, sign):
        # T_8 + T_1 peaks at 2 on x = 1 only, T_8 - T_1 on x = -1 only
        c = np.zeros(9)
        c[8], c[1] = 1.0, sign
        assert ChebFun(c).sup_norm() == pytest.approx(2.0, abs=1e-15)
        assert ChebFun(-c).sup_norm() == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 40, 301])
    def test_sup_halfway_between_grid_nodes(self, m):
        # 1 - (x - x*)^2, zero-padded to degree m, has |u| <= 1 with equality
        # only at x*, which sits at theta halfway between two grid nodes
        ng = _fft_size(max(8 * (m + 1), 64))
        xs = math.cos((ng // 2 - 0.5) * math.pi / ng)  # just right of 0
        c = np.zeros(m + 1)
        c[:3] = [0.5 - xs * xs, 2.0 * xs, -0.5]
        assert ChebFun(c).sup_norm() == pytest.approx(1.0, abs=1e-15)


# -- accuracy against a 50-digit oracle ---------------------------------------
#
# The oracle sums the exact series (float coefficients taken as exact) in
# fixed-point integers scaled by 2^_FIX, about 77 digits, and takes
# transcendental values (grid nodes) from mpmath at 50 digits.  Locations of
# roots and extrema come from double-precision Newton on numpy's Clenshaw:
# an error delta there moves the sup and the integral only by O(delta^2).

_FIX = 256


def _fixed(v):
    num, den = float(v).as_integer_ratio()
    return (num << _FIX) // den


def _exact(coeffs_fixed, xs_fixed):
    """sum c_k T_k(x) * 2^_FIX at fixed-point points, by integer Clenshaw."""
    x = np.array(xs_fixed, dtype=object)
    b1 = np.zeros(len(x), dtype=object)
    b2 = np.zeros(len(x), dtype=object)
    for ck in coeffs_fixed[:0:-1]:
        b1, b2 = ((2 * x * b1) >> _FIX) - b2 + ck, b1
    return ((x * b1) >> _FIX) - b2 + coeffs_fixed[0]


def _to_mp(v_fixed):
    return mpmath.ldexp(mpmath.mpf(int(v_fixed)), -_FIX)


def _random_series(m, seed):
    """Random coefficients decaying to 1e-15 of the first, like a resolved build."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(m + 1) * 10.0 ** (-15.0 * np.arange(m + 1) / m)


def _newton(c, x, lo, hi, steps=8):
    """Double-precision Newton for a zero of sum c_k T_k, kept in [lo, hi]."""
    d = npcheb.chebder(c)
    for _ in range(steps):
        x = np.clip(x - npcheb.chebval(x, c) / npcheb.chebval(x, d), lo, hi)
    return x


def _oracle_sup(c, cf, x, v):
    """max |u|: exact values at the ends and at Newton-polished maxima of the
    three largest local maxima of |v|, the values at the ascending grid x."""
    va = np.abs(v)
    peak = np.nonzero((va[1:-1] >= va[:-2]) & (va[1:-1] >= va[2:]))[0] + 1
    top = peak[np.argsort(va[peak])[-3:]]
    xs = _newton(npcheb.chebder(c), x[top], x[top - 1], x[top + 1])
    pts = np.concatenate([[-1.0, 1.0], xs])
    return max(abs(_to_mp(e)) for e in _exact(cf, [_fixed(p) for p in pts]))


def _oracle_l1(c, cf, x, v):
    """int |u|: exact antiderivative differences between Newton-polished roots
    of the sign changes of v on the grid x, signed at the piece midpoints."""
    br = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    a, b = x[br], x[br + 1]
    roots = _newton(c, a - v[br] * (b - a) / (v[br + 1] - v[br]), a, b)
    bps = np.concatenate([[-1.0], roots, [1.0]])
    ext = list(cf) + [0, 0]
    anti = [0, ext[0] - ext[2] // 2] + [
        (ext[k - 1] - ext[k + 1]) // (2 * k) for k in range(2, len(cf) + 1)
    ]
    big = _exact(anti, [_fixed(p) for p in bps])
    sign = np.sign(npcheb.chebval(0.5 * (bps[:-1] + bps[1:]), c))
    return _to_mp(sum(int(s) * (hi - lo) for lo, hi, s in zip(big[:-1], big[1:], sign)))


# Errors of the Clenshaw-based kernels fdekit used before the FFT grid (dense
# Clenshaw grid, golden-section search, bisection) against this oracle on the
# same series, relative to sum |c_k|.
CLENSHAW_REL_ERR = {
    16: {"grid": 9.11e-17, "sup": 4.26e-17, "l1": 1.17e-16},
    257: {"grid": 9.51e-16, "sup": 2.57e-17, "l1": 4.14e-17},
    2049: {"grid": 2.87e-15, "sup": 4.01e-17, "l1": 1.01e-17},
    4097: {"grid": 2.15e-15, "sup": 1.00e-16, "l1": 1.96e-17},
}


def kernel_errors(u):
    """{kernel: (error, one ulp of the exact value)}, relative to sum |c_k|,
    for _grid_values (worst of 33 nodes), sup_norm and l1_norm."""
    mpmath.mp.dps = 50
    c = np.asarray(u.coeffs)
    cf = [_fixed(v) for v in c]
    n = 8 * len(c)
    idx = np.unique(np.linspace(0, n, 33).astype(int))
    nodes = [int(mpmath.floor(mpmath.ldexp(mpmath.cos(j * mpmath.pi / n), _FIX))) for j in idx]
    exact = [_to_mp(e) for e in _exact(cf, nodes)]
    x = _pts_desc(n)[::-1]
    v = npcheb.chebval(x, c)
    sup, l1 = _oracle_sup(c, cf, x, v), _oracle_l1(c, cf, x, v)
    out = {
        "grid": (max(abs(g - e) for g, e in zip(_grid_values(c, n)[idx], exact)),
                 max(abs(e) for e in exact)),
        "sup": (abs(u.sup_norm() - sup), sup),
        "l1": (abs(u.l1_norm() - l1), l1),
    }
    scale = float(np.sum(np.abs(c)))
    return {k: (float(e) / scale, float(np.spacing(float(w))) / scale) for k, (e, w) in out.items()}


@pytest.mark.parametrize("m", sorted(CLENSHAW_REL_ERR))
def test_kernels_against_oracle(m):
    # no worse than the Clenshaw kernels, or within two ulps of the exact
    # value: FFT and dense-product sums round in another order than
    # Clenshaw, and at that level which way the roundings fall is chance
    u = ChebFun(_random_series(m, seed=m))
    for key, (err, ulp) in kernel_errors(u).items():
        assert err <= 1e-13, (key, err)
        assert err <= max(CLENSHAW_REL_ERR[m][key], 2.0 * ulp), (key, err, ulp)
    n = 8 * (m + 1)
    diff = np.max(np.abs(_grid_values(u.coeffs, n) - npcheb.chebval(_pts_desc(n), u.coeffs)))
    assert diff <= 1e-13 * np.sum(np.abs(u.coeffs))


def _exact_values(c, x):
    """sum c_k T_k at the float points x, exactly, as mpmath numbers."""
    return [_to_mp(e) for e in _exact([_fixed(v) for v in c], [_fixed(v) for v in x])]


def _eval_points(seed, count=32):
    """Random points, sin(40 x)-mapped points (which crowd towards +-1) and +-1."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.uniform(-1, 1, count), np.sin(40.0 * rng.uniform(-1, 1, count)), [-1.0, 1.0]]
    )


@pytest.mark.parametrize("m", [16, 257, 2049, 4097, 17477])
def test_eval_against_oracle(m):
    # the same rule as for the other kernels, against Clenshaw at the same
    # points; degree 16 is below the crossover and is Clenshaw itself
    c = _random_series(m, seed=m)
    x = _eval_points(seed=m + 1)
    exact = _exact_values(c, x)
    scale = float(np.sum(np.abs(c)))

    def error(v):
        return float(max(abs(a - e) for a, e in zip(v, exact))) / scale

    err, clenshaw_err = error(ChebFun(c).eval(x)), error(_clenshaw(c, x))
    ulp = float(np.spacing(float(max(abs(e) for e in exact)))) / scale
    assert err <= 1e-13, err
    assert err <= max(clenshaw_err, 2.0 * ulp), (err, clenshaw_err, ulp)


class TestInterpolatedEval:
    """Edge cases of real evaluation above the Clenshaw crossover."""

    m = 300

    def series(self):
        u = ChebFun(_random_series(self.m, seed=5))
        assert len(u.coeffs) >= _EVAL_CROSSOVER
        return u

    def test_ends_return_grid_values(self):
        u = self.series()
        v = _grid_values(u.coeffs, _fft_size(_OVERSAMPLE * (self.m + 1)))
        assert u.eval(1.0) == v[0]
        assert u.eval(-1.0) == pytest.approx(v[-1], abs=1e-15)

    def test_every_grid_node(self):
        # nodes as floats: theta may land on a node exactly (a 0/0 in the
        # barycentric sums, returned as that node's value) or within rounding
        u = self.series()
        x = _pts_desc(_fft_size(_OVERSAMPLE * (self.m + 1)))
        exact = _exact_values(u.coeffs, x)
        err = max(abs(a - e) for a, e in zip(u.eval(x), exact))
        assert float(err) <= 1e-14 * np.sum(np.abs(u.coeffs))

    def test_slack_outside_the_interval_clamps(self):
        u = self.series()
        eps = 0.5 * _EVAL_SLACK
        assert u.eval(1.0 + eps) == u.eval(1.0)
        assert u.eval(-1.0 - eps) == u.eval(-1.0)
        with pytest.raises(EvalDomainError):
            u.eval(1.0 + 2.0 * _EVAL_SLACK)
        with pytest.raises(EvalDomainError):
            u.eval(np.array([0.0, math.nan]))

    def test_shapes(self):
        u = self.series()
        x = np.linspace(-1, 1, 12).reshape(3, 4)
        assert isinstance(u.eval(0.25), float)
        assert isinstance(u.eval(np.array(0.25)), float)
        assert u.eval(x).shape == (3, 4)
        assert np.array_equal(u.eval(x), u.eval(x.ravel()).reshape(3, 4))
        empty = u.eval(np.array([]))
        assert empty.shape == (0,) and empty.dtype == float

    def test_evaluator_takes_the_grid_step_once(self, monkeypatch):
        u = self.series()
        xs = [np.linspace(-1, 1, 7), _pts_desc(64), np.array(0.3)]
        want = [u.eval(x) for x in xs]
        calls = []
        grid = chebfun._interp_grid
        monkeypatch.setattr(chebfun, "_interp_grid", lambda c: calls.append(1) or grid(c))
        ev = _evaluator(u.coeffs)
        assert calls == []
        got = [ev(x) for x in xs]
        assert len(calls) == 1
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and type(g) is type(w)
        with pytest.raises(EvalDomainError):
            ev(1.0 + 2.0 * _EVAL_SLACK)
