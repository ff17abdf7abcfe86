"""Adaptive Chebyshev-series representation of smooth functions on [-1, 1].

A ChebFun stores first-kind coefficients c_0..c_m of a function resolved to a
relative truncation tolerance.  Construction samples the function at
second-kind Chebyshev points with the degree doubling until the tail of the
coefficient vector falls below tolerance, then trims.  Evaluation is Clenshaw
recurrence (real or complex); calculus is done on coefficients, so
antiderivatives, derivatives and the two norms used by the hypothesis checks
(sup norm and integral of the absolute value) are spectrally accurate.

Complex evaluation is the analytic continuation of the interpolant; it is
only meaningful inside the region where the underlying series still converges
to the sampled function.  A decay-based ellipse parameter estimate is kept on
each instance and drives the ``trusted`` flag.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ChebFun",
    "build",
    "chebpts",
    "ellipse_radius",
    "ChebError",
    "ResolutionError",
    "EvalDomainError",
]

DEFAULT_TOL = 1e-13
TOL_RANGE = (1e-15, 1e-3)  # relative tolerances build accepts
MAX_DEGREE = 32768

_EVAL_SLACK = 1e-14  # clamp width for real evaluation just outside [-1, 1]


class ChebError(Exception):
    pass


class ResolutionError(ChebError):
    """The sampled function could not be resolved at the degree cap."""


class EvalDomainError(ChebError):
    """Real evaluation point outside the clamped domain."""


def chebpts(n):
    """n+1 second-kind Chebyshev points cos(j*pi/n), ascending.  chebpts(0) = [1]."""
    if n == 0:
        return np.array([1.0])
    return np.cos(np.pi * np.arange(n, -1, -1) / n)


def _pts_desc(n):
    # descending order matches the FFT layout in _vals_to_coeffs
    if n == 0:
        return np.array([1.0])
    return np.cos(np.pi * np.arange(n + 1) / n)


def _vals_to_coeffs(v):
    """Coefficients c_k of sum c_k T_k interpolating values at _pts_desc(n)."""
    n = len(v) - 1
    if n == 0:
        return np.array([float(v[0])])
    w = np.concatenate([v, v[-2:0:-1]])
    c = np.fft.rfft(w).real / n
    c[0] *= 0.5
    c[n] *= 0.5
    return c


def _clenshaw(c, x):
    """Evaluate sum c_k T_k(x); x is an ndarray (real or complex)."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    twox = 2.0 * x
    for ck in c[:0:-1]:
        b1, b2 = twox * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def _clenshaw_scalar(c, x):
    b1 = 0.0
    b2 = 0.0
    twox = 2.0 * x
    for ck in c[:0:-1]:
        b1, b2 = twox * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def ellipse_radius(z):
    """Bernstein-ellipse parameter of a point: |z + sqrt(z^2-1)| with the
    branch of modulus >= 1.  Equals 1 exactly on [-1, 1]."""
    arr = np.asarray(z, dtype=complex)
    w = arr + np.sqrt(arr * arr - 1.0)
    aw = np.abs(w)
    with np.errstate(divide="ignore"):
        r = np.maximum(aw, 1.0 / np.where(aw == 0, 1.0, aw))
    return float(r) if arr.ndim == 0 else r


def _estimate_rho(c):
    """Ellipse parameter from coefficient decay: (|c_{m/2}|/|c_m|)^(2/m)."""
    m = len(c) - 1
    if m < 8:
        return math.inf
    tail = abs(c[m])
    mid = max(abs(c[m // 2]), abs(c[m // 2 + 1]))
    if tail == 0.0 or mid == 0.0:
        return math.inf
    return max(1.0, (mid / tail) ** (2.0 / m))


def _sample(f, x):
    try:
        v = np.asarray(f(x), dtype=float)
        if v.shape == x.shape:
            return v
    except (TypeError, ValueError):
        pass
    return np.array([float(f(xi)) for xi in x])


class ChebFun:
    """Immutable truncated Chebyshev series on [-1, 1]."""

    __slots__ = ("coeffs", "build_tol", "ellipse_hint", "grid_size")

    def __init__(self, coeffs, build_tol=DEFAULT_TOL, ellipse_hint=None):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficients")
        c.setflags(write=False)
        self.coeffs = c
        self.build_tol = float(build_tol)
        self.ellipse_hint = (
            _estimate_rho(c) if ellipse_hint is None else float(ellipse_hint)
        )
        self.grid_size = None

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"ChebFun(degree={self.degree}, tol={self.build_tol:g})"

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """Clenshaw evaluation at real points; |x| <= 1 + 1e-14 (clamped)."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        bad = ~(np.abs(arr) <= 1.0 + _EVAL_SLACK)  # catches NaN too
        if np.any(bad):
            worst = float(arr[bad][0])
            raise EvalDomainError(f"evaluation point {worst!r} outside [-1, 1]")
        out = _clenshaw(self.coeffs, np.clip(arr, -1.0, 1.0))
        return float(out[0]) if scalar else out

    def eval_complex(self, z):
        """Clenshaw evaluation at complex points.

        Returns (value, trusted); trusted is False where z lies outside the
        estimated ellipse of series validity.
        """
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        val = _clenshaw(self.coeffs, arr)
        if math.isinf(self.ellipse_hint):
            trusted = np.ones(arr.shape, dtype=bool)
        else:
            trusted = ellipse_radius(arr) <= self.ellipse_hint * (1.0 + 1e-12)
        if scalar:
            return complex(val[0]), bool(trusted[0])
        return val, trusted

    # -- calculus ------------------------------------------------------------

    def antiderivative(self):
        """Indefinite integral as a ChebFun (integration constant = 0 on T_0)."""
        c = self.coeffs
        m = len(c) - 1
        cpad = np.concatenate([c, [0.0, 0.0]])
        out = np.zeros(m + 2)
        out[1] = cpad[0] - cpad[2] / 2.0
        if m >= 1:
            k = np.arange(2, m + 2)
            out[2:] = (cpad[1 : m + 1] - cpad[3 : m + 3]) / (2.0 * k)
        return ChebFun(out, self.build_tol, self.ellipse_hint)

    def integral_from(self, d, x):
        """Integral of the function from d to x, both in [-1, 1]."""
        u = self.antiderivative()
        return float(u.eval(x) - u.eval(d))

    def differentiate(self):
        """Derivative as a ChebFun (degree drops by one)."""
        c = self.coeffs
        n = len(c) - 1
        if n == 0:
            return ChebFun(np.zeros(1), self.build_tol, self.ellipse_hint)
        w = np.zeros(n + 2)
        for k in range(n, 0, -1):
            w[k - 1] = w[k + 1] + 2.0 * k * c[k]
        w[0] *= 0.5
        return ChebFun(w[:n], self.build_tol, self.ellipse_hint)

    # -- norms ----------------------------------------------------------------

    def sup_norm(self):
        """Maximum of |u| over [-1, 1].

        Dense Chebyshev grid of size >= 8*(degree+1), then golden-section
        refinement around every grid-local maximum within 0.1% of the best.
        The result is a lower bound of the true sup, tight to ~1e-12 relative
        for functions resolved at build tolerance.
        """
        c = self.coeffs
        m = self.degree
        if m == 0:
            return abs(float(c[0]))
        ng = max(8 * (m + 1), 64)
        pts = chebpts(ng)
        va = np.abs(_clenshaw(c, pts))
        best = float(va.max())
        if best == 0.0:
            return 0.0
        keep = 0.999 * best
        flags = np.zeros(ng + 1, dtype=bool)
        flags[1:-1] = (va[1:-1] >= va[:-2]) & (va[1:-1] >= va[2:]) & (va[1:-1] >= keep)
        flags[0] = va[0] >= va[1] and va[0] >= keep
        flags[-1] = va[-1] >= va[-2] and va[-1] >= keep
        idx = np.nonzero(flags)[0]
        if len(idx) > 32:
            idx = idx[np.argsort(va[idx])[-32:]]
        for i in idx:
            a = pts[max(i - 1, 0)]
            b = pts[min(i + 1, ng)]
            best = max(best, _golden_max_abs(c, a, b))
        return best

    def l1_norm(self):
        """Integral of |u| over [-1, 1].

        Sign changes are located on a dense grid and bisected to 1e-14, then
        |u| is integrated piecewise via antiderivative differences with the
        local sign, which keeps spectral accuracy.
        """
        return self.abs_integral(-1.0, 1.0)

    def abs_integral(self, lo, hi):
        """Integral of |u| over [lo, hi] within [-1, 1]."""
        if hi < lo:
            lo, hi = hi, lo
        c = self.coeffs
        m = self.degree
        ng = max(16 * (m + 1), 64)
        pts = lo + (chebpts(ng) + 1.0) * (hi - lo) / 2.0
        v = _clenshaw(c, pts)
        if np.max(np.abs(v)) == 0.0:
            return 0.0
        roots = []
        changes = 0
        for i in range(ng):
            if v[i] == 0.0:
                roots.append(float(pts[i]))  # grid-exact zero: breakpoint only
            elif v[i] * v[i + 1] < 0.0:
                changes += 1
                roots.append(_bisect_root(c, float(pts[i]), float(pts[i + 1]), v[i]))
        if v[-1] == 0.0:
            roots.append(float(pts[-1]))
        if changes > 10 * (m + 1):
            raise ChebError(
                f"{changes} sign changes exceed 10*(degree+1)={10 * (m + 1)}; "
                "oscillation unresolved"
            )
        bps = np.unique(np.concatenate([[lo], roots, [hi]]))
        antider = self.antiderivative()
        uv = _clenshaw(antider.coeffs, bps)
        total = 0.0
        for i in range(len(bps) - 1):
            mid = 0.5 * (bps[i] + bps[i + 1])
            s = _clenshaw_scalar(c, mid)
            piece = uv[i + 1] - uv[i]
            total += piece if s >= 0.0 else -piece
        return max(float(total), 0.0)

    # -- arithmetic -----------------------------------------------------------

    def _binary(self, other, sign):
        if not isinstance(other, ChebFun):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n)
        c[: len(self.coeffs)] = self.coeffs
        c[: len(other.coeffs)] += sign * other.coeffs
        return ChebFun(
            c,
            min(self.build_tol, other.build_tol),
            min(self.ellipse_hint, other.ellipse_hint),
        )

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return ChebFun(-self.coeffs, self.build_tol, self.ellipse_hint)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return ChebFun(self.coeffs * float(scalar), self.build_tol, self.ellipse_hint)

    __rmul__ = __mul__


def _golden_max_abs(c, a, b):
    """Golden-section maximisation of |u| on [a, b]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    fa = abs(_clenshaw_scalar(c, a))
    fb = abs(_clenshaw_scalar(c, b))
    x1 = b - g * (b - a)
    x2 = a + g * (b - a)
    f1 = abs(_clenshaw_scalar(c, x1))
    f2 = abs(_clenshaw_scalar(c, x2))
    best = max(fa, fb, f1, f2)
    while b - a > 1e-13:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = abs(_clenshaw_scalar(c, x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = abs(_clenshaw_scalar(c, x1))
        best = max(best, f1, f2)
    return best


def _bisect_root(c, a, b, fa):
    """Bisect a bracketed sign change of the series to width 1e-14."""
    while b - a > 1e-14:
        mid = 0.5 * (a + b)
        fm = _clenshaw_scalar(c, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _trim(c, thresh):
    keep = np.nonzero(np.abs(c) >= thresh)[0]
    if len(keep) == 0:
        return np.zeros(1)
    return c[: keep[-1] + 1].copy()


def build(f, tol=DEFAULT_TOL, max_degree=MAX_DEGREE):
    """Adaptively construct a ChebFun from a real function on [-1, 1].

    Samples at Chebyshev grids of degree 16, 32, ... up to max_degree;
    converged when the last two raw coefficients fall below tol relative to
    the largest, after which the trailing coefficients below tolerance are
    trimmed.  Raises ResolutionError if the degree cap is reached (the
    typical symptom of a non-smooth input).
    """
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValueError(f"tol {tol!r} outside [1e-15, 1e-3]")
    n = 16
    while True:
        x = _pts_desc(n)
        v = _sample(f, x)
        if not np.all(np.isfinite(v)):
            raise ResolutionError("sampled a non-finite value")
        c = _vals_to_coeffs(v)
        maxc = float(np.max(np.abs(c)))
        if maxc == 0.0:
            u = ChebFun(np.zeros(1), tol)
            u.grid_size = n + 1
            return u
        tail = max(abs(float(c[-1])), abs(float(c[-2])))
        if tail <= tol * maxc:
            u = ChebFun(_trim(c, tol * maxc), tol)
            u.grid_size = n + 1
            return u
        if n >= max_degree:
            raise ResolutionError(
                f"not resolved at degree {max_degree} "
                f"(relative tail {tail / maxc:.3e})"
            )
        n *= 2
