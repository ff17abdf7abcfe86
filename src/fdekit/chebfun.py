"""Adaptive Chebyshev-series representation of smooth functions on [-1, 1].

A ChebFun stores first-kind coefficients c_0..c_m of a function resolved to a
relative truncation tolerance.  Construction samples the function at
second-kind Chebyshev points with the degree doubling until the tail of the
coefficient vector falls below tolerance, then trims.  Calculus is done on
coefficients, and the sup norm and integral of |u| refine FFT grid values by
Newton steps in arccos(x), so all of these are spectrally accurate.

Real evaluation of a series with m + 1 coefficients at N points has two
kernels.  Below _EVAL_CROSSOVER coefficients it is the Clenshaw recurrence,
O(mN) in a Python loop over the coefficients.  From there on it reads values
on a Chebyshev grid of about _OVERSAMPLE*(m+1) points through one FFT and
interpolates them locally in theta = arccos(x), O(m log m + pN) with
p = _STENCIL nodes per point: the "oversample, then interpolate" form of the
nonuniform FFT (Dutt & Rokhlin 1993; Greengard & Lee 2004).

Complex evaluation, always Clenshaw, is the analytic continuation of the
interpolant; it is only meaningful inside the region where the underlying
series still converges to the sampled function.  A decay-based ellipse
parameter estimate is kept on each instance and drives the ``trusted`` flag.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ChebFun",
    "build",
    "ellipse_radius",
    "ChebError",
    "ResolutionError",
    "EvalDomainError",
]

DEFAULT_TOL = 1e-13
TOL_RANGE = (1e-15, 1e-3)  # relative tolerances build accepts
MAX_DEGREE = 32768

_EVAL_SLACK = 1e-14  # clamp width for real evaluation just outside [-1, 1]
_CHUNK = 1 << 16  # matrix entries per dense product in _theta_eval
# Real evaluation of series with at least _EVAL_CROSSOVER coefficients goes
# through _interp (crossover measured against Clenshaw, see CHANGES.md)
_EVAL_CROSSOVER = 128
_OVERSAMPLE = 4  # _interp grid cells per coefficient
_STENCIL = 16  # _interp nodes per point
# barycentric weights of _STENCIL equispaced nodes
_BARY = np.array([(-1.0) ** i * math.comb(_STENCIL - 1, i) for i in range(_STENCIL)])
_PI_LONG = np.arccos(np.longdouble(-1.0))


class ChebError(Exception):
    pass


class ResolutionError(ChebError):
    """The sampled function could not be resolved at the degree cap."""


class EvalDomainError(ChebError):
    """Real evaluation point outside the clamped domain."""


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


def _fft_size(n):
    """The smallest 2^a 3^b 5^c >= n: grid sizes whose FFT has no slow factor."""
    best, f5 = 1 << max(n - 1, 0).bit_length(), 1
    while f5 < best:
        f = f5
        while f < best:  # f = 3^b 5^c times the least power of 2 reaching n
            best = min(best, f << (-(-n // f) - 1).bit_length())
            f *= 3
        f5 *= 5
    return best


def _grid_values(c, n):
    """Values of sum c_k T_k at _pts_desc(n): the inverse of _vals_to_coeffs,
    a zero-padded DCT-I through one real FFT.  Above degree n the series is
    first folded by aliasing, as T_k equals T_k' on that grid for
    k' = min(k mod 2n, 2n - k mod 2n)."""
    if len(c) > n + 1:
        k = np.arange(len(c)) % (2 * n)
        c = np.bincount(np.minimum(k, 2 * n - k), weights=c, minlength=n + 1)
    b = np.zeros(n + 1)
    b[: len(c)] = c
    b[1:n] *= 0.5
    return np.fft.rfft(np.concatenate([b, b[-2:0:-1]])).real


def _interp(c, x):
    """sum c_k T_k at x in [-1, 1] (any shape): barycentric Lagrange
    interpolation in theta = arccos(x) over the _STENCIL nearest nodes of the
    FFT grid of _fft_size(_OVERSAMPLE*len(c)) cells, reflected evenly at
    theta = 0 and pi, with a node's value returned where x hits it.  theta is
    taken in long double (64-bit significand on x86): an error of one double
    ulp in theta moves the value by theta*eps*|d/dtheta u(cos theta)|, which
    at high degree exceeds the error of Clenshaw's recurrence."""
    n = _fft_size(_OVERSAMPLE * len(c))
    half = _STENCIL // 2
    v = _grid_values(c, n)
    ext = np.concatenate([v[half:0:-1], v, v[-2 : -half - 2 : -1]])  # node j at j + half
    t = np.arccos(x.ravel().astype(np.longdouble))
    t *= n / _PI_LONG  # theta in grid cells
    base = np.floor(t.astype(float))  # nearest node at or below, 0..n
    t -= base
    r = t.astype(float)  # offset from that node, within rounding of [0, 1)
    vals = np.lib.stride_tricks.sliding_window_view(ext, _STENCIL)[base.astype(np.intp) + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _BARY / (r[:, None] - np.arange(1 - half, half + 1))
        out = np.einsum("ij,ij->i", q, vals) / np.einsum("ij->i", q)
    hit = np.isnan(out)  # a zero offset makes its row inf/inf
    out[hit] = vals[hit][np.isinf(q[hit])]
    return out.reshape(x.shape)


def _theta_eval(c, theta):
    """Rows g, g', g'' of g(theta) = sum c_k cos(k theta), as dense products in
    chunks of about _CHUNK entries.  k*theta is exact: theta = head + tail with
    head on a 2^-35 lattice (k*head is exact for k < 2^16), and with t = k*tail,
    cos(t) = 1 - t^2/2 and sin(t) = t to double precision as |t| < 2e-6."""
    # highest degree first, so the small terms add up before the large ones
    k = np.arange(len(c) - 1, -1, -1, dtype=float)
    c, kc = c[::-1], -k * c[::-1]
    out = np.empty((3, len(theta)))
    tail = np.fmod(theta, 2.0**-35)
    head = theta - tail
    rows = max(1, _CHUNK // len(c))
    for s in range(0, len(theta), rows):
        part = slice(s, s + rows)
        a = np.multiply.outer(head[part], k)
        t = np.multiply.outer(tail[part], k)
        ca, sa, ct = np.cos(a), np.sin(a), 1.0 - 0.5 * t * t
        cos = ca * ct - sa * t
        out[:, part] = [cos @ c, (sa * ct + ca * t) @ kc, cos @ (k * kc)]
    return out


def _newton(c, th, lo, hi, below, order):
    """Zeros of f, the order-th theta-derivative of g = sum c_k cos(k theta),
    one per bracket [lo, hi] where f has the sign `below` left of its zero,
    and the largest |g| evaluated.  Newton steps are clipped into the bracket,
    which narrows around the zero; a step that is not finite bisects.  A point
    stops at a step <= 1e-15 or at |f| <= 4 eps sum k^order |c_k|.
    """
    if len(th) == 0:
        return th, 0.0
    noise = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(c) * np.arange(len(c)) ** order))
    best = 0.0
    for _ in range(12):
        rows = _theta_eval(c, th)
        best = max(best, float(np.max(np.abs(rows[0]), initial=0.0)))
        f = rows[order]
        left = np.sign(f) == below
        lo, hi = np.where(left, th, lo), np.where(left, hi, th)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / rows[order + 1]
        new = np.where(np.isfinite(step), np.clip(th - step, lo, hi), 0.5 * (lo + hi))
        new = np.where(np.abs(f) <= noise, th, new)
        if np.all(np.abs(new - th) <= 1e-15):
            return new, best
        th = new
    return th, best


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
        """Values at real points; |x| <= 1 + 1e-14 (clamped).

        Clenshaw below _EVAL_CROSSOVER coefficients, O(mN) for degree m at N
        points; above it FFT grid values interpolated in arccos(x),
        O(m log m + _STENCIL*N) (see the module docstring).
        """
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        bad = ~(np.abs(arr) <= 1.0 + _EVAL_SLACK)  # catches NaN too
        if np.any(bad):
            worst = float(arr[bad][0])
            raise EvalDomainError(f"evaluation point {worst!r} outside [-1, 1]")
        c, arr = self.coeffs, np.clip(arr, -1.0, 1.0)
        out = _clenshaw(c, arr) if len(c) < _EVAL_CROSSOVER else _interp(c, arr)
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

    def differentiate(self):
        """Derivative as a ChebFun (degree drops by one)."""
        c = self.coeffs
        n = len(c) - 1
        if n == 0:
            return ChebFun(np.zeros(1), self.build_tol, self.ellipse_hint)
        # w[j] = sum of 2k c_k, k > j, k - j odd, added from the top down
        d = 2.0 * np.arange(n, 0, -1) * c[:0:-1]
        w = np.empty(n)
        w[0::2], w[1::2] = np.cumsum(d[0::2]), np.cumsum(d[1::2])
        w = w[::-1].copy()
        w[0] *= 0.5
        return ChebFun(w, self.build_tol, self.ellipse_hint)

    # -- norms ----------------------------------------------------------------

    def sup_norm(self):
        """Maximum of |u| over [-1, 1].

        FFT values on a Chebyshev grid of size >= 8*(degree+1); each local
        maximum within 0.1% of the best (at most 32) starts Newton steps for
        d/dtheta u(cos theta) = 0 inside its two neighbouring cells.  The
        largest |u| evaluated is a lower bound of the sup, ~1e-14 relative.
        """
        c = self.coeffs
        if len(c) == 1:
            return abs(float(c[0]))
        ng = _fft_size(max(8 * len(c), 64))
        v = _grid_values(c, ng)
        va = np.abs(v)
        best = float(va.max())
        nb = np.concatenate([[-np.inf], va, [-np.inf]])  # neighbours of each node
        idx = np.nonzero((va >= nb[:-2]) & (va >= nb[2:]) & (va >= 0.999 * best))[0]
        if len(idx) > 32:
            idx = idx[np.argsort(va[idx])[-32:]]
        # end nodes start half a cell inside, as theta = 0, pi are stationary
        # points of every cosine sum; left of a maximum of |u|, u_theta has u's sign
        h = math.pi / ng
        th = np.clip(idx * h, 0.5 * h, math.pi - 0.5 * h)
        lo, hi = np.maximum(idx - 1, 0) * h, np.minimum(idx + 1, ng) * h
        return max(best, _newton(c, th, lo, hi, np.sign(v[idx]), 1)[1])

    def l1_norm(self):
        """Integral of |u| over [-1, 1].

        Sign changes of FFT values on a Chebyshev grid of size >= 16*(degree+1)
        are refined by bracketed Newton steps in theta = arccos(x), then |u| is
        integrated piecewise via signed antiderivative differences.
        """
        return self.abs_integral(-1.0, 1.0)

    def abs_integral(self, lo, hi):
        """Integral of |u| over [lo, hi] within [-1, 1], on the cells of the
        l1_norm grid that cover [lo, hi]; roots outside it clip to its ends."""
        if hi < lo:
            lo, hi = hi, lo
        c = self.coeffs
        ng = _fft_size(max(16 * len(c), 64))
        grid = np.pi * np.arange(ng + 1) / ng  # theta of _pts_desc(ng)
        ends = np.arccos(np.clip([hi, lo], -1.0, 1.0))
        first = np.searchsorted(grid, ends[0], "right") - 1  # last node <= theta(hi)
        last = np.searchsorted(grid, ends[1])  # first node >= theta(lo)
        th, v = grid[first : last + 1], _grid_values(c, ng)[first : last + 1]
        sv = np.sign(v)
        br = np.nonzero(sv[:-1] * sv[1:] < 0.0)[0]
        a, b = th[br], th[br + 1]
        roots = _newton(c, a - v[br] * (b - a) / (v[br + 1] - v[br]), a, b, sv[br], 0)[0]
        bps = np.unique(np.clip(np.concatenate([ends, th[v == 0.0], roots]), *ends))
        # U at the breakpoints; d/dtheta U(cos theta) = -sin(theta) u signs midpoints
        pts = np.concatenate([bps, 0.5 * (bps[:-1] + bps[1:])])
        uv, du = _theta_eval(self.antiderivative().coeffs, pts)[:2]
        piece = uv[: len(bps) - 1] - uv[1 : len(bps)]  # theta ascends, x descends
        return max(math.fsum(np.where(du[len(bps):] <= 0.0, piece, -piece)), 0.0)

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
