"""Adaptive Chebyshev-series representation of smooth functions on [-1, 1].

A ChebFun stores first-kind coefficients c_0..c_m of a function resolved to a
relative truncation tolerance.  Construction samples the function at
second-kind Chebyshev points with the degree doubling until the tail of the
coefficient vector falls below tolerance, then trims.  Calculus is done on
coefficients, and the sup norm and integral of |u| refine FFT grid values by
Newton steps in arccos(x) (the integral then adds |U(b) - U(a)| over the
pieces between sign changes), so all of these are spectrally accurate.  The
sup norm kernel _sup_norms takes a stack of series in one FFT and one Newton
run that skips each row once it stops; ChebFun.sup_norm is its one-row case.

Real evaluation of a series with m + 1 coefficients at N points has two
kernels.  Below _EVAL_CROSSOVER coefficients it is the Clenshaw recurrence,
O(mN) in a Python loop over the coefficients.  From there on it interpolates
in two steps, the "oversample, then interpolate" form of the nonuniform FFT
(Dutt & Rokhlin 1993; Greengard & Lee 2004).  The grid step (_interp_grid)
reads values on a Chebyshev grid of about _OVERSAMPLE*(m+1) points through
one FFT, O(m log m); the point step (_interp_points) interpolates them
locally in theta = arccos(x), O(pN) with p = _STENCIL nodes per point.  A
caller that evaluates one series at several point sets takes the grid step
once through _evaluator.

Complex evaluation, always Clenshaw, is the analytic continuation of the
interpolant; it is only meaningful inside the region where the underlying
series still converges to the sampled function.  A decay-based estimate of
that region's Bernstein-ellipse parameter is kept on each instance as
``ellipse_hint``; callers that continue a series off the interval keep their
points inside it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ChebFun",
    "build",
    "ellipse_radius",
    "ChebError",
    "CoefficientError",
    "ResolutionError",
    "EvalDomainError",
]

DEFAULT_TOL = 1e-13
TOL_RANGE = (1e-15, 1e-3)  # relative tolerances build accepts
MAX_DEGREE = 32768

_EVAL_SLACK = 1e-14  # clamp width for real evaluation just outside [-1, 1]
_CHUNK = 1 << 14  # matrix entries per dense product in _theta_eval (fits in L2, see CHANGES.md)
# Real evaluation of series with at least _EVAL_CROSSOVER coefficients
# interpolates FFT grid values (crossover measured against Clenshaw, see CHANGES.md)
_EVAL_CROSSOVER = 128
_OVERSAMPLE = 4  # interpolation grid cells per coefficient
_STENCIL = 16  # interpolation nodes per point
# barycentric weights of _STENCIL equispaced nodes
_BARY = np.array([(-1.0) ** i * math.comb(_STENCIL - 1, i) for i in range(_STENCIL)])
_PI_LONG = np.arccos(np.longdouble(-1.0))


class ChebError(Exception):
    pass


class CoefficientError(ChebError, ValueError):
    """ChebFun coefficients that are empty, not 1-d or not finite."""


class ResolutionError(ChebError):
    """The sampled function could not be resolved at the degree cap."""


class EvalDomainError(ChebError):
    """Real evaluation point outside the clamped domain."""


def _pts_desc(n):
    # n >= 1; descending order matches the FFT layout in _vals_to_coeffs
    return np.cos(np.pi * np.arange(n + 1) / n)


def _vals_to_coeffs(v):
    """Coefficients c_k of sum c_k T_k interpolating values at _pts_desc(n)."""
    n = len(v) - 1
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
    """Values of sum c_k T_k at _pts_desc(n), per row of c: the inverse of
    _vals_to_coeffs, a zero-padded DCT-I through one real FFT.  Above degree
    n a 1-d series is first folded by aliasing, as T_k equals T_k' on that
    grid for k' = min(k mod 2n, 2n - k mod 2n)."""
    if c.shape[-1] > n + 1:
        k = np.arange(len(c)) % (2 * n)
        c = np.bincount(np.minimum(k, 2 * n - k), weights=c, minlength=n + 1)
    b = np.zeros(c.shape[:-1] + (n + 1,))
    b[..., : c.shape[-1]] = c
    b[..., 1:n] *= 0.5
    return np.fft.rfft(np.concatenate([b, b[..., -2:0:-1]], axis=-1)).real


def _interp_grid(c):
    """Grid step of the interpolation: values of sum c_k T_k on the FFT grid of
    _fft_size(_OVERSAMPLE*len(c)) cells, reflected evenly at theta = 0 and pi
    by _STENCIL // 2 nodes (node j at index j + _STENCIL // 2)."""
    n = _fft_size(_OVERSAMPLE * len(c))
    half = _STENCIL // 2
    v = _grid_values(c, n)
    return np.concatenate([v[half:0:-1], v, v[-2 : -half - 2 : -1]])


def _interp_points(ext, x):
    """Point step: the series at x in [-1, 1] (any shape) from its extended
    grid `ext` (_interp_grid), by barycentric Lagrange interpolation in
    theta = arccos(x) over the _STENCIL nearest nodes, with a node's value
    returned where x hits it.  theta is taken in long double (64-bit
    significand on x86): an error of one double ulp in theta moves the value
    by theta*eps*|d/dtheta u(cos theta)|, which at high degree exceeds the
    error of Clenshaw's recurrence."""
    half = _STENCIL // 2
    n = len(ext) - 2 * half - 1
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


def _evaluator(c):
    """x -> sum c_k T_k(x) at real points, the kernel of ChebFun.eval, for a
    series evaluated at several point sets: from _EVAL_CROSSOVER coefficients
    on, its grid step runs on the first call only."""
    ext = None

    def ev(x):
        nonlocal ext
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        bad = ~(np.abs(arr) <= 1.0 + _EVAL_SLACK)  # catches NaN too
        if np.any(bad):
            worst = float(arr[bad][0])
            raise EvalDomainError(f"evaluation point {worst!r} outside [-1, 1]")
        arr = np.clip(arr, -1.0, 1.0)
        if len(c) < _EVAL_CROSSOVER:
            out = _clenshaw(c, arr)
        else:
            if ext is None:
                ext = _interp_grid(c)
            out = _interp_points(ext, arr)
        return float(out[0]) if scalar else out

    return ev


def _theta_eval(c, theta, starts=(0,), moving=None):
    """Rows g, g', g'' of g(theta) = sum c_k cos(k theta), with row r of c at
    theta[starts[r]:starts[r + 1]], as dense products in chunks of about
    _CHUNK entries, one cosine table per chunk; a row that is False in the
    boolean array `moving` is skipped and reads 0.  k*theta is exact: theta =
    head + tail with head on a 2^-35 lattice (k*head is exact for k < 2^16),
    and with t = k*tail, cos(t) = 1 - t^2/2 and sin(t) = t to double
    precision as |t| < 2e-6."""
    # highest degree first, so the small terms add up before the large ones
    k = np.arange(c.shape[1] - 1, -1, -1, dtype=float)
    c, kc = c[:, ::-1], -k * c[:, ::-1]
    out = np.zeros((3, len(theta)))
    tail = np.fmod(theta, 2.0**-35)
    head = theta - tail
    size, bounds, built = max(1, _CHUNK // len(k)), [*starts, len(theta)], -1
    # rows come in order, and chunks start at multiples of size: a chunk's
    # table is built once, for the first row with points in it
    for r in range(len(c)) if moving is None else np.flatnonzero(moving):
        first, end = bounds[r], bounds[r + 1]
        for s in range(first - first % size, end, size):
            if s != built:
                a = np.multiply.outer(head[s : s + size], k)
                t = np.multiply.outer(tail[s : s + size], k)
                ca, sa, ct = np.cos(a), np.sin(a), 1.0 - 0.5 * t * t
                cos, sin, built = ca * ct - sa * t, sa * ct + ca * t, s
            i, j = max(s, first), min(s + size, end)  # row r's piece of this chunk
            p = slice(i - s, j - s)
            out[:, i:j] = [cos[p] @ c[r], sin[p] @ kc[r], cos[p] @ (k * kc[r])]
    return out


def _newton(c, th, lo, hi, below, order, starts=(0,)):
    """Zeros of f, the order-th theta-derivative of g = sum c_k cos(k theta),
    one per bracket [lo, hi] where f has the sign `below` left of its zero,
    and per row of c the largest |g| evaluated; rows take points as in
    _theta_eval, one at least.  Newton steps are clipped into the bracket,
    which narrows around the zero; a step that is not finite bisects.  A
    point stays at |f| <= 4 eps sum k^order |c_k|, and a row stops once none
    of its points moves by more than 1e-15: from then on _theta_eval skips
    it, its 0 moves no point and no peak, and the row ends where it would
    alone."""
    th = np.array(th, dtype=float)
    if len(th) == 0:
        return th, np.zeros(len(c))
    noise = 4.0 * np.finfo(float).eps * (np.abs(c) * np.arange(c.shape[1]) ** order).sum(1)
    noise = np.repeat(noise, np.subtract([*starts[1:], len(th)], starts))
    moving, peak = None, np.zeros(len(th))  # None: every row
    for _ in range(12):
        rows = _theta_eval(c, th, starts, moving)
        peak = np.maximum(peak, np.abs(rows[0]))
        f = rows[order]
        left = np.sign(f) == below
        lo, hi = np.where(left, th, lo), np.where(left, hi, th)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / rows[order + 1]
        new = np.where(np.isfinite(step), np.clip(th - step, lo, hi), 0.5 * (lo + hi))
        new = np.where(np.abs(f) <= noise, th, new)
        still = np.abs(new - th) > 1e-15  # new is finite, within its bracket
        th = new
        if not still.any():
            break
        if len(starts) > 1:
            moving = np.logical_or.reduceat(still, starts)
    return th, np.maximum.reduceat(peak, starts)


def _sup_norms(c):
    """Maximum of |u_r| over [-1, 1] for each row u_r = sum_k c[r, k] T_k.

    FFT values of every row on one Chebyshev grid of size >= 8*(columns of
    c); in each row, every local maximum within 0.1% of the row's best (at
    most 32, the largest) starts Newton steps for d/dtheta u_r(cos theta) = 0
    inside its two neighbouring cells; one _newton run takes all rows.
    The largest |u_r| evaluated is a lower bound of the sup, ~1e-14 relative.
    """
    ng = _fft_size(max(8 * c.shape[1], 64))
    v = _grid_values(c, ng)
    va = np.abs(v)
    best = va.max(axis=1)
    peak = va >= 0.999 * best[:, None]  # a row's maximum is always one
    peak[:, 1:] &= va[:, 1:] >= va[:, :-1]
    peak[:, :-1] &= va[:, :-1] >= va[:, 1:]
    row, idx = np.nonzero(peak)
    count = np.bincount(row, minlength=len(c))
    if count.max() > 32:  # keep each row's 32 largest, sorting the candidates only
        order = np.lexsort((va[row, idx], row))  # by row, then by |u|
        keep = order[np.arange(len(order)) >= np.cumsum(count)[row[order]] - 32]
        row, idx, count = row[keep], idx[keep], np.minimum(count, 32)
    # end nodes start half a cell inside, as theta = 0, pi are stationary
    # points of every cosine sum; left of a maximum of |u|, u_theta has u's sign
    h = math.pi / ng
    th = np.clip(idx * h, 0.5 * h, math.pi - 0.5 * h)
    lo, hi = np.maximum(idx - 1, 0) * h, np.minimum(idx + 1, ng) * h
    starts = (np.cumsum(count) - count).tolist()
    return np.maximum(best, _newton(c, th, lo, hi, np.sign(v[row, idx]), 1, starts)[1])


def ellipse_radius(z):
    """Bernstein-ellipse parameter of a point: |z + sqrt(z^2-1)| with the
    branch of modulus >= 1.  The parameter is even in both axes, so it is
    taken at the mirror image q of z in the closed first quadrant, where the
    principal sqrt(q^2-1) lies in that quadrant too: the branch is the right
    one and the sum cancels nowhere (at z = -(1 + r) the direct formula
    loses digits).  Within an ulp of 1 on [-1, 1], never below 1."""
    arr = np.asarray(z, dtype=complex)
    q = np.abs(arr.real) + 1j * np.abs(arr.imag)
    r = np.maximum(np.abs(q + np.sqrt(q * q - 1.0)), 1.0)
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


class ChebFun:
    """Immutable truncated Chebyshev series on [-1, 1]."""

    __slots__ = ("coeffs", "ellipse_hint", "grid_size")

    def __init__(self, coeffs, ellipse_hint=None, grid_size=None):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or len(c) == 0:
            raise CoefficientError("coefficients must be a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise CoefficientError("non-finite coefficients")
        c.setflags(write=False)
        self.coeffs = c
        self.ellipse_hint = (
            _estimate_rho(c) if ellipse_hint is None else float(ellipse_hint)
        )
        self.grid_size = grid_size  # points build sampled last, else None

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"ChebFun(degree={self.degree})"

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """Values at real points; |x| <= 1 + 1e-14 (clamped).

        Clenshaw below _EVAL_CROSSOVER coefficients, O(mN) for degree m at N
        points; above it FFT grid values interpolated in arccos(x),
        O(m log m + _STENCIL*N) (see the module docstring).  Precondition
        above the crossover: a resolved series (every `build` result), else
        the error grows to about 1e-6 of the top coefficients.
        """
        return _evaluator(self.coeffs)(x)

    def eval_complex(self, z):
        """Clenshaw evaluation at complex points; the values continue the
        sampled function only inside the ellipse of parameter ellipse_hint."""
        arr = np.asarray(z, dtype=complex)
        val = _clenshaw(self.coeffs, np.atleast_1d(arr))
        return complex(val[0]) if arr.ndim == 0 else val

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
        return ChebFun(out, self.ellipse_hint)

    def differentiate(self):
        """Derivative as a ChebFun (degree drops by one); CoefficientError on overflow."""
        c = self.coeffs
        n = len(c) - 1
        if n == 0:
            return ChebFun(np.zeros(1), self.ellipse_hint)
        # w[j] = sum of 2k c_k, k > j, k - j odd, added from the top down
        w = np.empty(n)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite w raises below
            d = 2.0 * np.arange(n, 0, -1) * c[:0:-1]
            w[0::2], w[1::2] = np.cumsum(d[0::2]), np.cumsum(d[1::2])
        w = w[::-1].copy()
        w[0] *= 0.5
        return ChebFun(w, self.ellipse_hint)

    # -- norms ----------------------------------------------------------------

    def sup_norm(self):
        """Maximum of |u| over [-1, 1]: the one-row case of _sup_norms, a
        lower bound of the sup, ~1e-14 relative."""
        return float(_sup_norms(self.coeffs[None])[0])

    def l1_norm(self):
        """Integral of |u| over [-1, 1]; the same as abs_integral."""
        return self.abs_integral()

    def abs_integral(self):
        """Integral of |u| over [-1, 1].

        Sign changes of FFT values on a Chebyshev grid of size >= 16*(degree+1)
        are refined by bracketed Newton steps in theta = arccos(x); each piece
        between them adds |U(b) - U(a)|, U the antiderivative.
        """
        c = self.coeffs
        ng = _fft_size(max(16 * len(c), 64))
        th = np.pi * np.arange(ng + 1) / ng  # theta of _pts_desc(ng)
        v = _grid_values(c, ng)
        sv = np.sign(v)
        br = np.nonzero(sv[:-1] * sv[1:] < 0.0)[0]
        a, b = th[br], th[br + 1]
        roots = _newton(c[None], a - v[br] * (b - a) / (v[br + 1] - v[br]), a, b, sv[br], 0)[0]
        bps = np.unique(np.clip(np.concatenate([[0.0, np.pi], th[v == 0.0], roots]), 0.0, np.pi))
        uv = _theta_eval(self.antiderivative().coeffs[None], bps)[0]
        return math.fsum(np.abs(np.diff(uv)))

    # -- arithmetic -----------------------------------------------------------

    def __sub__(self, other):
        if not isinstance(other, ChebFun):
            return NotImplemented
        c = np.zeros(max(len(self.coeffs), len(other.coeffs)))
        c[: len(self.coeffs)] = self.coeffs
        c[: len(other.coeffs)] -= other.coeffs
        return ChebFun(c, min(self.ellipse_hint, other.ellipse_hint))


def _trim(c, thresh):
    return c[: np.nonzero(np.abs(c) >= thresh)[0][-1] + 1]


def build(f, tol=DEFAULT_TOL, max_degree=MAX_DEGREE):
    """Adaptively construct a ChebFun from a real function on [-1, 1].

    Samples at Chebyshev grids of degree 16, 32, ..., the last one of degree
    max_degree itself (16, 32, 64, 65 for a cap of 65), so no grid exceeds
    the cap; converged when the last two raw coefficients fall below tol
    relative to the largest, after which the trailing coefficients below
    tolerance are trimmed.  f must be vectorised: called on the array of
    grid points, it returns an array of the same shape, else ChebError.
    Raises ValueError for a tol outside TOL_RANGE or a max_degree below 16,
    and ResolutionError if the degree cap is reached (the typical symptom of
    a non-smooth input).
    """
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValueError(f"tol {tol!r} outside [1e-15, 1e-3]")
    if max_degree < 16:
        raise ValueError(f"max_degree {max_degree!r} below 16")
    n = 16
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        while True:
            x = _pts_desc(n)
            v = np.asarray(f(x), dtype=float)
            if v.shape != x.shape:
                raise ChebError(f"build needs a vectorised f: shape {v.shape} for {len(x)} points")
            if not np.all(np.isfinite(v)):
                raise ResolutionError("sampled a non-finite value")
            c = _vals_to_coeffs(v)
            maxc = float(np.max(np.abs(c)))
            if not math.isfinite(maxc):
                raise ResolutionError(
                    "Chebyshev coefficients overflow "
                    f"(largest |sample| {float(np.max(np.abs(v))):.3e})"
                )
            tail = max(abs(float(c[-1])), abs(float(c[-2])))
            if tail <= tol * maxc:  # the zero function too
                break
            if n >= max_degree:
                raise ResolutionError(
                    f"not resolved at degree {max_degree} "
                    f"(relative tail {tail / maxc:.3e})"
                )
            n = min(2 * n, max_degree)
    return ChebFun(_trim(c, tol * maxc) if maxc > 0.0 else np.zeros(1), grid_size=n + 1)
