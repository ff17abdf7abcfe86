"""Complex-analytic and regularity diagnostics.

Geometry: the stadium region at level n is the interval [-1, 1] fattened by
an open disk of radius A * n^(-1/k); it shrinks back to the interval as n
grows.  A deviating map that sends every level-(n+1) stadium into the
level-n one (uniformly for small A) is the geometric engine behind the
regularity bootstrap, and is checked here by dense sampling (of the
stadium boundary alone when the map is entire; see check_ek).  Every sample
is one fixed template scaled by the radius, so all levels sampled at one
density have the same number of points, and a template point whose exact
conjugate is also sampled need not be evaluated for a map that commutes
with conjugation.

Growth: the envelope recursion w_1 = 1,
w_{n+1} = ||a||_inf * M(r0 + s n^(-1/k) w_n) + ||b + P(0)a||_inf (sup norms
over the stadium of radius mu/2) stays bounded by an explicitly computable
constant C whenever s <= 1/C.  It is implemented as a numerical probe, not a
proof, as is the inclusion check of analytically continued iterates in
fattened value intervals.

Regularity estimation: sup norms of repeated spectral derivatives are fitted
against the envelope B^(j+1) * j^(j(1+1/k)); the fitted exponent classifies
the function as analytic-like or of finite regularity index k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chebfun import ellipse_radius

__all__ = [
    "GevreyError",
    "StadiumRegion",
    "EkReport",
    "OmegaReport",
    "ProbeReport",
    "DerivativeNorms",
    "GevreyEstimate",
    "interval_distance",
    "check_ek",
    "omega_sequence",
    "stadium_inclusion_probe",
    "derivative_norms",
    "gevrey_order_estimate",
]

EK_PASS_SLACK = 1e-12
DEFAULT_SCALES = (0.1, 0.5, 0.9)  # fattening scales of ek, solve --require-ek, reproduce
SLOPE_ANALYTIC_CUTOFF = 1.05
MAX_DERIVATIVES = 12
MAX_EK_LEVELS = 10000
MAX_EK_DENSITY = 4096
PROBE_DENSITY = 64  # stadium_inclusion_probe points per boundary piece
# points per psi evaluation in check_ek, or one level if larger: the fastest
# block in a sweep over 2^10..2^16, whose complex temporaries stay in cache
_EK_CHUNK = 1 << 13
_EPS = np.finfo(float).eps


class GevreyError(Exception):
    pass


# --- interval distance ------------------------------------------------------


def interval_distance(z, half_width=1.0):
    """Distance from complex points to the real interval [-h, h]
    (vectorised): hypot(max(|re| - h, 0), im), each step written into one
    output array."""
    arr = np.asarray(z, dtype=complex)
    out = np.abs(arr.real, out=np.empty(arr.shape))
    np.subtract(out, half_width, out=out)
    np.maximum(out, 0.0, out=out)
    np.hypot(out, arr.imag, out=out)
    return float(out) if arr.ndim == 0 else out


# --- stadium regions ---------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _template(density, interior):
    """A stadium sample of radius r is offset + r * direction.  The boundary
    has `density` points on each piece (the caps +-1 + r e^(i phi) and the
    segments x +- i r) plus the cap tips +-(1 + r), at phi = 0, which an
    even `density` misses: 4 * density + 2 points.  The interior repeats the
    four pieces at half the radius and adds [-1, 1] itself at `density | 1`
    points (t = 0 among them from density 2 on), all strictly inside: 9 *
    density + 3 points in all for an even density.  Read-only arrays, shared
    by every radius."""
    phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, density)
    xs = np.linspace(-1.0, 1.0, density)
    ones = np.ones(density)
    tips = np.array([1.0, -1.0])
    offset = [ones, -ones, xs, xs, tips]
    direction = [np.exp(1j * phi), np.exp(1j * (phi + np.pi)), 1j * ones, -1j * ones, tips]
    if interior:
        line = np.linspace(-1.0, 1.0, density | 1)
        offset += offset[:4] + [line]
        direction += [0.5 * d for d in direction[:4]] + [np.zeros_like(line)]
    offset = np.concatenate(offset)
    direction = np.concatenate(direction)
    offset.flags.writeable = False
    direction.flags.writeable = False
    return offset, direction


@functools.lru_cache(maxsize=8)
def _conjugate_free_columns(density, interior):
    """Indices of the `_template` points left when every point whose exact
    conjugate (the same offset and the conjugate direction) comes earlier
    is dropped.  Offsets and radii are real, so the dropped point is the
    conjugate of a kept one bit for bit at every radius: the lower segment,
    and those cap points whose angles mirror exactly.  At density 128, 352
    of the 514 boundary points are kept.  A read-only array."""
    offset, direction = _template(density, interior)
    seen, keep = set(), []
    for i, (o, d) in enumerate(zip(offset.tolist(), direction.tolist())):
        if d.imag != 0.0 and (o, d.real, -d.imag) in seen:
            continue
        seen.add((o, d.real, d.imag))
        keep.append(i)
    keep = np.array(keep)
    keep.flags.writeable = False
    return keep


def _stadium_points(radius, density, interior=True):
    """Deterministic sample of the stadium of the given radius around
    [-1, 1]: the boundary and, when `interior` is true, the interior of
    `_template`.  The interior is needed wherever the sampled function may
    peak inside; `check_ek` drops it for entire maps."""
    offset, direction = _template(density, interior)
    return offset + float(radius) * direction


@dataclass(frozen=True)
class StadiumRegion:
    """The interval [-1, 1] fattened by an open disk of radius A * n^(-1/k)."""

    k: float
    A: float
    n: int

    def __post_init__(self):
        if self.k <= 0 or self.A <= 0 or self.n < 1:
            raise GevreyError("stadium parameters must satisfy k>0, A>0, n>=1")
        if not 0.0 < self.radius < math.inf:
            raise GevreyError(f"stadium radius {self.radius!r} is not positive and finite")

    @property
    def radius(self):
        return self.A * self.n ** (-1.0 / self.k)

    def sample(self, density, interior=True):
        """Boundary points (`density` per piece and the two cap tips) plus,
        when `interior` is true, the interior points of `_template`; the
        same number of points at every radius."""
        return _stadium_points(self.radius, density, interior)


# --- deviating-map inclusion check ------------------------------------------


@dataclass
class EkLevel:
    A: float
    p: int
    worst_ratio: float
    worst_dist: float


@dataclass
class EkReport:
    psi: str
    k: float
    A_list: list
    p_max: int
    density: int
    passed: bool
    worst_ratio: float
    first_pass_p: dict
    levels: list


def check_ek(psi, k, A_list, p_max, density=128):
    """Sampling check of the stadium inclusion property of the deviating map.

    For each fattening scale A and each level p = 1..p_max, the level-(p+1)
    stadium is sampled (boundary caps and segments with `density` points per
    piece, the cap tips +-(1 + radius), and an interior of the four pieces
    at half the radius plus `density | 1` points of [-1, 1]), psi is
    evaluated, and the worst ratio  dist(psi(z), [-1,1]) / (A p^(-1/k))  is
    recorded.  The levels of one scale are stacked as the rows of blocks of
    at most _EK_CHUNK points (or one level), a size that keeps each block's
    temporaries in cache, one psi evaluation per block.  When
    the psi tree is entire (`Expr.is_entire`) the interior is skipped:
    dist(., [-1,1]) is convex, so dist(psi(z), [-1,1]) is subharmonic and,
    by the maximum principle, peaks on the stadium boundary.  When psi also
    commutes with conjugation (`Expr.is_conjugate_exact`), a point whose
    exact conjugate is sampled too is not evaluated: its distance is the
    same bit for bit.  The check
    passes when every ratio is <= 1 + 1e-12.  first_pass_p maps each scale
    to the first level from which every ratio passes (1: the scale passes at
    every level; None: it fails at p_max).  The scales must be distinct,
    positive and finite, 1 <= p_max <= MAX_EK_LEVELS and
    1 <= density <= MAX_EK_DENSITY; all of this is checked before any level
    is sampled.
    This is evidence, not a proof: the property quantifies over open sets.
    """
    if not 1 <= p_max <= MAX_EK_LEVELS:
        raise GevreyError(f"p_max must be in [1, {MAX_EK_LEVELS}]")
    if not 1 <= density <= MAX_EK_DENSITY:
        raise GevreyError(f"density must be in [1, {MAX_EK_DENSITY}]")
    if len(set(A_list)) != len(A_list):
        raise GevreyError(f"fattening scales must be distinct: {list(A_list)!r}")
    if not all(0.0 < A < math.inf for A in A_list):
        raise GevreyError("fattening scales must be positive and finite")
    interior = not psi.is_entire()
    levels = []
    first_pass = {}
    worst_overall = 0.0
    for A in A_list:
        last_fail = 0
        for p, worst in enumerate(_level_maxima(psi, k, A, p_max, density, interior), 1):
            ratio = worst / (A * p ** (-1.0 / k))
            levels.append(EkLevel(A=A, p=p, worst_ratio=ratio, worst_dist=worst))
            worst_overall = max(worst_overall, ratio)
            if ratio > 1.0 + EK_PASS_SLACK:
                last_fail = p
        first_pass[A] = last_fail + 1 if last_fail < p_max else None
    passed = worst_overall <= 1.0 + EK_PASS_SLACK
    return EkReport(
        psi=psi.src,
        k=k,
        A_list=list(A_list),
        p_max=p_max,
        density=density,
        passed=passed,
        worst_ratio=worst_overall,
        first_pass_p=first_pass,
        levels=levels,
    )


def _level_maxima(psi, k, A, p_max, density, interior):
    """max dist(psi(z), [-1, 1]) over the sample of the level-(p+1) stadium
    of scale A, for p = 1..p_max.  Every sample has the template's size, so
    consecutive levels are stacked as the rows of one 2-D block; when psi
    is conjugate-exact only the columns of `_conjugate_free_columns` are
    kept.  A block has at most _EK_CHUNK evaluated points (or one level);
    psi is evaluated once per block and each row is reduced to its maximum.
    A level whose stadium cannot be formed (its radius underflows) ends the
    levels, and its error is raised after the earlier levels of its block
    are evaluated, so an error evaluating one of those is reported first."""
    columns = slice(None)
    if psi.is_conjugate_exact():
        columns = _conjugate_free_columns(density, interior)
    rows = max(1, _EK_CHUNK // len(_template(density, interior)[0][columns]))
    maxima = []
    for first in range(1, p_max + 1, rows):
        block, error = [], None
        for p in range(first, min(first + rows, p_max + 1)):
            try:
                block.append(StadiumRegion(k=k, A=A, n=p + 1).sample(density, interior))
            except GevreyError as exc:
                error = exc
                break
        if block:
            dist = interval_distance(psi.eval_complex(np.array(block)[:, columns]))
            maxima.extend(np.max(dist, axis=1).tolist())
        if error is not None:
            raise error
    return maxima


# --- growth envelope recursion ----------------------------------------------


@dataclass
class OmegaReport:
    values: list
    C_est: float
    a_sup: float
    source_sup: float
    mu: float
    nu_proxy: float
    tau_candidate: float | None
    s: float


def omega_sequence(p, s, r0, n_max, tau_candidate):
    """The growth envelope recursion w_1 = 1,
    w_{n+1} = ||a||_inf * M(r0 + s n^(-1/k) w_n) + ||b + P(0)a||_inf,
    with both sup norms sampled over the stadium of radius mu/2.

    Also computes C_est, the smallest grid-verified constant C >=
    max(2/nu, 1) with  ||a||_inf M(r0 + x) + ||b+P(0)a||_inf <= C max(x,1)^N0
    on x in [0, 2]; boundedness w_n <= C_est is asserted whenever
    s <= 1/C_est.  nu = min(mu, tau_candidate)/2, where tau_candidate is a
    fattening scale the caller found to pass check_ek (the largest one it
    tested); None means no passing scale is known and gives nu = mu/2.
    """
    if s < 0:
        raise GevreyError("s must be >= 0")
    mu = p.effective_mu()
    pts = _stadium_points(mu / 2.0, 256)
    a_vals = p.a.eval_complex(pts)
    src_vals = p.b.eval_complex(pts) + p.P.eval(0.0) * a_vals
    a_sup = float(np.max(np.abs(a_vals)))
    src_sup = float(np.max(np.abs(src_vals)))
    nu_proxy = (mu if tau_candidate is None else min(mu, tau_candidate)) / 2.0

    xs = np.linspace(0.0, 2.0, 2001)
    envelope = (a_sup * p.P.majorant_eval(r0 + xs) + src_sup) / np.maximum(
        xs, 1.0
    ) ** max(p.P.degree, 1)
    C_est = max(float(np.max(envelope)), 2.0 / nu_proxy, 1.0)

    values = [1.0]
    w = 1.0
    for n in range(1, n_max):
        w = a_sup * p.P.majorant_eval(r0 + s * n ** (-1.0 / p.k) * w) + src_sup
        values.append(w)
    if s <= 1.0 / C_est and max(values) > C_est * (1.0 + 1e-12):
        raise GevreyError(
            f"envelope violated: max w = {max(values)!r} > C_est = {C_est!r} "
            f"at s = {s!r}"
        )
    return OmegaReport(
        values=values,
        C_est=C_est,
        a_sup=a_sup,
        source_sup=src_sup,
        mu=mu,
        nu_proxy=nu_proxy,
        tau_candidate=tau_candidate,
        s=s,
    )


# --- inclusion probe for analytically continued iterates ---------------------


@dataclass
class ProbeLevel:
    n: int
    ratio: float
    worst_dist: float
    allowed: float
    points: int


@dataclass
class ProbeReport:
    s_requested: float
    s_used: float
    C: float
    r0: float
    k: float
    all_within: bool = False
    levels: list = field(default_factory=list)


def stadium_inclusion_probe(iterates, r0, k, s, C, n_range):
    """Check that the analytic continuation of iterate n maps the level-n
    stadium of scale s into the interval [-r0, r0] fattened by C s n^(-1/k).

    The continuation of each iterate is only trusted inside its estimated
    validity ellipse (ChebFun.ellipse_hint), so s is halved until every
    probed stadium fits inside every needed ellipse; the s actually used is
    reported.  A stadium fits when its point 1 + radius does, as no point of
    the stadium has a larger Bernstein-ellipse parameter.  Iterate n is the
    n-th Picard iterate (iterates[0] is the zero start).
    """
    n_range = list(n_range)
    if not n_range:
        raise GevreyError("empty level range")
    if max(n_range) > len(iterates):
        raise GevreyError(
            f"need iterate {max(n_range)} but only {len(iterates)} were kept"
        )
    if s <= 0:
        raise GevreyError("s must be positive")

    s_used = float(s)
    for _ in range(200):
        if all(
            _fits_trusted(iterates[n - 1], s_used * n ** (-1.0 / k)) for n in n_range
        ):
            break
        s_used *= 0.5
    else:
        raise GevreyError("could not shrink s into the trusted ellipses")

    report = ProbeReport(s_requested=float(s), s_used=s_used, C=C, r0=r0, k=k)
    worst = 0.0
    for n in n_range:
        radius = s_used * n ** (-1.0 / k)
        pts = _stadium_points(radius, PROBE_DENSITY)
        vals = iterates[n - 1].eval_complex(pts)
        dist = interval_distance(vals, half_width=r0)
        allowed = C * radius
        ratio = float(np.max(dist)) / allowed
        report.levels.append(
            ProbeLevel(
                n=n,
                ratio=ratio,
                worst_dist=float(np.max(dist)),
                allowed=allowed,
                points=len(pts),
            )
        )
        worst = max(worst, ratio)
    report.all_within = worst <= 1.0 + EK_PASS_SLACK
    return report


def _fits_trusted(iterate, radius):
    hint = iterate.ellipse_hint
    if math.isinf(hint):
        return True
    return ellipse_radius(1.0 + radius) <= hint * (1.0 - 1e-9)


# --- derivative growth and regularity index fit -------------------------------


@dataclass
class DerivativeNorms:
    values: list
    flagged: list
    degree: int


def derivative_norms(u, n_max=12):
    """Sup norms of repeated spectral derivatives, m_j = sup |u^(j)|.

    Each norm carries a conditioning flag: spectral differentiation amplifies
    roundoff by up to the Markov factor prod_{i<j} (deg^2 - i^2)/(2i+1), and
    a norm is flagged once eps * sup|u| * (that factor) exceeds 1e-4 * m_j.
    Flagged norms should not enter regularity fits.
    """
    if not 1 <= n_max <= MAX_DERIVATIVES:
        raise GevreyError(f"n_max must be in [1, {MAX_DERIVATIVES}]")
    base_sup = u.sup_norm()
    deg = u.degree
    values = []
    flagged = []
    amplification = 1.0
    cur = u
    for j in range(1, n_max + 1):
        cur = cur.differentiate()
        mj = cur.sup_norm()
        amplification *= max(deg * deg - (j - 1) ** 2, 1.0) / (2.0 * j - 1.0)
        err_est = _EPS * base_sup * amplification
        values.append(mj)
        flagged.append(bool(mj == 0.0 or err_est > 1e-4 * mj))
    return DerivativeNorms(values=values, flagged=flagged, degree=deg)


@dataclass
class GevreyEstimate:
    norms: list
    flagged: list
    slope: float | None
    k_hat: float | None
    B: float | None
    classification: str  # "analytic-like" | "gevrey" | "unresolved"
    usable_indices: list


def gevrey_order_estimate(norms, flagged=None):
    """Fit derivative-norm growth against the envelope B^(j+1) j^(j(1+1/k)).

    In logs the envelope is affine in {1, j, j*log j}; the least-squares
    coefficient e on j*log j over usable j >= 2 classifies the sequence:
    e <= 1.05 is analytic-like (consistent with every regularity index),
    otherwise the index estimate is k_hat = 1/(e-1).  Fewer than 4 usable
    norms yields the "unresolved" classification.
    """
    norms = [float(v) for v in norms]
    if flagged is None:
        flagged = [False] * len(norms)
    usable = [
        j
        for j in range(2, len(norms) + 1)
        if not flagged[j - 1] and norms[j - 1] > 0.0
    ]
    if len(usable) < 4:
        return GevreyEstimate(
            norms=norms,
            flagged=list(flagged),
            slope=None,
            k_hat=None,
            B=None,
            classification="unresolved",
            usable_indices=usable,
        )
    js = np.array(usable, dtype=float)
    y = np.log([norms[j - 1] for j in usable])
    X = np.column_stack([np.ones_like(js), js, js * np.log(js)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    slope = float(coef[2])
    if not math.isfinite(slope):
        raise GevreyError("non-finite slope in regularity fit")
    b_fit = float(np.exp(coef[1])) if abs(coef[1]) < 700 else None
    if slope > SLOPE_ANALYTIC_CUTOFF:
        classification = "gevrey"
        k_hat = 1.0 / (slope - 1.0)
    else:
        classification = "analytic-like"
        k_hat = None
    return GevreyEstimate(
        norms=norms,
        flagged=list(flagged),
        slope=slope,
        k_hat=k_hat,
        B=b_fit,
        classification=classification,
        usable_indices=usable,
    )
