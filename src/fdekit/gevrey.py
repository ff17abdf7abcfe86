"""Complex-analytic and regularity diagnostics.

Geometry: the stadium region at level n is the interval [-1, 1] fattened by
an open disk of radius A * n^(-1/k); it shrinks back to the interval as n
grows.  A deviating map that sends every level-(n+1) stadium into the
level-n one (uniformly for small A) is the geometric engine behind the
regularity bootstrap.  check_ek shows the map analytic on each stadium by
the argument principle and samples the stadium boundary alone, where the
maximum principle puts the worst point.  Every sample is one fixed template
scaled by the radius, in order along the closed curve, its lower half the
exact conjugate of its upper half and, from density 2 on, its left half the
exact mirror image -conj(z) of its right half: an odd or even psi is
evaluated on a quarter of each curve.

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
from dataclasses import dataclass

import numpy as np

from .chebfun import _sup_norms, ellipse_radius

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
# block in a sweep over 2^10..2^16, whose complex temporaries stay in cache;
# a block of quarter curves holds about twice as many levels as one of halves
_EK_CHUNK = 1 << 13
_EPS = np.finfo(float).eps


class GevreyError(Exception):
    pass


def _check_count(name, value, lo, hi):
    """A GevreyError unless value is an integer (not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GevreyError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise GevreyError(f"{name} must be in [{lo}, {hi}]")


# --- interval distance ------------------------------------------------------


def interval_distance(z, half_width=1.0):
    """Distance from complex points to the real interval [-h, h]
    (vectorised): hypot(max(|re| - h, 0), im)."""
    arr = np.asarray(z, dtype=complex)
    out = np.hypot(np.maximum(np.abs(arr.real) - half_width, 0.0), arr.imag)
    return float(out) if arr.ndim == 0 else out


# --- stadium regions ---------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _template(density, fold=1):
    """The stadium boundary of radius r is offset + r * direction, in order
    along the closed curve: the tip 1 + r, the upper right cap 1 + r e^(i phi)
    at the angles of linspace(-pi/2, pi/2, density) past the middle one, the
    upper segment from x = 1 to -1 (`density` points), the upper left cap
    -1 - r conj(e^(i phi)), the tip -(1 + r), then the exact conjugates of
    the points between the tips in reverse, so the first h = len // 2 + 1
    points hold one of every conjugate pair at every radius.  4 * density +
    2 points, or 4 * density for an odd density, whose middle angle would
    repeat the tips.  From density 2 on, the segment abscissae are exactly
    antisymmetric (linspace's are not, by an ulp), so point h - 1 - i is
    -conj of point i at every radius, bit for bit, and the first
    ceil(h / 2) points hold one of every such mirror pair.  `fold` 2 keeps
    the first h points, 4 (density >= 2) the first ceil(h / 2), 1 the whole
    curve.  Read-only arrays, shared by every radius."""
    phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, density)
    cap = np.exp(1j * phi[(density + 1) // 2:])
    xs = np.linspace(-1.0, 1.0, density)
    if density > 1:  # exactly antisymmetric; linspace(-1, 1, 1) = [-1] stays
        xs = 0.5 * (xs - xs[::-1])
    ones = np.ones(len(cap))
    upper_offset = np.concatenate([ones, xs[::-1], -ones])
    upper = np.concatenate([cap, np.full(density, 1j), -np.conj(cap[::-1])])
    offset = np.concatenate([[1.0], upper_offset, [-1.0], upper_offset[::-1]])
    direction = np.concatenate([[1.0], upper, [-1.0], np.conj(upper[::-1])])
    offset.flags.writeable = False
    direction.flags.writeable = False
    width = len(offset) // 2 + 1 if fold > 1 else len(offset)
    if fold > 2:
        width = (width + 1) // 2
    return offset[:width], direction[:width]


def _stadium_radius(k, A, n):
    """A * n^(-1/k), the radius of the level-n stadium of scale A, in plain
    Python floats (numpy's power may round differently); unchecked."""
    return A * n ** (-1.0 / k)


def _stadium_radii(k, A, n, count=1):
    """The radii of the stadia of levels n .. n + count - 1; a GevreyError if
    the parameters are out of range or one of the radii is not positive and
    finite."""
    if k <= 0 or A <= 0 or n < 1:
        raise GevreyError("stadium parameters must satisfy k>0, A>0, n>=1")
    radii = [_stadium_radius(k, A, m) for m in range(n, n + count)]
    for radius in radii:
        if not 0.0 < radius < math.inf:
            raise GevreyError(f"stadium radius {radius!r} is not positive and finite")
    return radii


@dataclass(frozen=True)
class StadiumRegion:
    """The interval [-1, 1] fattened by an open disk of radius A * n^(-1/k)."""

    k: float
    A: float
    n: int

    def __post_init__(self):
        _stadium_radii(self.k, self.A, self.n)

    @property
    def radius(self):
        return _stadium_radius(self.k, self.A, self.n)

    def sample(self, density, levels=None, fold=1):
        """The boundary, sampled by `_template(density, fold)`: the whole
        curve, its conjugate half (fold 2) or its mirror quarter (fold 4); with
        `levels`, the boundaries of levels n .. n + levels - 1 (same k and A)
        as the rows of one array, one broadcast of the template over their
        radii.  A GevreyError if one of their radii is not positive and
        finite."""
        offset, direction = _template(density, fold)
        if levels is None:
            return offset + self.radius * direction
        radii = _stadium_radii(self.k, self.A, self.n, levels)
        return offset + np.asarray(radii)[:, None] * direction


# --- deviating-map inclusion check ------------------------------------------


@dataclass
class EkLevel:
    A: float
    p: int
    worst_ratio: float
    worst_dist: float


@dataclass
class SingularEkLevel(EkLevel):
    """A level on whose stadium psi is not shown analytic; it is not
    evaluated, and its worst_ratio and worst_dist are inf."""

    singularity: str


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

    For each fattening scale A and each level p = 1..p_max, the boundary of
    the level-(p+1) stadium is sampled (`_template`), psi is shown analytic
    on the stadium (`_singularities`) and evaluated, and the worst ratio
    dist(psi(z), [-1,1]) / (A p^(-1/k)) is recorded.  With psi analytic on
    the closed stadium, dist(psi(z), [-1,1]) is subharmonic (dist(., [-1,1])
    is convex) and peaks on the boundary, so no interior point is needed.
    A level where a node of psi is not shown analytic is a SingularEkLevel:
    not evaluated, worst_ratio and worst_dist inf, and `singularity` naming
    the node ("pole of 1/(t-1.05)", "cut of sqrt(1.2-t)", "unresolved pole
    of ..."), so it fails.  The levels of one scale are stacked as the rows
    of blocks of at most _EK_CHUNK evaluated points (or one level); a
    block's curves are one `StadiumRegion.sample`, a broadcast of the
    template over the list of its radii, and take one psi evaluation.  When
    psi commutes with conjugation (`Expr.is_conjugate_exact`) only the first
    half of each curve, tips included, is evaluated: the rest are the exact
    conjugates of its points.  When psi is also odd or even (`Expr.parity`)
    and density >= 2, only the first half of that half is: psi(-conj(z)) is
    +-conj(psi(z)) bit for bit, the stadium is symmetric under z -> -conj(z)
    to the bit, and the distance reads only |Re| and |Im|.
    The check passes when every ratio is <= 1 + 1e-12 (so with no scale at
    all).  first_pass_p maps each scale to the first level from which every
    ratio passes (1: every level; None: it fails at p_max).  The scales must
    be distinct, positive and finite, p_max and density integers in
    [1, MAX_EK_LEVELS] and [1, MAX_EK_DENSITY], and the radii of levels
    1..p_max+1 of every scale positive and finite, all checked before any
    level is sampled.
    This is evidence, not a proof: the property quantifies over open sets,
    and the analyticity test reads a sampled curve.
    """
    _check_count("p_max", p_max, 1, MAX_EK_LEVELS)
    _check_count("density", density, 1, MAX_EK_DENSITY)
    if len(set(A_list)) != len(A_list):
        raise GevreyError(f"fattening scales must be distinct: {list(A_list)!r}")
    if not all(0.0 < A < math.inf for A in A_list):
        raise GevreyError("fattening scales must be positive and finite")
    # radii[n - 1] is the radius of the level-n stadium of its scale
    scale_radii = [_stadium_radii(k, A, 1, p_max + 1) for A in A_list]
    # no node needs the lower half: a conjugate-exact psi (any with a parity) is entire
    nodes = psi.singular_nodes()
    fold = 4 if density > 1 and psi.parity() else 2 if psi.is_conjugate_exact() else 1
    rows = max(1, _EK_CHUNK // len(_template(density, fold)[0]))
    levels = []
    first_pass = {}
    for A, radii in zip(A_list, scale_radii):
        last_fail = 0
        for first in range(1, p_max + 1, rows):
            count = min(rows, p_max + 1 - first)
            curves = StadiumRegion(k, A, first + 1).sample(density, count, fold)
            names = _singularities(nodes, curves)
            keep = [i for i, name in enumerate(names) if name is None]
            worst = np.full(count, math.inf)
            if keep:
                z = curves if len(keep) == count else curves[keep]
                worst[keep] = np.max(interval_distance(psi.eval_complex(z)), axis=1)
            for p, dist, name in zip(range(first, first + count), worst.tolist(), names):
                ratio = dist / radii[p - 1]
                levels.append(EkLevel(A, p, ratio, dist) if name is None
                              else SingularEkLevel(A, p, ratio, dist, name))
                if ratio > 1.0 + EK_PASS_SLACK:
                    last_fail = p
        first_pass[A] = last_fail + 1 if last_fail < p_max else None
    worst_ratio = max((lv.worst_ratio for lv in levels), default=0.0)
    return EkReport(psi=psi.src, k=k, A_list=list(A_list), p_max=p_max, density=density,
                    passed=worst_ratio <= 1.0 + EK_PASS_SLACK, worst_ratio=worst_ratio,
                    first_pass_p=first_pass, levels=levels)


def _singularities(nodes, curves):
    """For each row of `curves` (closed curves sampled in order), None when
    every node of `nodes` (`Expr.singular_nodes`, innermost first) is
    analytic inside, else the name of the first that is not.  With the inner
    nodes analytic, the argument principle decides each: a pole's operand g
    has no zero inside iff g != 0 on the curve and winds 0 times about 0; a
    cut's operand misses (-inf, 0] inside iff it misses it on the curve (no
    sample on the cut, no step across it).  Both are read from one np.angle
    of g.  A curve with a step that turns by pi/2 or more about 0 is not
    trusted: "unresolved ...", unless a sample already decides.  An operand
    with one value at every sample is that constant inside the curve, so
    its node is analytic there unless the value is 0."""
    names = [None] * len(curves)
    for kind, src, operand in nodes:
        live = [i for i, name in enumerate(names) if name is None]
        if not live:
            break
        g = operand.eval_complex(curves if len(live) == len(curves) else curves[live])
        varies = np.any(g != g[:, :1], axis=1)
        arg = np.angle(g)
        step = np.diff(arg, axis=1, append=arg[:, :1])
        turn = step - 2.0 * np.pi * np.rint(step / (2.0 * np.pi))
        hit = np.any(g == 0, axis=1)
        if kind == "pole":
            fails = np.rint(np.sum(turn, axis=1) / (2.0 * np.pi)) != 0
        else:
            hit |= varies & np.any(np.abs(arg) == np.pi, axis=1)
            fails = np.any(np.abs(step) > np.pi, axis=1)
        fails &= varies
        unresolved = varies & np.any(np.abs(turn) >= 0.5 * np.pi, axis=1)
        for i, h, u, f in zip(live, hit.tolist(), unresolved.tolist(), fails.tolist()):
            if h or (f and not u):
                names[i] = f"{kind} of {src}"
            elif u:
                names[i] = f"unresolved {kind} of {src}"
    return names


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
    with both sup norms sampled over the stadium of radius mu/2: on its
    boundary, by the maximum modulus principle, once a and b are shown
    analytic there as in check_ek (a GevreyError names a node that is not),
    and on the first half of the curve alone when both are conjugate-exact.

    Also computes C_est = max(||a||_inf M(r0 + 1) + ||b+P(0)a||_inf, 2/nu, 1),
    the exact least C >= max(2/nu, 1) with ||a||_inf M(r0 + x) + ||b+P(0)a||_inf
    <= C max(x,1)^N0 on x in [0, 2], N0 = max(deg P, 1): the left side over
    max(x,1)^N0 cannot fall on [0, 1] (M has nonnegative coefficients) nor rise
    on [1, 2] (each term |P_j| (1 + r0/x)^j x^(j-N0) has j <= N0), so x = 1 is
    its maximiser.  w_n <= C_est is asserted whenever s <= 1/C_est.  nu =
    min(mu, tau_candidate)/2, tau_candidate a fattening scale the caller found
    to pass check_ek (the largest it tested); None (none known) gives mu/2.
    s and r0 must be finite and >= 0 and n_max an integer >= 1.
    """
    # x = 1 maximises the envelope only for r0 >= 0; M(inf) is nan (Horner starts from 0 inf)
    if not (0 <= s < math.inf and 0 <= r0 < math.inf):
        raise GevreyError(f"s and r0 must be >= 0 and finite, got s={s!r}, r0={r0!r}")
    _check_count("n_max", n_max, 1, math.inf)
    if tau_candidate is not None and not 0.0 < tau_candidate < math.inf:
        raise GevreyError(
            f"tau_candidate must be None or positive and finite, got {tau_candidate!r}")
    mu = p.effective_mu()
    fold = 2 if p.a.is_conjugate_exact() and p.b.is_conjugate_exact() else 1
    pts = StadiumRegion(p.k, mu / 2.0, 1).sample(256, fold=fold)
    for name, f in (("a", p.a), ("b", p.b)):
        singularity = _singularities(f.singular_nodes(), pts[None])[0]
        if singularity is not None:
            raise GevreyError(f"{name} is not analytic on the stadium of radius "
                              f"mu/2 = {mu / 2.0!r}: {singularity}")
    a_vals = p.a.eval_complex(pts)
    src_vals = p.b.eval_complex(pts) + p.P.eval(0.0) * a_vals
    a_sup = float(np.max(np.abs(a_vals)))
    src_sup = float(np.max(np.abs(src_vals)))
    nu_proxy = (mu if tau_candidate is None else min(mu, tau_candidate)) / 2.0
    C_est = max(a_sup * p.P.majorant(r0 + 1.0) + src_sup, 2.0 / nu_proxy, 1.0)

    values = [1.0]
    w = 1.0
    for n in range(1, n_max):
        w = a_sup * p.P.majorant(r0 + _stadium_radius(p.k, s, n) * w) + src_sup
        values.append(w)
    if s <= 1.0 / C_est and max(values) > C_est * (1.0 + 1e-12):
        raise GevreyError(
            f"envelope violated: max w = {max(values)!r} > C_est = {C_est!r} "
            f"at s = {s!r}"
        )
    return OmegaReport(values=values, C_est=C_est, a_sup=a_sup, source_sup=src_sup, mu=mu,
                       nu_proxy=nu_proxy, tau_candidate=tau_candidate, s=s)


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
    all_within: bool
    levels: list


def stadium_inclusion_probe(iterates, r0, k, s, C, n_range):
    """Check that the analytic continuation of iterate n maps the level-n
    stadium of scale s into the interval [-r0, r0] fattened by C s n^(-1/k).

    The continuation of each iterate is only trusted inside its estimated
    validity ellipse (ChebFun.ellipse_hint), so s is halved until every
    probed stadium fits inside every needed ellipse; the s actually used is
    reported.  A stadium fits when its point 1 + radius does, as no point of
    the stadium has a larger Bernstein-ellipse parameter.  Only the stadium
    boundary is sampled: an iterate is a polynomial, so the distance of its
    values from the interval is subharmonic and peaks there.  As its
    coefficients are real, only the first half of the curve, tips included,
    is evaluated; `points` counts the whole curve.  Iterate n is the n-th
    Picard iterate (iterates[0] is the zero start).
    """
    n_range = list(n_range)
    if not n_range:
        raise GevreyError("empty level range")
    if min(n_range) < 1:
        raise GevreyError(f"levels start at 1, got {min(n_range)}")
    if max(n_range) > len(iterates):
        raise GevreyError(
            f"need iterate {max(n_range)} but only {len(iterates)} were kept"
        )
    # r0 = inf would drop the real parts; C <= 0 or C = inf would pass any level
    if not (s > 0 and k > 0 and 0.0 <= r0 < math.inf and 0.0 < C < math.inf):
        raise GevreyError(f"s and k must be positive, r0 finite and >= 0 and C positive and "
                          f"finite, got s={s!r}, k={k!r}, r0={r0!r}, C={C!r}")

    s_used = float(s)
    for _ in range(200):
        if all(
            _fits_trusted(iterates[n - 1], _stadium_radius(k, s_used, n)) for n in n_range
        ):
            break
        s_used *= 0.5
    else:
        raise GevreyError("could not shrink s into the trusted ellipses")

    # an iterate has real coefficients: its values on the lower half of the
    # curve are the exact conjugates of those on the upper half
    levels = []
    points = len(_template(PROBE_DENSITY)[0])
    for n in n_range:
        region = StadiumRegion(k, s_used, n)
        values = iterates[n - 1].eval_complex(region.sample(PROBE_DENSITY, fold=2))
        worst = float(np.max(interval_distance(values, half_width=r0)))
        allowed = C * region.radius
        levels.append(ProbeLevel(n=n, ratio=worst / allowed, worst_dist=worst,
                                 allowed=allowed, points=points))
    return ProbeReport(s_requested=float(s), s_used=s_used, C=C, r0=r0, k=k,
                       all_within=max(lv.ratio for lv in levels) <= 1.0 + EK_PASS_SLACK,
                       levels=levels)


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

    One chebfun._sup_norms call takes the norms of all derivatives, the
    zero-padded rows of one matrix.  Each norm carries a conditioning flag:
    spectral differentiation amplifies roundoff by up to the Markov factor
    prod_{i<j} (deg^2 - i^2)/(2i+1), and a norm is flagged once
    eps * sup|u| * (that factor) exceeds 1e-4 * m_j.  Flagged norms should
    not enter regularity fits.
    """
    _check_count("n_max", n_max, 1, MAX_DERIVATIVES)
    base_sup = u.sup_norm()
    deg = u.degree
    rows, cur = np.zeros((n_max, max(deg, 1))), u  # u^(j) in row j - 1, zero-padded
    for r in rows:
        cur = cur.differentiate()
        r[: len(cur.coeffs)] = cur.coeffs
    values = _sup_norms(rows).tolist()
    flagged = []
    amplification = 1.0
    for j, mj in enumerate(values, start=1):
        amplification *= max(deg * deg - (j - 1) ** 2, 1.0) / (2.0 * j - 1.0)
        err_est = _EPS * base_sup * amplification
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
    norms yields the "unresolved" classification.  flagged, if given, has
    one entry per norm, else GevreyError.
    """
    norms = [float(v) for v in norms]
    if flagged is None:
        flagged = [False] * len(norms)
    elif len(flagged) != len(norms):
        raise GevreyError(f"{len(flagged)} flags for {len(norms)} norms")
    usable = [
        j
        for j in range(2, len(norms) + 1)
        if not flagged[j - 1] and norms[j - 1] > 0.0
    ]
    slope = k_hat = b_fit = None
    classification = "unresolved"
    if len(usable) >= 4:
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
    return GevreyEstimate(
        norms=norms,
        flagged=list(flagged),
        slope=slope,
        k_hat=k_hat,
        B=b_fit,
        classification=classification,
        usable_indices=usable,
    )
