"""Seeded problem generation for the three benchmark workloads.

A workload is a problem family plus the list of CLI operations that make up
one pass over it.  Every parameter is drawn from ``random.Random(seed)``, so a
seed fixes the inputs exactly; another seed draws new parameters from the same
strata (same families, same pass/fail mix, same degree classes, only the
jitter inside each stratum moves), so figures from two seeds are comparable.

Each problem carries the verdict its parameters were built for
(``expect_ok``): problems meant to fail miss hypothesis 2 by a factor of at
least 1.5, problems meant to pass sit at most at 0.75 of the gap.

Workloads:

* ``paper``: variants of the two built-in examples (degree <= ~64), each
  running ``check`` then ``solve``; ``ek`` and ``gevrey`` on four of them and
  ``reproduce all`` once per pass.
* ``oscillatory``: ``a = A cos(w t)``, ``b = B sin(v t)``, ``psi = sin(k t)``
  with P quadratic or cubic, in four degree strata (~244, ~823, ~2034,
  ~4080), each running ``check``, ``solve`` and ``ek``; ``gevrey`` five
  times on each passing problem of the lowest stratum only (it costs several
  seconds at high degree), ``reproduce all`` twice per pass.
* ``diagnostics``: example variants with varied deviating map, regularity
  index ``k`` and data scale, each running ``ek`` and ``gevrey`` (plus
  ``check`` and ``solve``); ``reproduce all`` twice per pass.

``TAIL`` fixes, per workload and command, the tail percentile reported as
``<cmd>_s.tail``.  A run repeats whole passes, at least ``min_passes`` of
them, so every command has at least ``10 / (1 - p)`` samples and ten always
lie beyond its tail; each command's samples are spread over the whole run.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("paper", "oscillatory", "diagnostics")

TAIL = {
    "paper": {"check": 95, "solve": 95, "ek": 90, "gevrey": 90},
    "oscillatory": {"check": 75, "solve": 75, "ek": 75, "gevrey": 75},
    "diagnostics": {"check": 90, "solve": 90, "ek": 90, "gevrey": 90},
}
REPRODUCE_MIN_SAMPLES = 5

PASS_RATIOS = (0.3, 0.45, 0.6, 0.75)  # cond2 lhs / gap for passing problems
FAIL_RATIOS = (1.6, 2.2)  # ... and for problems that must exit 2


def min_passes(workload, ops):
    """Passes a run needs so that every command reaches its sample minimum."""
    need = {cmd: -(-1000 // (100 - p)) for cmd, p in TAIL[workload].items()}
    need["reproduce"] = REPRODUCE_MIN_SAMPLES
    per_pass = {cmd: sum(1 for c, _ in ops if c == cmd) for cmd in need}
    return max(math.ceil(n / per_pass[cmd]) for cmd, n in need.items())


def _jit(rng, x, rel):
    """x scaled by a uniform factor in [1 - rel, 1 + rel], to six digits."""
    return float(f"{x * rng.uniform(1.0 - rel, 1.0 + rel):.6g}")


# --- majorant helpers (the generator's own verdict, independent of fdekit) ---


def majorant(P, r, deriv=0):
    """sum_{j>=1} |P_j| r^j, or its first/second derivative."""
    total = 0.0
    for j, c in enumerate(P):
        if j < max(1, deriv):
            continue
        fac = 1.0
        for i in range(deriv):
            fac *= j - i
        total += fac * abs(c) * r ** (j - deriv)
    return total


def theta_and_gap(P, a_l1):
    """theta solving a_l1 M'(theta) = 1 and gap = theta - M/M' (theta)."""
    lo, hi = 0.0, 1.0
    while a_l1 * majorant(P, hi, 1) <= 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a_l1 * majorant(P, mid, 1) <= 1.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return theta, theta - majorant(P, theta) / majorant(P, theta, 1)


# --- families -------------------------------------------------------------------


def _example1(rng, pid, ratio, N, psi="sin(t)", k=1.0):
    """y' = alpha t^N y(psi)^3 + beta cosh(gamma t): theta = sqrt((N+1)/(6 alpha))."""
    alpha = _jit(rng, 1.0, 0.2)
    gamma = _jit(rng, 1.0, 0.25)
    theta = math.sqrt((N + 1) / (6.0 * alpha))
    gap = 2.0 * theta / 3.0
    beta = float(f"{_jit(rng, ratio, 0.05) * gap * gamma / (2.0 * math.sinh(gamma)):.6g}")
    doc = {
        "k": k,
        "d": 0.0,
        "c": 0.0,
        "P": [0.0, 0.0, 0.0, 1.0],
        "a": f"({alpha!r})*t^{N}",
        "b": f"({beta!r})*cosh(({gamma!r})*t)",
        "psi": psi,
        "mu": 1.0,
    }
    spec = {"family": "example1", "alpha": alpha, "N": N, "beta": beta, "gamma": gamma}
    return _problem(pid, doc, spec, ratio < 1.0)


EX2_P = [-1.0, 0.125, -1.0, 0.0, 1.0]
EX2_GAP = theta_and_gap(EX2_P, 3.0)[1]  # ||2 ln2 2^t||_1 = 3


def _example2(rng, pid, ratio):
    """The quartic example with the source scaled by s and c chosen so that
    ||b + P(0) a||_1 + |c| = ratio * gap."""
    s = float(f"{1.0 + rng.uniform(-8e-4, 8e-4):.6g}")
    mass = abs(301.0 * s / 150.0 - 2.0) * 1.5
    lhs = _jit(rng, ratio, 0.05) * EX2_GAP
    c = float(f"{lhs - mass:.6g}")
    doc = {
        "k": 1.0,
        "d": 0.0,
        "c": c,
        "P": list(EX2_P),
        "a": "2*ln(2)*2^t",
        "b": f"({s!r})*(301*ln(2)/150)*2^t",
        "psi": "sin(t)",
        "mu": 1.0,
    }
    spec = {"family": "example2", "s": s}
    return _problem(pid, doc, spec, ratio < 1.0)


# Frequencies (w, v, kappa) and polynomial of each degree stratum.  They are
# fixed: the degree a solve reaches jumps between grid sizes under a few
# percent of frequency change, so a seed moves only the amplitudes and c,
# which keeps every stratum's degree (~244, ~823, ~2034, ~4080) the same.
QUADRATIC, CUBIC = [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]
OSC_STRATA = (
    ((12.0, 8.0, 3.0), QUADRATIC),
    ((55.0, 33.0, 7.0), CUBIC),
    ((55.0, 33.0, 7.0), QUADRATIC),
    ((86.4, 52.2, 8.64), QUADRATIC),
)


def _oscillatory(rng, pid, stratum, ok):
    (w, v, kappa), P = OSC_STRATA[stratum]
    A = _jit(rng, 0.2, 0.02)
    # ||A cos(w t)||_1 ~ 4A/pi; a failing problem's ||B sin(v t)||_1 ~ 4B/pi
    _, gap = theta_and_gap(P, 4.0 * A / math.pi)
    B = _jit(rng, 0.01, 0.05) if ok else float(f"{2.0 * gap * math.pi / 4.0:.6g}")
    c = _jit(rng, 1e-3, 0.2)
    doc = {
        "k": 1.0,
        "d": 0.0,
        "c": c,
        "P": list(P),
        "a": f"({A!r})*cos({w!r}*t)",
        "b": f"({B!r})*sin({v!r}*t)",
        "psi": f"sin({kappa!r}*t)",
    }
    spec = {"family": "oscillatory", "A": A, "w": w, "B": B, "v": v}
    return _problem(pid, doc, spec, ok)


def _problem(pid, doc, spec, expect_ok):
    return {"id": pid, "doc": doc, "spec": spec, "expect_ok": expect_ok}


# --- workloads ------------------------------------------------------------------


def _paper(rng):
    probs = []
    for i, ratio in enumerate(PASS_RATIOS + PASS_RATIOS[1:3] + FAIL_RATIOS):
        probs.append(_example1(rng, f"ex1-{i}", ratio, N=1 + i % 3))
    for i, ratio in enumerate(PASS_RATIOS[1:] + PASS_RATIOS[1:] + FAIL_RATIOS):
        probs.append(_example2(rng, f"ex2-{i}", ratio))
    ops = [(cmd, p["id"]) for p in probs for cmd in ("check", "solve")]
    for pid in ("ex1-0", "ex1-3", "ex2-0", "ex2-3"):
        ops += [("ek", pid), ("gevrey", pid)]
    ops.append(("reproduce", None))
    return probs, ops


# passing problems per stratum, and strata with one failing problem: the
# median and the 75th percentile of solve and check times both fall inside
# stratum 2, whose times are unimodal
OSC_PASSING = (2, 1, 5, 1)
OSC_FAILING = (0, 1)


def _oscillatory_workload(rng):
    probs = []
    for stratum, n_pass in enumerate(OSC_PASSING):
        for j in range(n_pass):
            probs.append(_oscillatory(rng, f"osc{stratum}-{j}", stratum, True))
        if stratum in OSC_FAILING:
            probs.append(_oscillatory(rng, f"osc{stratum}-fail", stratum, False))
    ops = [(cmd, p["id"]) for p in probs for cmd in ("check", "solve", "ek")]
    ops += [("gevrey", f"osc0-{j}") for j in range(OSC_PASSING[0])] * 5
    ops += [("reproduce", None)] * 2
    return probs, ops


DIAG_PSI = ("sin(t)", "({s!r})*sin(t)", "sin(({s!r})*t)", "({s!r})*t")
DIAG_K = (1.0, 2.0, 0.5, 1.0)


def _diagnostics(rng):
    probs = []
    for i in range(8):
        psi = DIAG_PSI[i % 4].format(s=_jit(rng, 0.8, 0.15))
        k = DIAG_K[(i // 2) % 4]
        probs.append(_example1(rng, f"diag-{i}", PASS_RATIOS[i % 4], N=1 + i % 2, psi=psi, k=k))
    ops = [(cmd, p["id"]) for p in probs for cmd in ("ek", "gevrey", "check", "solve")]
    ops += [("reproduce", None)] * 2
    return probs, ops


_GENERATORS = {"paper": _paper, "oscillatory": _oscillatory_workload, "diagnostics": _diagnostics}


def generate(workload, seed):
    """(problems, pass_ops) for a workload; the same seed gives the same lists.

    pass_ops is one pass as (command, problem id or None) pairs in a seeded
    order; the benchmark repeats passes in that order.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    probs, ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return probs, ops
