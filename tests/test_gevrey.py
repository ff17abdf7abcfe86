import dataclasses
import math

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest
from hypothesis import example, given, settings, strategies as st

from fdekit import conditions, gevrey, picard
from fdekit.chebfun import ChebFun, _sup_norms, build, ellipse_radius
from fdekit.cli import example1_doc, example2_doc, load_problem
from fdekit.expr import ENTIRE_FUNCTIONS, DomainError, Expr, OverflowEvalError, parse
from fdekit.gevrey import (
    MAX_DERIVATIVES,
    EkReport,
    GevreyError,
    SingularEkLevel,
    StadiumRegion,
    check_ek,
    derivative_norms,
    gevrey_order_estimate,
    interval_distance,
    omega_sequence,
    stadium_inclusion_probe,
)


class TestDistToInterval:
    def test_corner(self):
        assert interval_distance(2 + 1j) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_above_interval(self):
        assert interval_distance(0.3 + 0.2j) == pytest.approx(0.2, abs=1e-16)

    def test_real_outside(self):
        assert interval_distance(-1.5 + 0j) == pytest.approx(0.5, abs=1e-16)

    def test_lipschitz_random_pairs(self):
        rng = np.random.default_rng(314)
        for _ in range(100):
            z1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            z2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            r1, r2 = interval_distance(z1), interval_distance(z2)
            assert abs(r1 - r2) <= abs(z1 - z2) + 1e-12


class TestStadiumRegion:
    def test_radius_and_membership(self):
        r = StadiumRegion(k=1.0, A=0.5, n=2)
        assert r.radius == 0.25
        assert interval_distance(0.9 + 0.2j) < r.radius
        assert not interval_distance(0.9 + 0.3j) < r.radius

    def test_nesting_sampled(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            k = float(rng.uniform(0.3, 3.0))
            A = float(rng.uniform(0.05, 1.0))
            n = int(rng.integers(1, 20))
            inner = StadiumRegion(k=k, A=A, n=n + 1)
            outer = StadiumRegion(k=k, A=A, n=n)
            pts = inner.sample(16)
            assert np.all(interval_distance(pts) < outer.radius)

    def test_bad_parameters(self):
        with pytest.raises(GevreyError):
            StadiumRegion(k=0.0, A=1.0, n=1)

    @pytest.mark.parametrize("density", [2, 17, 128])
    def test_one_template_for_every_radius(self, density):
        # 4 density + 2 points; an odd density has no cap point at phi = 0
        size = 4 * density + (2 if density % 2 == 0 else 0)
        for r in np.geomspace(1e-300, 1e3, 50):
            pts = StadiumRegion(k=1.0, A=r, n=1).sample(density)
            assert len(pts) == size
            assert pts[0] == 1.0 + r and pts[size // 2] == -1.0 - r
            # consecutive points, the last and the first included, are
            # adjacent along the curve: the argument about 0 never falls,
            # turns once around, and steps by at most one piece spacing
            arg = np.angle(pts)
            step = np.diff(arg, append=arg[0])
            step -= 2.0 * np.pi * np.round(step / (2.0 * np.pi))
            assert np.all(step >= 0.0)
            assert np.sum(step) == pytest.approx(2.0 * np.pi, rel=1e-12)
            gaps = np.abs(np.diff(pts, append=pts[0]))
            assert np.max(gaps) <= max(r * np.pi, 2.0) / (density - 1) * (1.0 + 1e-12)

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("density", [1, 2, 17, 128, 4096])
    def test_conjugate_free_columns_cover_the_template(self, density, block):
        # the first len // 2 + 1 points, tips included, hold one point of
        # every conjugate pair: the rest are their exact conjugates in
        # reverse, bit for bit at every radius, as one curve or as the row
        # of a block of levels
        for r in (1e-300, 1e-3, 0.37, 2.5):
            region = StadiumRegion(k=1.0, A=r, n=1)
            pts = region.sample(density, 1)[0] if block else region.sample(density)
            half = len(pts) // 2 + 1
            assert pts[0].imag == 0.0 and pts[half - 1].imag == 0.0
            assert np.all(pts[1:half - 1].imag > 0.0)
            lower = np.conj(pts[1:half - 1][::-1])
            assert pts[half:].view(float).tobytes() == lower.view(float).tobytes()
            assert region.sample(density, fold=2).tobytes() == pts[:half].tobytes()
        assert len(StadiumRegion(k=1.0, A=1.0, n=1).sample(128, fold=2)) == 258
        assert len(StadiumRegion(k=1.0, A=1.0, n=1).sample(128, fold=4)) == 129

    @pytest.mark.parametrize("density", [*range(2, 301), 1024, 4096])
    def test_half_template_is_mirror_exact(self, density):
        # point h - 1 - i of the first h = len // 2 + 1 is -conj of point i,
        # bit for bit at every radius, and fold 4 keeps the first ceil(h / 2)
        offset, direction = gevrey._template(density, 2)
        assert np.array_equal(offset[::-1], -offset)
        assert np.array_equal(direction[::-1], -np.conj(direction))
        for r in (1e-300, 1e-3, 0.37, 2.5):
            pts = StadiumRegion(k=1.0, A=r, n=1).sample(density, fold=2)
            assert np.abs(pts.real[::-1]).tobytes() == np.abs(pts.real).tobytes()
            assert pts.imag[::-1].tobytes() == pts.imag.tobytes()
            quarter = StadiumRegion(k=1.0, A=r, n=1).sample(density, fold=4)
            assert quarter.tobytes() == pts[:(len(pts) + 1) // 2].tobytes()

    def test_density_one_keeps_its_points(self, monkeypatch):
        # symmetrising linspace(-1, 1, 1) = [-1] would move it to 0, so the
        # curve has no mirror quarter: an odd psi takes the half rule
        r = 0.37
        pts = StadiumRegion(k=1.0, A=r, n=1).sample(1)
        assert pts.tolist() == [1.0 + r, -1.0 + r * 1j, -1.0 - r, -1.0 - r * 1j]
        psi = parse("sin(t)")
        counts = count_eval_points(monkeypatch, psi)
        check_ek(psi, 1.0, [0.5], 5, density=1)
        assert sum(counts) == 5 * 3

    # a density-1 curve has no mirror quarter
    @pytest.mark.parametrize("density,fold", [(density, fold) for density in (1, 2, 3, 17, 128)
                                              for fold in (1, 2, 4) if density > 1 or fold < 4])
    def test_levels_are_rows_of_one_level_samples(self, density, fold):
        # sample(levels=m) stacks the boundaries of levels n .. n + m - 1,
        # bit for bit, each cut to its first h = len // 2 + 1 points with
        # fold 2 and to the first ceil(h / 2) with fold 4
        rows = StadiumRegion(k=0.5, A=0.7, n=3).sample(density, 40, fold)
        for i, row in enumerate(rows):
            pts = StadiumRegion(k=0.5, A=0.7, n=3 + i).sample(density)
            width = len(pts) // 2 + 1 if fold > 1 else len(pts)
            cut = pts[:(width + 1) // 2 if fold == 4 else width]
            assert row.tobytes() == cut.tobytes()
        assert StadiumRegion(k=0.5, A=0.7, n=3).sample(density, fold=fold).tobytes() == \
            rows[0].tobytes()

    def test_levels_raise_on_a_later_radius(self):
        # at k = 0.005 the radius 0.5 * n^-200 first underflows at level 42
        assert len(StadiumRegion(k=0.005, A=0.5, n=2).sample(8, 40)) == 40
        with pytest.raises(GevreyError, match="stadium radius 0.0 is not positive and finite"):
            StadiumRegion(k=0.005, A=0.5, n=2).sample(8, 41)


class TestCheckEk:
    def test_sine_passes_with_proof_bound(self):
        rep = check_ek(parse("sin(t)"), 1.0, [0.1, 0.5, 0.9], 100, density=128)
        assert rep.passed
        for lv in rep.levels:
            assert lv.worst_dist <= lv.A / (lv.p + 1 - lv.A) + 1e-12

    def test_identity_passes_any_scale(self):
        for k in (0.5, 1.0, 2.0):
            rep = check_ek(parse("t"), k, [0.2, 0.9, 2.0], 30, density=32)
            assert rep.passed

    def test_double_fails_immediately(self):
        rep = check_ek(parse("2*t"), 1.0, [0.5], 1, density=32)
        assert not rep.passed
        assert rep.worst_ratio > 1.0
        assert rep.first_pass_p[0.5] is None

    def test_report_shape(self):
        rep = check_ek(parse("sin(t)"), 1.0, [0.5], 3, density=32)
        d = dataclasses.asdict(rep)
        assert d["passed"] and len(d["levels"]) == 3

    # at k = 1e-3 the level-3 radius 0.5 * 3^-1000 underflows to 0, at k =
    # 0.005 the level-42 radius 0.5 * 42^-200, in the second block of levels,
    # and at k = 0.01 the level-2 radius 1e-300 * 2^-100 of the second scale,
    # while the first keeps every radius
    @pytest.mark.parametrize("k,A_list,p_max,density,match", [
        (1.0, [0.5], 0, 32, "must be in"),
        (1.0, [0.5], 10001, 32, "must be in"),
        (1.0, [0.5], 3, 0, "must be in"),
        (1.0, [0.5], 3, 4097, "must be in"),
        (1.0, [0.5], 2.5, 32, "p_max must be an integer, got 2.5"),
        (1.0, [0.5], True, 32, "p_max must be an integer, got True"),
        (1.0, [0.5], 3, 2.5, "density must be an integer, got 2.5"),
        (1.0, [0.5], 3, True, "density must be an integer, got True"),
        (1e-3, [0.5], 100, 128, "stadium radius 0.0 is not positive and finite"),
        (0.005, [0.5], 100, 128, "stadium radius 0.0 is not positive and finite"),
        (0.01, [0.5, 1e-300], 100, 128, "stadium radius 0.0 is not positive and finite"),
    ])
    @pytest.mark.parametrize("src", ["sin(t)", "exp(800*t)", "1/t"])
    def test_level_and_density_caps(self, monkeypatch, src, k, A_list, p_max, density, match):
        # every bound and every radius is checked before anything is sampled
        # or evaluated: exp(800 t) would overflow on the level-1 stadium of
        # scale 0.5, and 1/t has its pole inside every stadium
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled before checking the caps")

        psi = parse(src)
        monkeypatch.setattr(gevrey, "_template", forbidden)
        monkeypatch.setattr(StadiumRegion, "sample", forbidden)
        monkeypatch.setattr(Expr, "eval_complex", forbidden)
        with pytest.raises(GevreyError, match=match):
            check_ek(psi, k, A_list, p_max, density=density)

    def test_no_scale_passes_with_no_level(self):
        rep = check_ek(parse("2*t"), 1.0, [], 5)
        assert (rep.passed, rep.worst_ratio, rep.first_pass_p, rep.levels) == (True, 0.0, {}, [])


ENTIRE_MAPS = ["sin(t)", "0.5*sin(t)^3", "t^2-0.5", "0.5*cos(t)", "0.9*t",
               "sin(0.5*t)^3", "0.3*sinh(t)", "exp(t)-1"]
NON_ENTIRE_MAPS = ["sqrt(t+2)", "1/(t+3)", "2^t", "ln(t+3)"]
# (psi, regularity indices k) for test_row_blocks_match_one_level_at_a_time
BLOCK_MAPS = [(src, (0.5, 1.0, 2.0)) for src in
              ("sin(t)", "0.5*cos(t)", "1.5*t", "(0*t-2)^101*t", "sqrt(t+2)", "(-1)^t")] + \
    [("1/(t-1.05)", (0.5,))]


def count_eval_points(monkeypatch, psi):
    """Patch Expr.eval_complex to record the number of points of each call
    that evaluates psi itself (not one of its node operands)."""
    counts = []
    original = Expr.eval_complex

    def counting(self, z):
        if self.root is psi.root:
            counts.append(np.size(z))
        return original(self, z)

    monkeypatch.setattr(Expr, "eval_complex", counting)
    return counts


def boundary_size(density):
    """Points of one stadium boundary sample at the given density."""
    return len(StadiumRegion(k=1.0, A=0.5, n=2).sample(density))


def full_sample_maxima(psi, k, A, p_max, density, singular=math.inf):
    """max dist(psi(z), [-1, 1]) over every point of each level's
    StadiumRegion.sample, one level at a time: the reference for check_ek,
    with inf for the levels whose radius exceeds `singular`, the distance
    from [-1, 1] of psi's nearest singularity."""
    maxima = []
    for p in range(1, p_max + 1):
        region = StadiumRegion(k=k, A=A, n=p + 1)
        maxima.append(math.inf if region.radius > singular else
                      np.max(interval_distance(psi.eval_complex(region.sample(density)))))
    return maxima


class TestEkSampling:
    @pytest.mark.parametrize("density", [32, 128])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("src", ENTIRE_MAPS)
    def test_boundary_only_matches_full_sampling(self, monkeypatch, src, k, density):
        psi = parse(src)
        counts = count_eval_points(monkeypatch, psi)
        reports, sizes = [], []
        # the first quarter of the boundaries of all 100 levels of each
        # scale for an odd or even psi, else the first half, tips included,
        # in blocks of at most _EK_CHUNK points; then the first half with
        # the parity rule off, and the whole curve with the conjugate rule
        # off too
        for off in (None, "parity", "is_conjugate_exact"):
            if off:
                monkeypatch.setattr(Expr, off, lambda self: 0)
            calls = len(counts)
            reports.append(check_ek(psi, k, [0.1, 0.5, 0.9], 100, density=density))
            assert max(counts[calls:]) <= gevrey._EK_CHUNK
            sizes.append(sum(counts[calls:]))
        quarter = density + 1 if src != "exp(t)-1" else 2 * density + 2
        assert sizes == [3 * 100 * n for n in (quarter, 2 * density + 2, boundary_size(density))]
        for f in dataclasses.fields(EkReport):
            assert [getattr(rep, f.name) for rep in reports[1:]] == \
                [getattr(reports[0], f.name)] * 2, f.name

    @pytest.mark.parametrize("src", NON_ENTIRE_MAPS)
    def test_non_entire_maps_evaluate_the_whole_curve(self, monkeypatch, src):
        psi = parse(src)
        counts = count_eval_points(monkeypatch, psi)
        rep = check_ek(psi, 1.0, [0.1, 0.5], 20, density=128)
        # every point of both scales' 20 boundaries, no interior
        assert not any(isinstance(lv, SingularEkLevel) for lv in rep.levels)
        assert max(counts) <= gevrey._EK_CHUNK
        assert sum(counts) == 2 * 20 * 514 == 2 * 20 * boundary_size(128)

    @pytest.mark.parametrize("src", ["sin(t)", "sqrt(t+2)"])
    def test_evaluations_are_chunked(self, monkeypatch, src):
        psi = parse(src)
        counts = []

        def ones(self, z):
            if self.root is psi.root:
                counts.append(np.size(z))
            return np.ones(np.shape(z), dtype=complex)

        monkeypatch.setattr(Expr, "eval_complex", ones)
        rep = check_ek(psi, 1.0, [0.5], 300, density=4096)
        # sin(t) evaluates the first quarter of its boundary, tips included
        level = 4096 + 1 if psi.parity() else boundary_size(4096)
        assert len(rep.levels) == 300 and len(counts) > 1
        assert max(counts) <= max(gevrey._EK_CHUNK, level)
        assert sum(counts) == 300 * level

    # entire maps on quarter curves (odd sin(t) and 1.5*t, which peaks at
    # the cap tip 1 + r, even 0.5*cos(t)), on half curves ((0*t-2)^101*t)
    # and on whole ones ((-1)^t), a non-entire map, and a pole 0.05 from
    # [-1, 1]; 100 levels span 2 blocks of 63 levels at density 128 for the
    # quarters, 4 blocks of 31 for the half, 7 blocks of 15 for the others,
    # and 100 blocks of one level at density 4096
    @pytest.mark.parametrize("density", [1, 2, 3, 17, 128, 129, 4096])
    @pytest.mark.parametrize("src,ks", BLOCK_MAPS, ids=[m[0] for m in BLOCK_MAPS])
    def test_row_blocks_match_one_level_at_a_time(self, src, ks, density):
        psi, A = parse(src), 0.5
        singular = 0.05 if src == "1/(t-1.05)" else math.inf
        for k in ks:
            rep = check_ek(psi, k, [A], 100, density=density)
            assert [lv.worst_dist for lv in rep.levels] == full_sample_maxima(
                psi, k, A, 100, density, singular)
            assert [lv.worst_ratio for lv in rep.levels] == [
                lv.worst_dist / StadiumRegion(k=k, A=A, n=lv.p).radius for lv in rep.levels]


# (psi, regularity indices k, distance from [-1, 1] of its singularity, the
# name of every singular level or None): the levels whose stadium reaches
# the singularity fail, and no other
SINGULAR_MAPS = [("1/(t-1.05)", (0.5,), 0.05, "pole of 1/(t-1.05)"),
                 ("sqrt(1.2-t)", (0.5, 1.0, 2.0), 0.2, "cut of sqrt(1.2-t)"),
                 ("sqrt((t-1.04)/(t-1.05))", (0.5,), 0.04, None)]


class TestSingularLevels:
    @pytest.mark.parametrize("density", [1, 2, 3, 4, 17, 64, 128, 1024])
    @pytest.mark.parametrize("src,ks,gap,name", SINGULAR_MAPS, ids=[m[0] for m in SINGULAR_MAPS])
    def test_exactly_the_levels_that_hold_the_singularity_fail(self, src, ks, gap, name, density):
        psi = parse(src)
        for k in ks:
            rep = check_ek(psi, k, [0.1, 0.5, 0.9], 100, density=density)
            singular = [lv for lv in rep.levels if isinstance(lv, SingularEkLevel)]
            holds = [lv for lv in rep.levels
                     if StadiumRegion(k=k, A=lv.A, n=lv.p + 1).radius >= gap]
            assert singular == holds and singular
            assert all(lv.worst_dist == lv.worst_ratio == math.inf for lv in singular)
            assert all(math.isfinite(lv.worst_ratio) for lv in rep.levels if lv not in singular)
            if name is not None and density >= 17:
                assert {lv.singularity for lv in singular} == {name}

    def test_the_innermost_node_is_named_first(self):
        # radius 0.9 / 4 holds the pole at 1.05 and the zero at 1.04
        rep = check_ek(parse("sqrt((t-1.04)/(t-1.05))"), 0.5, [0.9], 1, density=64)
        assert rep.levels[0].singularity == "pole of (t-1.04)/(t-1.05)"
        # radius 0.045 holds the zero, not the pole: the cut node fails
        rep = check_ek(parse("sqrt((t-1.04)/(t-1.05))"), 1.0, [0.09], 1, density=64)
        assert rep.levels[0].singularity == "cut of sqrt((t-1.04)/(t-1.05))"

    def test_a_coarse_curve_is_unresolved(self):
        # at density 1 the curve has 4 points, and seen from the pole the
        # step from the tip 1 + r to -1 + i r turns by almost pi
        rep = check_ek(parse("1/(t-1.05)"), 0.5, [0.9], 4, density=1)
        names = [getattr(lv, "singularity", None) for lv in rep.levels]
        assert names == ["unresolved pole of 1/(t-1.05)"] * 3 + [None]
        assert not rep.passed and rep.worst_ratio == math.inf
        assert rep.first_pass_p == {0.9: None}

    def test_winding_and_cut_tests_on_a_circle(self):
        # the unit circle, in order: 1/(t - c) has its pole inside iff
        # |c| < 1, and sqrt(t - c) its cut inside iff c > -1
        circle = np.exp(2j * np.pi * np.arange(64) / 64)[None]
        for c, pole, cut in [(0.5, True, True), (-0.5, True, True), (1.5, False, True),
                             (-1.5, False, False)]:
            for src, kind, fails in [(f"1/(t-({c}))", "pole", pole), (f"sqrt(t-({c}))", "cut", cut)]:
                names = gevrey._singularities(parse(src).singular_nodes(), circle)
                assert names == [f"{kind} of {src}" if fails else None], src
        # 3 points of a circle of radius 0.01 around a pole: unresolved
        near = 1.0 + 1e-2 * np.exp(2j * np.pi * np.arange(3) / 3)
        names = gevrey._singularities(parse("1/(t-1.001)").singular_nodes(), near[None])
        assert names == ["unresolved pole of 1/(t-1.001)"]

    def test_an_operand_with_one_value_is_analytic(self):
        # a constant operand is analytic inside the curve, even on a cut,
        # unless it is 0
        circle = np.exp(2j * np.pi * np.arange(64) / 64)[None]
        for src, name in [("1/(0*t+2)", None), ("ln(0*t-1)", None), ("sqrt(0*t-2)", None),
                          ("1/(0*t)", "pole of 1/(0*t)"), ("ln(0*t)", "cut of ln(0*t)")]:
            assert gevrey._singularities(parse(src).singular_nodes(), circle) == [name], src
        # so 0*ln(0*t-1) adds nothing to 0.1 t on any stadium
        got = check_ek(parse("0.1*t + 0*ln(0*t-1)"), 1.0, [0.1, 0.5, 0.9], 20, density=64)
        want = check_ek(parse("0.1*t"), 1.0, [0.1, 0.5, 0.9], 20, density=64)
        assert got.passed and got.levels == want.levels

    def test_entire_reports_keep_their_keys(self):
        rep = check_ek(parse("sin(t)"), 1.0, [0.5], 3, density=32)
        assert all(type(lv) is gevrey.EkLevel for lv in rep.levels)


class TestConjugateReflection:
    """An entire tree that `Expr.is_conjugate_exact` accepts has the same
    interval distance at z and conj(z), bit for bit, which is what lets
    check_ek evaluate one point of each conjugate pair."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(src=st.recursive(
        st.sampled_from(["t", "0.5", "2", "1.7", "pi", "e", "0*t", "(0*t-2)", "(0.3-1.2)",
                         "-(pi)", "-0.75"]),
        lambda inner: st.one_of(
            st.builds("{}({})".format, st.sampled_from(ENTIRE_FUNCTIONS), inner),
            inner.map("-({})".format),
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*"), inner),
            st.builds("({})^{}".format, inner,
                      st.integers(0, 512) | st.sampled_from([99, 100, 101])),
        ),
        max_leaves=8,
    ))
    # real constants to a power from 100 on, times t: squared out, reflected
    @example(src="(0*t-2)^101*t")
    @example(src="cos(e)^101*t")
    @example(src="(0.3-1.2)^100*t")
    def test_accepted_trees_reflect_bit_for_bit(self, src):
        psi = parse(src)
        assert not psi.singular_nodes()
        if not psi.is_conjugate_exact():
            return
        for radius in (1e-300, 1e-3, 0.37, 2.5):
            z = StadiumRegion(k=1.0, A=radius, n=1).sample(17)
            dists = []
            for w in (z, np.conj(z)):
                try:
                    dists.append(interval_distance(psi.eval_complex(w)))
                except OverflowEvalError:
                    dists.append(None)
            if dists[0] is None or dists[1] is None:
                assert dists[0] is None and dists[1] is None
            else:
                assert np.array_equal(dists[0], dists[1])

    # ln(0*t-1) is the constant i pi: its operand lies on the cut of ln at
    # every point, but takes one value there, so the node is analytic
    @pytest.mark.parametrize("src", ["(-1)^t", "ln(0*t-1)"])
    def test_rejected_trees_keep_the_full_template(self, src):
        psi = parse(src)
        assert not psi.is_conjugate_exact()
        rep = check_ek(psi, 1.0, [0.5], 3, density=17)
        assert [lv.worst_dist for lv in rep.levels] == full_sample_maxima(psi, 1.0, 0.5, 3, 17)

    def test_powers_from_100_take_half_curves(self, monkeypatch):
        psi = parse("(0*t-2)^101*t")
        counts = count_eval_points(monkeypatch, psi)
        rep = check_ek(psi, 1.0, [0.5], 3, density=17)
        assert sum(counts) == 3 * (boundary_size(17) // 2 + 1)
        assert [lv.worst_dist for lv in rep.levels] == full_sample_maxima(psi, 1.0, 0.5, 3, 17)

    @pytest.mark.parametrize("exponent", [99, 100, 101])
    def test_exponents_from_100_keep_the_reflection(self, exponent):
        # numpy multiplies out integer powers below 100, and _eval_pow larger
        # ones by repeated squaring instead of numpy's complex logarithm, so
        # every one commutes with conjugation
        psi = parse(f"(0*t-2)^{exponent}*t")
        z = StadiumRegion(k=1.0, A=0.37, n=1).sample(128)
        assert np.array_equal(interval_distance(psi.eval_complex(z)),
                              interval_distance(psi.eval_complex(np.conj(z))))
        assert psi.is_conjugate_exact()


# The largest fattening scale at which sin(t), the deviating map of both
# built-in examples, passes check_ek.
SINE_SCALE = 0.9


@pytest.fixture(scope="module")
def quartic():
    p = load_problem(example2_doc())
    rep = conditions.analyze(p)
    return p, rep


class TestOmegaSequence:
    @pytest.mark.parametrize("tau", [None, SINE_SCALE])
    def test_runs_no_inclusion_check(self, quartic, monkeypatch, tau):
        p, rep = quartic
        want = omega_sequence(p, 0.0, rep.r0, 3, tau)

        def forbidden(*args, **kwargs):
            raise AssertionError("omega_sequence ran check_ek")

        monkeypatch.setattr(gevrey, "check_ek", forbidden)
        assert omega_sequence(p, 0.0, rep.r0, 3, tau) == want
        assert want.tau_candidate == tau
        assert want.nu_proxy == min(want.mu, tau or math.inf) / 2.0

    def test_a_sup_reaches_the_stadium_tip(self, quartic):
        # |a| = 2 ln2 |2^t| peaks at the cap tip t = 1 + mu/2 = 1.5
        p, rep = quartic
        om = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
        assert om.a_sup == pytest.approx(2.0 * math.log(2.0) * 2.0**1.5, rel=1e-14, abs=0)

    def test_first_value_is_one(self, quartic):
        p, rep = quartic
        om = omega_sequence(p, 0.3, rep.r0, 5, SINE_SCALE)
        assert om.values[0] == 1.0

    def test_zero_scale_collapses(self, quartic):
        p, rep = quartic
        om = omega_sequence(p, 0.0, rep.r0, 10, SINE_SCALE)
        const = om.a_sup * p.P.majorant_eval(rep.r0) + om.source_sup
        assert all(v == pytest.approx(const, rel=1e-15) for v in om.values[1:])

    def test_bounded_by_envelope_constant(self, quartic):
        p, rep = quartic
        om0 = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
        s = 1.0 / (2.0 * om0.C_est)
        om = omega_sequence(p, s, rep.r0, 50, SINE_SCALE)
        assert max(om.values) <= om.C_est
        # independent recursion oracle from the reported sups
        w, oracle = 1.0, [1.0]
        for n in range(1, 50):
            w = om.a_sup * p.P.majorant_eval(rep.r0 + s * n ** (-1.0) * w) + om.source_sup
            oracle.append(w)
        assert np.allclose(oracle, om.values, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("change,message", [
        ({"a": "0.1/(t-1.2)"}, "a is not analytic .*: pole of 0.1/\\(t-1.2\\)"),
        ({"b": "sqrt(1.3-t)"}, "b is not analytic .*: cut of sqrt\\(1.3-t\\)"),
    ], ids=["a", "b"])
    def test_singular_data_are_named(self, change, message):
        # mu = 1: the stadium of radius 0.5 holds the pole at 1.2 and the
        # branch point at 1.3
        p = load_problem({**example2_doc(), **change, "mu": 1.0})
        with pytest.raises(GevreyError, match=message):
            omega_sequence(p, 0.0, 0.1, 3, None)
        # with mu = 0.2 both lie outside
        p = load_problem({**example2_doc(), **change, "mu": 0.2})
        assert omega_sequence(p, 0.0, 0.1, 3, None).mu == 0.2

    @pytest.mark.parametrize("change,half", [
        ({}, False), ({"a": "0.5*cos(t)+t^101", "b": "0.01*exp(t)"}, True),
    ], ids=["example2", "entire"])
    def test_half_curve_gives_the_whole_curve_report(self, monkeypatch, change, half):
        # example2's 2^t is not conjugate-exact: its whole mu/2 boundary is
        # evaluated; entire data with literal powers take one point of each
        # conjugate pair, and the sup norms of the whole curve
        p = load_problem({**example2_doc(), **change})
        counts = []
        original = Expr.eval_complex

        def counting(self, z):
            counts.append(np.size(z))
            return original(self, z)

        monkeypatch.setattr(Expr, "eval_complex", counting)
        got = omega_sequence(p, 0.1, 0.1, 20, SINE_SCALE)
        size = boundary_size(256)
        assert counts == [size // 2 + 1 if half else size] * 2
        monkeypatch.setattr(Expr, "is_conjugate_exact", lambda self: False)
        want = omega_sequence(p, 0.1, 0.1, 20, SINE_SCALE)
        assert counts[2:] == [size] * 2
        assert repr(got) == repr(want)

    def test_envelope_constant_floor(self, quartic):
        p, rep = quartic
        om = omega_sequence(p, 0.0, rep.r0, 2, SINE_SCALE)
        assert om.C_est >= max(2.0 / om.nu_proxy, 1.0)

    @pytest.mark.parametrize("doc", [example1_doc, example2_doc])
    def test_envelope_constant_is_its_value_at_one(self, doc):
        # the envelope over max(x, 1)^N0 on [0, 2] peaks at x = 1; example2's
        # value there is above the floor 2/nu and its values at 0 and 2
        p = load_problem(doc())
        r0 = conditions.analyze(p).r0
        om = omega_sequence(p, 0.0, r0, 1, SINE_SCALE)
        at_one = om.a_sup * p.P.majorant_eval(r0 + 1.0) + om.source_sup
        assert om.C_est == max(at_one, 2.0 / om.nu_proxy, 1.0)

    @pytest.mark.parametrize("s,r0", [(-0.1, 0.1), (0.0, -0.5), (math.nan, 0.1), (0.0, math.nan),
                                      (math.inf, 0.1), (0.0, math.inf)])
    def test_negative_scale_or_radius_is_rejected(self, quartic, s, r0):
        # an infinite s or r0 would give nan levels or a nan C_est: the
        # majorant at inf is nan (Horner starts from 0 inf)
        with pytest.raises(GevreyError, match="s and r0 must be >= 0"):
            omega_sequence(quartic[0], s, r0, 3, SINE_SCALE)

    @pytest.mark.parametrize("n_max,message", [
        (0, "n_max must be in \\[1, inf\\]"),
        (-5, "n_max must be in \\[1, inf\\]"),
        (2.5, "n_max must be an integer, got 2.5"),
        (True, "n_max must be an integer, got True"),
    ])
    def test_level_count_must_be_a_positive_integer(self, quartic, n_max, message):
        with pytest.raises(GevreyError, match=message):
            omega_sequence(quartic[0], 0.0, 0.1, n_max, SINE_SCALE)

    @pytest.mark.parametrize("tau", [0.0, -0.5, math.nan, math.inf])
    def test_non_positive_or_non_finite_tau_is_rejected(self, quartic, tau):
        # 0 raised ZeroDivisionError, a negative tau gave a negative nu_proxy
        # and nan dropped out of min(mu, nan)
        with pytest.raises(GevreyError, match="tau_candidate must be None or positive and finite"):
            omega_sequence(quartic[0], 0.0, 0.1, 1, tau)


class TestStadiumInclusionProbe:
    def test_zero_start_has_zero_ratio(self):
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sol = picard.solve(p, rep, keep_iterates=True)
        om = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
        s = 1.0 / (2.0 * om.C_est)
        probe = stadium_inclusion_probe(
            sol.iterates, rep.r0, p.k, s, om.C_est, range(1, 9)
        )
        assert probe.levels[0].ratio == 0.0
        assert probe.all_within
        assert probe.s_used <= s

    def test_identity_forced_instance(self):
        p = load_problem(
            {"k": 1.0, "d": 0.0, "c": 0.0, "P": [0.0, 0.0, 1.0],
             "a": "0", "b": "cos(pi*t/2)*pi/2", "psi": "t"}
        )
        sol = picard.solve(p, force=True, keep_iterates=True)
        # a forced solve has no ball; the solution sin(pi t/2) takes its
        # values in [-1, 1], and a narrower interval fails the probe
        probe = stadium_inclusion_probe(sol.iterates, 1.0, 1.0, 0.2, 2.0, range(1, 4))
        assert probe.all_within
        assert not stadium_inclusion_probe(sol.iterates, 0.5, 1.0, 0.2, 2.0, range(1, 4)).all_within

    @pytest.mark.parametrize("r0", [math.inf, math.nan])
    def test_non_finite_radius_is_rejected(self, r0):
        # half_width = inf would measure the distance to the whole real line
        with pytest.raises(GevreyError, match="r0 finite"):
            stadium_inclusion_probe([ChebFun([0.0])] * 2, r0, 1.0, 0.1, 2.0, range(1, 3))

    def test_negative_radius_is_rejected(self):
        with pytest.raises(GevreyError, match="r0 finite and >= 0"):
            stadium_inclusion_probe([ChebFun([0.0])] * 2, -0.5, 1.0, 0.1, 2.0, range(1, 3))

    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_non_positive_order_is_rejected(self, k):
        # k = 0 raised ZeroDivisionError in the stadium radius s n^(-1/k)
        with pytest.raises(GevreyError, match="s and k must be positive"):
            stadium_inclusion_probe([ChebFun([0.0])] * 2, 0.5, k, 0.1, 2.0, range(1, 3))

    @pytest.mark.parametrize("C", [0.0, -1.0, math.inf, math.nan])
    def test_non_positive_or_non_finite_constant_is_rejected(self, C):
        # 0 raised ZeroDivisionError; -1 and inf gave every ratio <= 0, a pass
        with pytest.raises(GevreyError, match="C positive and finite"):
            stadium_inclusion_probe([ChebFun([0.0])] * 2, 0.5, 1.0, 0.1, C, range(1, 3))

    def test_half_curve_gives_the_whole_curve_report(self, monkeypatch):
        # an iterate has real coefficients, so the first half of each curve,
        # tips included, holds the worst distance of the whole curve
        p = load_problem(example2_doc())
        rep = conditions.analyze(p)
        sol = picard.solve(p, rep, keep_iterates=True)
        rng = np.random.default_rng(7)
        iterates = [*sol.iterates,
                    *(ChebFun(rng.standard_normal(d) * 0.99 ** np.arange(d)) for d in (2, 50, 2000))]
        counts = []
        original = ChebFun.eval_complex

        def counting(self, z):
            counts.append(np.size(z))
            return original(self, z)

        monkeypatch.setattr(ChebFun, "eval_complex", counting)
        n_range = range(1, len(iterates) + 1)
        probe = stadium_inclusion_probe(iterates, rep.r0, p.k, 0.3, 2.0, n_range)
        size = 4 * gevrey.PROBE_DENSITY + 2
        assert counts == [size // 2 + 1] * len(iterates)
        for lv in probe.levels:
            region = StadiumRegion(p.k, probe.s_used, lv.n)
            radius, pts = region.radius, region.sample(gevrey.PROBE_DENSITY)
            worst = np.max(interval_distance(original(iterates[lv.n - 1], pts), half_width=rep.r0))
            assert (lv.points, lv.worst_dist, lv.ratio) == (size, worst, worst / (2.0 * radius))

    def test_underflowing_radius_is_rejected(self):
        # at k = 0.005 the radius 0.5 * n^-200 of level 42 underflows to 0
        with pytest.raises(GevreyError, match="stadium radius 0.0 is not positive and finite"):
            stadium_inclusion_probe([ChebFun([0.0])] * 43, 0.1, 0.005, 0.5, 2.0, range(40, 44))

    def test_missing_iterates_rejected(self):
        with pytest.raises(GevreyError):
            stadium_inclusion_probe([ChebFun([0.0])], 0.1, 1.0, 0.1, 2.0, range(1, 5))

    @pytest.mark.parametrize("n_range", [[0], [-1, 2]])
    def test_levels_below_1_rejected(self, n_range, monkeypatch):
        def no_work(*args):
            raise AssertionError("the probe worked on a level below 1")

        monkeypatch.setattr(gevrey, "_stadium_radius", no_work)
        with pytest.raises(GevreyError, match="levels start at 1"):
            stadium_inclusion_probe([ChebFun([0.0])] * 3, 0.1, 1.0, 0.1, 2.0, n_range)

    @pytest.mark.parametrize("density", [8, 64, 128, 256])
    def test_point_one_plus_radius_bounds_the_ellipse_parameter(self, density):
        # a stadium that passes _fits_trusted lies inside the iterate's
        # validity ellipse at every probed point
        for radius in np.geomspace(1e-6, 50, 400):
            pts = StadiumRegion(k=1.0, A=radius, n=1).sample(density)
            assert np.max(ellipse_radius(pts)) <= ellipse_radius(1.0 + radius)


class TestDerivativeNorms:
    def test_exp_constant_norms(self):
        u = build(np.exp, tol=1e-15)
        dn = derivative_norms(u, 6)
        for v, fl in zip(dn.values, dn.flagged):
            assert not fl
            assert v == pytest.approx(math.e, rel=1e-6)

    def test_linear(self):
        dn = derivative_norms(ChebFun([0.0, 1.0]), 4)
        assert dn.values[0] == 1.0
        assert all(v == 0.0 for v in dn.values[1:])
        assert all(dn.flagged[1:])

    def test_simple_pole_outside_gives_factorials(self):
        u = build(lambda t: 1.0 / (2.0 - t), tol=1e-15)
        dn = derivative_norms(u, 6)
        for j, (v, fl) in enumerate(zip(dn.values, dn.flagged), start=1):
            assert not fl
            assert v == pytest.approx(math.factorial(j), rel=1e-4)

    def test_cap(self):
        for n_max in (13, 0, -3, 2.5, True):
            with pytest.raises(GevreyError):
                derivative_norms(ChebFun([0.0, 1.0]), n_max)

    @pytest.mark.parametrize("case", ["constant", "linear", "T40", *range(0, 601, 40), 1, 2, 17])
    def test_norms_lie_between_a_dense_maximum_and_the_coefficient_sum(self, case):
        if case == "constant":  # every derivative row is zero
            c = np.array([0.7])
        elif case == "linear":
            c = np.array([0.0, 1.0])
        elif case == "T40":  # |T_40| has 41 equal maxima, more than 32
            c = np.eye(41)[40]
        else:
            rng = np.random.default_rng(case)
            c = rng.standard_normal(case + 1) * 10.0 ** (-15.0 * np.arange(case + 1) / max(case, 1))
        dn = derivative_norms(ChebFun(c), 12)
        x = np.cos(np.linspace(0.0, np.pi, 20001))
        for j, v in enumerate(dn.values, start=1):
            der = npcheb.chebder(c, j) if j < len(c) else np.zeros(1)
            bound = picard.coeff_bound(der)
            dense = np.max(np.abs(npcheb.chebval(x, der)))
            assert dense - 1e-13 * bound <= v <= bound, (j, dense, v, bound)

    def test_sup_norms_take_every_row_with_more_than_32_equal_maxima(self):
        # T_40, -T_40 and 2 T_60 beside 0.5 T_1, whose maxima are its two ends
        rows = np.zeros((4, 61))
        rows[0, 40], rows[1, 40], rows[2, 60], rows[3, 1] = 1.0, -1.0, 2.0, 0.5
        assert _sup_norms(rows).tolist() == pytest.approx([1.0, 1.0, 2.0, 0.5], abs=1e-15)
        assert ChebFun(rows[2]).sup_norm() == pytest.approx(2.0, abs=1e-15)

    def test_batched_norms_equal_one_row_runs_on_example2(self, quartic):
        p, rep = quartic
        u = picard.solve(p, rep).u
        rows, cur = np.zeros((MAX_DERIVATIVES, u.degree)), u  # as derivative_norms pads them
        for r in rows:
            cur = cur.differentiate()
            r[: len(cur.coeffs)] = cur.coeffs
        want = [float(_sup_norms(rows[j : j + 1])[0]) for j in range(MAX_DERIVATIVES)]
        assert derivative_norms(u, MAX_DERIVATIVES).values == want

    def test_one_sup_norm_call(self, monkeypatch):
        # u's own norm; the twelve derivative rows go through one _sup_norms
        calls = []
        sup_norm = ChebFun.sup_norm
        monkeypatch.setattr(ChebFun, "sup_norm", lambda u: calls.append(u) or sup_norm(u))
        u = build(np.exp)
        derivative_norms(u, 12)
        assert calls == [u]


class TestGevreyOrderEstimate:
    def test_constant_sequence_flat(self):
        est = gevrey_order_estimate([math.e] * 12)
        assert abs(est.slope) <= 0.05
        assert est.classification == "analytic-like"

    def test_factorial_near_unit_slope(self):
        est = gevrey_order_estimate([float(math.factorial(j)) for j in range(1, 13)])
        assert est.slope == pytest.approx(1.0, abs=0.15)
        assert est.classification == "analytic-like"

    def test_square_exponent_recovers_unit_index(self):
        est = gevrey_order_estimate([float(j) ** (2 * j) for j in range(1, 13)])
        assert est.k_hat == pytest.approx(1.0, abs=0.05)
        assert est.classification == "gevrey"

    def test_index_recovery_within_5_percent(self):
        for k in (0.5, 1.0, 2.0):
            seq = [float(j) ** ((1 + 1 / k) * j) for j in range(1, 13)]
            est = gevrey_order_estimate(seq)
            assert est.k_hat == pytest.approx(k, rel=0.05)

    def test_too_few_usable_unresolved(self):
        est = gevrey_order_estimate([1.0, 0.0, 0.0, 0.0, 0.0])
        assert est.classification == "unresolved"
        assert est.slope is None

    def test_unresolved_report_lists_flagged(self):
        est = gevrey_order_estimate([1.0, 2.0, 3.0], (False, True, False))
        assert est.classification == "unresolved"
        assert (est.slope, est.k_hat, est.B) == (None, None, None)
        assert est.flagged == [False, True, False]
        assert est.usable_indices == [3]

    def test_fits_derivative_norms(self):
        u = build(np.exp, tol=1e-15)
        dn = derivative_norms(u, 12)
        est = gevrey_order_estimate(dn.values, dn.flagged)
        assert est.classification == "analytic-like"
        assert abs(est.slope) <= 0.05


class TestExamplesOmegaBound:
    def test_both_examples_bounded_to_200(self):
        for doc in (example1_doc(), example2_doc()):
            p = load_problem(doc)
            rep = conditions.analyze(p)
            om0 = omega_sequence(p, 0.0, rep.r0, 1, SINE_SCALE)
            s = 1.0 / (2.0 * om0.C_est)
            om = omega_sequence(p, s, rep.r0, 200, SINE_SCALE)
            assert max(om.values) <= om.C_est
