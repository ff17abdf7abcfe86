import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdekit.expr import (
    ENTIRE_FUNCTIONS,
    FUNCTIONS,
    BinOp,
    DomainError,
    Num,
    OverflowEvalError,
    ParseError,
    Var,
    parse,
)


class TestParse:
    def test_power_tree_and_trivial_eval(self):
        e = parse("2^t")
        assert isinstance(e.root, BinOp) and e.root.op == "^"
        assert isinstance(e.root.left, Num) and e.root.left.value == 2.0
        assert isinstance(e.root.right, Var)
        assert e.eval_real(1.0) == 2.0

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as ei:
            parse("sin(t")
        assert ei.value.offset == 5
        assert "unbalanced parenthesis" in str(ei.value)

    def test_extra_close_paren(self):
        with pytest.raises(ParseError) as ei:
            parse("sin(t))")
        assert ei.value.offset == 6

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as ei:
            parse("2*foo(t)")
        assert ei.value.offset == 2
        assert "unknown identifier" in str(ei.value)

    @pytest.mark.parametrize("src,offset,reason", [
        ("2*", 2, "unexpected end of input"),
        ("sin t", 4, "expected '(' after 'sin'"),
        ("1 2", 2, "unexpected token '2'"),
        ("*2", 0, "unexpected token '*'"),
    ])
    def test_syntax_error_offset_and_reason(self, src, offset, reason):
        with pytest.raises(ParseError) as ei:
            parse(src)
        assert (ei.value.offset, ei.value.reason) == (offset, reason)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_bad_character(self):
        with pytest.raises(ParseError) as ei:
            parse("1 + $")
        assert ei.value.offset == 4

    def test_deterministic(self):
        assert parse("1+2*t").root == parse("1+2*t").root
        assert parse("1+2*t").root == parse("1 + 2*t").root  # source text is not compared

    def test_scientific_notation(self):
        assert parse("1.5e-3").eval_real(0.0) == 1.5e-3
        assert parse(".5").eval_real(0.0) == 0.5

    def test_constants(self):
        assert parse("pi").root == Num(math.pi) and parse("e").root == Num(math.e)
        assert parse("pi").eval_real(0.0) == math.pi
        assert parse("e").eval_real(0.0) == math.e


class TestEvalReal:
    def test_cosh_zero(self):
        assert parse("cosh(t)").eval_real(0.0) == 1.0

    def test_derived_arithmetic(self):
        e = parse("2*ln(2)*2^t")
        assert e.eval_real(0.0) == pytest.approx(2 * math.log(2), abs=1e-15)
        assert e.eval_real(1.0) == pytest.approx(4 * math.log(2), abs=1e-15)

    def test_division_by_zero(self):
        with pytest.raises(DomainError, match="division by zero"):
            parse("1/t").eval_real(0.0)

    def test_ln_domain_error_names_node(self):
        with pytest.raises(DomainError, match="ln"):
            parse("ln(t)").eval_real(-1.0)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            parse("sqrt(t)").eval_real(-0.5)

    def test_overflow(self):
        with pytest.raises(OverflowEvalError):
            parse("exp(exp(exp(exp(t))))").eval_real(1.0)
        with pytest.raises(OverflowEvalError):
            parse("cosh(1e6*t)").eval_real(1.0)

    def test_negative_base_integer_literal_power(self):
        # t^3 with t < 0 must work (repeated multiplication)
        assert parse("t^3").eval_real(-2.0) == -8.0
        assert parse("t^2").eval_real(-3.0) == 9.0
        assert parse("(-2)^2").eval_real(0.0) == 4.0
        assert parse("t^600").eval_real(-0.5) == 0.5**600  # any size

    def test_t_free_exponents_agree_with_their_numpy_operation(self):
        # a real exponent free of t is one scalar, which numpy takes through
        # sqrt, square and reciprocal: every power of one rule, bit for bit
        t = np.random.default_rng(5).uniform(0.01, 1.0, 100_000)
        assert np.array_equal(parse("t^0.5").eval_real(t), np.sqrt(t))
        assert np.array_equal(parse("(t+1)^(1+1)").eval_real(t), np.square(t + 1.0))
        assert np.array_equal(parse("t^(0-1)").eval_real(t), 1.0 / t)

    def test_negative_base_noninteger_power_rejected(self):
        with pytest.raises(DomainError):
            parse("t^0.5").eval_real(-1.0)

    def test_vectorised(self):
        t = np.linspace(-1, 1, 7)
        out = parse("t^2 + 1").eval_real(t)
        assert out.shape == t.shape
        assert np.allclose(out, t**2 + 1, rtol=0, atol=0)

    def test_abs_real_ok(self):
        assert parse("abs(t)").eval_real(-0.25) == 0.25

    def test_t_free_subtrees_are_evaluated_once(self, monkeypatch):
        shapes, log = [], np.log

        def spy(x):
            shapes.append(np.shape(x))
            return log(x)

        monkeypatch.setattr(np, "log", spy)
        t = np.linspace(-1.0, 1.0, 4097)
        out = parse("2*ln(2)*2^t").eval_real(t)
        assert shapes == [()]
        assert np.array_equal(out, 2 * math.log(2) * 2.0**t)


class TestEvalComplex:
    def test_sin_i(self):
        v = parse("sin(t)").eval_complex(1j)
        assert v == pytest.approx(complex(0.0, math.sinh(1.0)), abs=1e-14)

    def test_numbers_take_the_complex_kind(self):
        # a real -1 would make sqrt nan
        assert parse("sqrt(-1)*t").eval_complex(0.5) == 0.5j

    def test_exp_zero(self):
        assert parse("exp(t)").eval_complex(0j) == 1.0 + 0j

    def test_ln_principal_branch(self):
        v = parse("ln(t)").eval_complex(-1.0 + 0j)
        assert v == pytest.approx(complex(0.0, math.pi), abs=1e-15)

    def test_abs_rejected(self):
        with pytest.raises(DomainError, match="abs"):
            parse("abs(t)").eval_complex(0.5 + 0j)

    def test_power_principal_branch(self):
        v = parse("2^t").eval_complex(1j)
        assert v == pytest.approx(np.exp(1j * math.log(2)), abs=1e-15)

    def test_large_integer_powers_are_multiplied_out(self):
        # through numpy's logarithm route these were 1 - 5.1e-14j and inexact
        assert parse("t^600").eval_complex(1j) == 1.0
        v = parse("(0*t-2)^101").eval_complex(np.array([0.5, -0.25j]))
        assert v.real.tolist() == [-(2.0**101)] * 2 and v.imag.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [-99, -3, 2, 57, 99])
    def test_integer_powers_below_100_are_numpys(self, n):
        z = np.array([0.3 + 0.9j, -1.1 + 0.2j, 0.7 - 0.7j])
        assert np.array_equal(parse(f"t^{n}").eval_complex(z), z**n)

    @pytest.mark.parametrize("n", [100, 101, 257, 600, -100, -333])
    def test_large_integer_powers_against_mpmath(self, n):
        # within |n| eps relative of 50-digit values (0.41 |n| eps measured;
        # the logarithm route reaches 1.5 |n| eps)
        mpmath.mp.dps = 50
        rng = np.random.default_rng(abs(n))
        z = rng.uniform(0.5, 1.5, 50) * np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
        for zi, vi in zip(z, parse(f"t^{n}").eval_complex(z)):
            want = mpmath.mpc(zi.real, zi.imag) ** n
            err = abs(mpmath.mpc(vi.real, vi.imag) - want) / abs(want)
            assert err <= abs(n) * np.finfo(float).eps

    def test_negated_values_stay_on_the_upper_lip_of_the_cut(self):
        # unary minus must not turn a real value's +0 imaginary part into -0
        assert parse("(-1)^0.5").eval_complex(0.0) == parse("(0-1)^0.5").eval_complex(0.0)
        assert parse("(-1)^0.5").eval_complex(0.0).imag == 1.0
        assert parse("ln(-t)").eval_complex(0.5) == complex(-math.log(2.0), math.pi)
        assert parse("sqrt(-t)").eval_complex(np.array([0.25, 4.0])).tolist() == [0.5j, 2j]
        # real evaluation keeps the sign of a negated zero
        assert math.copysign(1.0, parse("-t").eval_real(0.0)) == -1.0


class TestInvariants:
    SOURCES = [
        "2^t",
        "2*ln(2)*2^t",
        "sin(t)*cosh(t) - t^3/8",
        "exp(t/2) + cos(3*t)",
        "(t^2+1)/(t^2+2)",
        "sqrt(t^2+1)",
        "-t^4 + pi*t",
        "sinh(t)/e",
    ]

    def test_complex_matches_real_within_4_ulps(self):
        rng = np.random.default_rng(20260808)
        pts = rng.uniform(-1.0, 1.0, 100)
        for src in self.SOURCES:
            e = parse(src)
            for t in pts:
                rv = e.eval_real(float(t))
                cv = e.eval_complex(complex(t))
                assert cv.imag == 0.0
                assert abs(cv.real - rv) <= 4 * math.ulp(max(abs(rv), 1e-300))

    # (source, complex evaluation, point, message): every DomainError quotes
    # the failing node's text exactly as written, spacing included
    DOMAIN_ERRORS = [
        ("2*t + 1/(t - 0.5)", False, 0.5, "division by zero in '1/(t - 0.5)'"),
        ("2*t + 1/(t - 0.5)", True, 0.5, "division by zero in '1/(t - 0.5)'"),
        ("ln(t-2)", False, 0.0, "ln of non-positive value (-2) in 'ln(t-2)'"),
        ("ln(t-2)", True, 2.0, "ln of zero in 'ln(t-2)'"),
        ("sqrt(t - 3)", False, 0.0, "sqrt of negative value (-3) in 'sqrt(t - 3)'"),
        ("(t-1)^-1", False, 1.0, "zero base with negative exponent in '(t-1)^-1'"),
        ("(t-1)^-1", True, 1.0, "zero base with negative exponent in '(t-1)^-1'"),
        ("t^-600", False, 0.0, "zero base with negative exponent in 't^-600'"),
        ("0^t", False, 0.5,
         "power with non-positive base (0) and non-integer exponent in '0^t'"),
        ("0^t", True, 0.5, "zero base in '0^t'"),
        ("abs(t)", True, 0.5, "'abs(t)': abs is not supported in complex evaluation"),
    ]

    @pytest.mark.parametrize("src,cplx,t,message", DOMAIN_ERRORS)
    def test_domain_error_quotes_source_verbatim(self, src, cplx, t, message):
        e = parse(src)
        with pytest.raises(DomainError) as ei:
            e.eval_complex(complex(t)) if cplx else e.eval_real(t)
        assert str(ei.value) == message
        assert message.split("'")[1] in src

    def test_precedence_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (float(v) for v in rng.uniform(0.1, 2.0, 3))
            lhs = parse(f"{a!r}+{b!r}*{c!r}").eval_real(0.0)
            rhs = parse(f"{a!r}+({b!r}*{c!r})").eval_real(0.0)
            assert lhs == rhs
            lhs = parse(f"{a!r}^{b!r}^{c!r}").eval_real(0.0)
            rhs = parse(f"{a!r}^({b!r}^{c!r})").eval_real(0.0)
            assert lhs == rhs

    def test_unary_minus_binds_below_power(self):
        assert parse("-2^2").eval_real(0.0) == -4.0

    def test_minus_and_divide_group_to_the_left(self):
        root = parse("8-4-2").root
        assert root == BinOp("-", BinOp("-", Num(8.0), Num(4.0)), Num(2.0))
        assert (root.left.src, root.src) == ("8-4", "8-4-2")
        root = parse("8 / 4/2").root
        assert (root.left.src, root.src) == ("8 / 4", "8 / 4/2")
        assert parse("8/4/2").eval_real(0.0) == 1.0
        assert parse("8-4-2").eval_real(0.0) == 2.0

    def test_zero_dimensional_input_gives_a_python_scalar(self):
        e = parse("t^2 + 1")
        for t in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(e.eval_real(t)) is float and e.eval_real(t) == 1.25
        for z in (0.5j, np.complex128(0.5j), np.array(0.5j)):
            assert type(e.eval_complex(z)) is complex and e.eval_complex(z) == 0.75
        assert isinstance(e.eval_real(np.array([0.5])), np.ndarray)

    @pytest.mark.parametrize("src", ["t", "2", "pi"])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_result_is_never_the_callers_array(self, src, kind):
        e = parse(src)
        evaluate = e.eval_real if kind is float else e.eval_complex
        for t in (np.array([0.25, -0.5], dtype=kind), np.array([[0.5], [1.0]], dtype=kind),
                  np.array(0.25, dtype=kind)):
            before = t.copy()
            out = evaluate(t)
            assert out is not t
            if t.ndim:
                assert out.shape == t.shape
                out[...] = 7.0
            else:
                assert type(out) is kind
            assert np.array_equal(t, before)


# Source -> whether the tree is entire (holomorphic on all of C).
# each source's singular nodes, innermost first, as (kind, node source); a
# tree without one is entire (abs aside, which complex evaluation rejects)
ENTIRE_CASES = {
    "1.5": [],
    "pi": [],
    "e": [],
    "t": [],
    "-(sin(t))": [],
    "t^2-0.5": [],
    "0.9*t": [],
    "t^0": [],
    "t^(3)": [],
    "0.5*sin(t)^3": [],
    "sin(0.5*t)^3": [],
    "0.5*cos(t)": [],
    "0.3*sinh(t)": [],
    "cosh(t)-1": [],
    "exp(t)-1": [],
    "exp(sin(t)*cos(t)) + pi*t^4": [],
    "t^-1": [("pole", "t^-1")],
    "t^2.5": [("cut", "t^2.5")],
    "t^t": [("cut", "t^t")],
    "t^(1+1)": [("cut", "t^(1+1)")],  # not a literal exponent
    "t^1000": [],  # an integer literal of any size is a power, not a cut
    "2^t": [],  # a t-free base: exp(t Log 2)
    "1/(t+3)": [("pole", "1/(t+3)")],
    "t/2": [],  # a t-free divisor
    "ln(t+3)": [("cut", "ln(t+3)")],
    "sqrt(t+2)": [("cut", "sqrt(t+2)")],
    "abs(t)": [],
    "sin(abs(t))": [],
    "exp(t) + 0*ln(t+3)": [("cut", "ln(t+3)")],
}
SINGULAR_CASES = {
    "t^-1000": [("pole", "t^-1000")],
    "(-1)^t": [],
    "ln(2)*t + sqrt(-1)": [],  # constants
    "2^(1/t)": [("pole", "1/t")],
    "t^(1/t)": [("pole", "1/t"), ("cut", "t^(1/t)")],
    "sqrt((t-1.04)/(t-1.05))": [("pole", "(t-1.04)/(t-1.05)"),
                                ("cut", "sqrt((t-1.04)/(t-1.05))")],
    "1/(0*t)": [("pole", "1/(0*t)")],
}


@pytest.mark.parametrize("src,nodes", ENTIRE_CASES.items(), ids=ENTIRE_CASES.keys())
def test_is_entire(src, nodes):
    assert [(kind, text) for kind, text, _ in parse(src).singular_nodes()] == nodes


@pytest.mark.parametrize("src,nodes", SINGULAR_CASES.items(), ids=SINGULAR_CASES.keys())
def test_singular_nodes(src, nodes):
    assert [(kind, text) for kind, text, _ in parse(src).singular_nodes()] == nodes


def test_singular_node_operands():
    # each operand evaluates to the denominator, base or argument it names,
    # and carries the whole source, which an overflow message quotes
    psi = parse("sqrt((t-1.04)/(t-1.05)) + 2*ln(t^2 - 1)^-1")
    nodes = psi.singular_nodes()
    assert [(kind, text) for kind, text, _ in nodes] == [
        ("pole", "(t-1.04)/(t-1.05)"), ("cut", "sqrt((t-1.04)/(t-1.05))"),
        ("cut", "ln(t^2 - 1)"), ("pole", "ln(t^2 - 1)^-1")]
    assert all(g.src == psi.src for _, _, g in nodes)
    values = [g.eval_complex(2.0) for _, _, g in nodes]
    assert values == pytest.approx([0.95, 0.96 / 0.95, 3.0, math.log(3.0)], rel=1e-15)


# Entire sources with integer-literal exponents from 100 on, which numpy
# would take through the complex logarithm: _eval_pow squares them out, so
# their evaluation at conj(z) is conjugate to the last bit.
LARGE_EXPONENTS = ["(0*t-2)^101*t", "cos(e)^101*t", "t^100", "(0.3-1.2)^512"]
# entire trees outside the operations is_conjugate_exact accepts: a t-free
# base, a division by a constant, abs
ENTIRE_NOT_EXACT = ["2^t", "(-1)^t", "t/2", "abs(t)", "sin(abs(t))"]


@pytest.mark.parametrize("src", [*ENTIRE_CASES, *LARGE_EXPONENTS, "(0*t-2)^99*t", "(-1)^t"])
def test_is_conjugate_exact(src):
    exact = parse(src).is_conjugate_exact()
    entire = not parse(src).singular_nodes()
    assert exact is (entire and src not in ENTIRE_NOT_EXACT)


def test_is_entire_for_every_builtin():
    for name in FUNCTIONS:
        psi = parse(f"{name}(t)")
        cut = [("cut", f"{name}(t)")] if name in ("ln", "sqrt") else []
        assert [(kind, text) for kind, text, _ in psi.singular_nodes()] == cut
        assert psi.is_conjugate_exact() is (name in ENTIRE_FUNCTIONS)


# (source, parity under z -> -conj(z)): 1 even, -1 odd, 0 when the rule
# shows neither; a tree outside the conjugate-exact operations has none,
# even when it is odd (t/2, ln(2)*t)
PARITY_CASES = {
    "t^2-0.5": 1, "0.5*cos(t)": 1, "0.5*sin(t)^3": -1, "exp(t)-1": 0, "t^2+t": 0,
    "t": -1, "-t": -1, "2": 1, "-(pi)": 1, "t^0": 1, "(t^2+t)^0": 0, "t*t": 1,
    "cosh(t)*t": -1, "sinh(sin(t))": -1, "cos(sinh(t))": 1, "exp(t^2)": 1, "exp(t)": 0,
    "sin(t)-t^3": -1, "sin(t)+1": 0, "cos(t+1)": 0, "(0*t-2)^101*t": 0, "(t^3)^101": -1,
    "t/2": 0, "ln(2)*t": 0, "2^t": 0, "t^-1": 0, "sqrt(t^2+1)": 0, "abs(t)": 0,
}


@pytest.mark.parametrize("src,parity", PARITY_CASES.items(), ids=PARITY_CASES.keys())
def test_parity_rule(src, parity):
    psi = parse(src)
    assert psi.parity() == parity
    if parity:
        assert psi.is_conjugate_exact()


# random points of the box [-1.6, 1.6] x [0, 0.7], which holds every
# default ek stadium, and points on its axes
_BOX = np.concatenate([
    np.random.default_rng(1729).uniform(-1.6, 1.6, 48)
    + 1j * np.random.default_rng(1730).uniform(0.0, 0.7, 48),
    [0.0, 1.6, -1.6, 0.7j, 1.0 + 0.25j, -1.0 + 0.25j]])


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(src=st.recursive(
    st.just("t") | st.sampled_from(["0.5", "2", "1.7", "pi", "0", "(0*t-2)", "-0.75"]),
    lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(ENTIRE_FUNCTIONS), inner),
        inner.map("-({})".format),
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*"), inner),
        st.builds("({})^{}".format, inner, st.sampled_from([0, 1, 2, 3, 4, 5, 101])),
    ),
    max_leaves=10,
))
@example(src="0.5*sin(t)^3")
@example(src="(t^3)^101")
@example(src="cos(sinh(t))*t^5")
def test_parity_is_bitwise_under_reflection(src):
    # an odd or even tree has the same |Re| and |Im| at -conj(z) as at z,
    # bit for bit; points where either value overflows are skipped
    psi = parse(src)
    if not psi.parity():
        return
    assert psi.is_conjugate_exact()
    for z in [_BOX, *_BOX[:, None]]:  # as one array, then point by point
        try:
            w, mirror = psi.eval_complex(z), psi.eval_complex(-np.conj(z))
        except OverflowEvalError:
            continue
        assert np.abs(w.real).tobytes() == np.abs(mirror.real).tobytes(), src
        assert np.abs(w.imag).tobytes() == np.abs(mirror.imag).tobytes(), src
