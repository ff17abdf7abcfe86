"""Closed-form analytic expressions for the data functions.

The input language is a small infix grammar over a single variable ``t``:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative, binds above unary minus
    atom   := NUMBER | 'pi' | 'e' | 't' | NAME '(' expr ')' | '(' expr ')'

Builtin functions: sin, cos, sinh, cosh, exp, ln, sqrt, abs.  Numbers accept
plain decimal and scientific notation; ``pi`` and ``e`` parse to numbers.
Whitespace is insignificant.

Parsed expressions are immutable; evaluation is pure and vectorised over
numpy arrays, at real or complex points.  A subtree free of ``t`` is
computed once per evaluation, as one scalar.  An exponent that is an
integer literal, of any size, is an integer power in every evaluation and
analysis, complex ones from |n| = 100 on by repeated squaring.  Complex
evaluation uses principal branches, with real values (negated ones too) on
the upper lip of each cut, and rejects ``abs``.  ``Expr.singular_nodes``
lists, innermost first, the poles and branch cuts that can keep a tree from
being analytic on a region.  Entire trees with non-negative integer-literal
exponents commute with conjugation bit for bit (``Expr.is_conjugate_exact``),
and ``Expr.parity`` shows some of them odd or even under z -> -conj(z).
A DomainError quotes the failing operation or call as the user wrote it: the
parser keeps each node's source text, and there is no printer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr",
    "parse",
    "ExprError",
    "ParseError",
    "EvalError",
    "DomainError",
    "OverflowEvalError",
]

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp", "ln", "sqrt", "abs")
ENTIRE_FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp")
CONSTANTS = {"pi": math.pi, "e": math.e}

class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error with a 0-based character offset."""

    def __init__(self, offset, reason):
        self.offset = offset
        self.reason = reason
        super().__init__(f"syntax error at offset {offset}: {reason}")


class EvalError(ExprError):
    pass


class DomainError(EvalError):
    """Evaluation left the domain of an operation (quotes the offending
    node's source text)."""


class OverflowEvalError(EvalError):
    """A non-finite intermediate or final value was produced."""


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: object


# BinOp and Call keep their source text, which DomainError messages quote;
# it takes no part in equality.


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    src: str = field(default="", compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    src: str = field(default="", compare=False)


# --- tokenizer ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


def _tokenize(src):
    toks = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(pos, f"unexpected character {src[pos]!r}")
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return toks


# --- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, src):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.end = 0  # offset just past the last token read

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.i += 1
            self.end = tok[2] + len(tok[1])
        return tok

    def _offset(self):
        tok = self._peek()
        return tok[2] if tok is not None else len(self.src)

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            if tok[1] == ")":
                raise ParseError(tok[2], "unbalanced parenthesis")
            raise ParseError(tok[2], f"unexpected token {tok[1]!r}")
        return node

    def _text(self, start):
        return self.src[start : self.end]

    def expr(self):
        return self._infix(("+", "-"), self.term)

    def term(self):
        return self._infix(("*", "/"), self.unary)

    def _infix(self, ops, operand):
        """operand (op operand)* with each op in ops, grouped to the left."""
        start = self._offset()
        node = operand()
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in ops:
                return node
            self._next()
            node = BinOp(tok[1], node, operand(), self._text(start))

    def unary(self):
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        start = self._offset()
        base = self.atom()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            self._next()
            return BinOp("^", base, self.unary(), self._text(start))
        return base

    def atom(self):
        tok = self._next()
        if tok is None:
            raise ParseError(len(self.src), "unexpected end of input")
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "t":
                return Var()
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            if text in FUNCTIONS:
                nxt = self._peek()
                if nxt is None or nxt[1] != "(":
                    raise ParseError(self._offset(), f"expected '(' after {text!r}")
                self._next()
                arg = self.expr()
                self._expect_close()
                return Call(text, arg, self._text(pos))
            raise ParseError(pos, f"unknown identifier {text!r}")
        if text == "(":
            node = self.expr()
            self._expect_close()
            return node
        raise ParseError(pos, f"unexpected token {text!r}")

    def _expect_close(self):
        tok = self._peek()
        if tok is None or tok[1] != ")":
            raise ParseError(self._offset(), "unbalanced parenthesis")
        self._next()


# --- evaluation -----------------------------------------------------------


def _int_literal_exponent(node):
    """The value of a number literal, negated any number of times, if it is
    an integer, else None."""
    if isinstance(node, Neg):
        n = _int_literal_exponent(node.child)
        return -n if n is not None else None
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    return None


def _eval(node, t, cplx):
    """Values of node at the points t: one scalar of t's kind when node
    holds no t, else an array.  No node writes into an array, so a Var hands
    back t itself and every other node a new value."""
    if isinstance(node, Num):
        # of t's kind: with a Python float, complex sqrt(-1) would be nan
        return t.dtype.type(node.value)
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        # 0 - x, not -x: the latter turns the +0 imaginary part of a real
        # value into -0, which numpy puts on the lower lip of a branch cut
        child = _eval(node.child, t, cplx)
        return 0.0 - child if cplx else -child
    if isinstance(node, Call):
        arg = _eval(node.arg, t, cplx)
        return _eval_call(node, arg, cplx)
    if isinstance(node, BinOp):
        left = _eval(node.left, t, cplx)
        op = node.op
        if op == "^":
            return _eval_pow(node, left, t, cplx)
        right = _eval(node.right, t, cplx)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if np.any(right == 0):
                raise DomainError(f"division by zero in '{node.src}'")
            return left / right
    raise TypeError(f"not an AST node: {node!r}")


def _eval_call(node, arg, cplx):
    fn = node.func
    if fn == "abs":
        if cplx:
            raise DomainError(
                f"'{node.src}': abs is not supported in complex evaluation"
            )
        return np.abs(arg)
    if fn == "ln":
        if cplx:
            if np.any(arg == 0):
                raise DomainError(f"ln of zero in '{node.src}'")
        elif np.any(arg <= 0):
            worst = float(np.min(np.real(arg)))
            raise DomainError(
                f"ln of non-positive value ({worst:g}) in '{node.src}'"
            )
        return np.log(arg)
    if fn == "sqrt":
        if not cplx and np.any(arg < 0):
            worst = float(np.min(np.real(arg)))
            raise DomainError(
                f"sqrt of negative value ({worst:g}) in '{node.src}'"
            )
        return np.sqrt(arg)
    return getattr(np, fn)(arg)


def _eval_pow(node, base, t, cplx):
    n = _int_literal_exponent(node.right)
    if n is not None:
        if n < 0 and np.any(base == 0):
            raise DomainError(f"zero base with negative exponent in '{node.src}'")
        if cplx and abs(n) >= 100:  # numpy would go through the logarithm
            return _power_by_squaring(base, n)
        # numpy's power of a scalar need not match its power of an array to
        # the last bit; a 0-d array takes the latter
        return np.asarray(base) ** n
    expo = _eval(node.right, t, cplx)
    if cplx:
        if np.any(base == 0):
            raise DomainError(f"zero base in '{node.src}'")
        return np.exp(expo * np.log(base))
    if np.any(base <= 0):
        worst = float(np.min(np.real(base)))
        raise DomainError(
            f"power with non-positive base ({worst:g}) and non-integer exponent "
            f"in '{node.src}'"
        )
    return np.power(base, expo)


def _power_by_squaring(base, n):
    """base**n by squaring over the bits of |n|, highest first, then a
    reciprocal for n < 0: the complex |n| >= 100 that numpy takes through
    the logarithm, where 1j**600 is 1 - 5.1e-14j."""
    out = base
    for bit in bin(abs(n))[3:]:
        out = out * out * base if bit == "1" else out * out
    return 1.0 / out if n < 0 else out


def _singular_nodes(node, out):
    """Append to out, innermost first, each node that is not entire in t, as
    (kind, node, operand g), and return whether node holds t: a division by
    g or a negative integer-literal power of g is a "pole" (analytic where g
    has no zero), and ln(g), sqrt(g) and every other power of g are a "cut"
    (analytic where g misses the principal cut (-inf, 0]).  Only an operand
    that holds t counts: a t-free one is a constant, so c^x = exp(x Log c)
    is entire.  abs is not listed; complex evaluation rejects it."""
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _singular_nodes(node.child, out)
    if isinstance(node, Call):
        has_t = _singular_nodes(node.arg, out)
        if has_t and node.func in ("ln", "sqrt"):
            out.append(("cut", node, node.arg))
        return has_t
    if isinstance(node, BinOp):
        left, right = _singular_nodes(node.left, out), _singular_nodes(node.right, out)
        if node.op == "/" and right:
            out.append(("pole", node, node.right))
        elif node.op == "^" and left:
            n = _int_literal_exponent(node.right)
            if n is None:
                out.append(("cut", node, node.left))
            elif n < 0:
                out.append(("pole", node, node.left))
        return left or right
    return False


def _symmetry(node):
    """None unless every node is holomorphic on all of C and commutes with
    conjugation bit for bit: numbers, t, unary minus, + - *, the entire
    builtins and non-negative integer-literal powers, chains of products.
    Else 1 (even), -1 (odd) or 0 (neither shown): t is odd, numbers even;
    unary minus keeps the parity, + and - keep one both sides share, *
    multiplies them; a power of an odd base is odd for an odd exponent,
    else even, of an even base even; sin and sinh keep their argument's
    parity, cos and cosh of an odd one are even, every entire builtin of an
    even one is.  Sound, not complete: exp(t) and t^2+t are neither."""
    if isinstance(node, Num):
        return 1
    if isinstance(node, Var):
        return -1
    if isinstance(node, Neg):
        return _symmetry(node.child)
    if isinstance(node, Call):
        inner = _symmetry(node.arg) if node.func in ENTIRE_FUNCTIONS else None
        if inner == -1:
            return {"sin": -1, "sinh": -1, "cos": 1, "cosh": 1}.get(node.func, 0)
        return inner
    if isinstance(node, BinOp):
        left = _symmetry(node.left)
        if node.op == "^":
            n = _int_literal_exponent(node.right)
            if left is None or n is None or n < 0:
                return None
            return -1 if left == -1 and n % 2 else abs(left)
        right = _symmetry(node.right)
        if left is None or right is None or node.op == "/":
            return None
        return left * right if node.op == "*" else left if left == right else 0
    return None


# --- public wrapper -------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """A parsed expression; immutable, safe for concurrent evaluation."""

    root: object
    src: str

    def eval_real(self, t):
        """Evaluate at real t (scalar or ndarray).  Rejects non-finite results."""
        return self._evaluate(t, float)

    def eval_complex(self, z):
        """Evaluate at complex z (scalar or ndarray) using principal branches.

        A real intermediate value lies on the upper lip of a branch cut
        (its imaginary part is +0, unary minus included), so ln(-0.5) and
        (-1)^0.5 are ln(0.5) + i pi and i."""
        return self._evaluate(z, complex)

    def _evaluate(self, t, kind):
        """Values at t as kind (float or complex), a kind for 0-d t."""
        arr = np.asarray(t, dtype=kind)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all(np.isfinite(arr)):
            raise DomainError("evaluation point is not finite")
        with np.errstate(all="ignore"):
            out = _eval(self.root, arr, kind is complex)
        if not np.all(np.isfinite(out)):
            raise OverflowEvalError(f"non-finite value while evaluating '{self.src}'")
        if np.ndim(out) == 0:  # a t-free tree: one value for every point
            return kind(out) if scalar else np.full(arr.shape, out)
        if scalar:
            return kind(out[0])
        # a bare t evaluates to the points themselves, maybe the caller's array
        return out.copy() if out is arr else out

    def singular_nodes(self):
        """The nodes that can keep the expression from being analytic on a
        region, innermost first (see `_singular_nodes`), as (kind, source
        text of the node, operand): kind is "pole" or "cut", and the operand
        is an Expr carrying this expression's source text, so an overflow
        while evaluating it names the whole expression.  An empty list
        means the tree is entire (or uses abs, which complex evaluation
        rejects)."""
        nodes = []
        _singular_nodes(self.root, nodes)
        return [(kind, node.src, Expr(operand, self.src)) for kind, node, operand in nodes]

    def is_conjugate_exact(self):
        """Whether eval_complex(conj(z)) is conj(eval_complex(z)) up to the
        signs of zeros, so the two have the same real and imaginary
        magnitudes bit for bit: a tree of entire operations whose exponents
        are non-negative integer literals (see `_symmetry`)."""
        return _symmetry(self.root) is not None

    def parity(self):
        """1 (even) or -1 (odd) when eval_complex(-conj(z)) is
        parity * conj(eval_complex(z)) up to the signs of zeros, so the two
        have the same real and imaginary magnitudes bit for bit; 0 when the
        tree is not conjugate-exact or `_symmetry` shows neither."""
        return _symmetry(self.root) or 0


def parse(src):
    """Parse an expression string into an Expr.

    Raises ParseError with a 0-based character offset and a one-line reason
    on malformed input.
    """
    if not isinstance(src, str) or src.strip() == "":
        raise ParseError(0, "empty expression")
    root = _Parser(src).parse()
    return Expr(root=root, src=src)
