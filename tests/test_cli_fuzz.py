"""Fuzz test of the exit-code contract: every problem document ends in 0, 2,
3 or 4 from check, solve and ek, and never in an exception.  Every quoted
expression in an error line is text the document holds."""

import contextlib
import io
import json
import math
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fdekit import cli  # noqa: E402

ATOMS = st.sampled_from(["t", "0", "1", "2", "0.5", "-1", "pi", "0.001", "100", "1e300"])
GAP = st.sampled_from(["", " ", "  "])


def _spaced(draw, *parts):
    """The parts joined, each one followed by a drawn run of spaces."""
    return "".join(part + draw(GAP) for part in parts)


@st.composite
def _call(draw, inner, name):
    return _spaced(draw, name, "(", draw(inner), ")")


@st.composite
def _infix(draw, inner, op):
    return _spaced(draw, "(", draw(inner), ")", op, "(", draw(inner), ")")


EXPRESSIONS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        *(_call(inner, f) for f in ("abs", "ln", "sqrt", "sin")),
        *(_infix(inner, op) for op in ("/", "^", "*", "+", "-")),
    ),
    max_leaves=6,
)
# the quoted node in a DomainError line, e.g. "ln of zero in 'ln( t)'"
QUOTED = re.compile(r"^error: (?:.* in '([^']*)'|'([^']*)': abs is not supported)")

SMALL = st.floats(-2.0, 2.0) | st.integers(-3, 3)
# values that are out of range or not numbers for every numeric field
ODD = st.sampled_from(
    [math.nan, math.inf, -math.inf, -1, 3.0, 0, 1e-308, 10**400, True, "1", None, [1]]
)

VALID_SOLVER = st.fixed_dictionaries(
    {
        "tol": st.floats(1e-14, 1e-2),
        "max_iter": st.integers(1, 20),
        "cheb_tol": st.floats(1e-15, 1e-3),
        "max_degree": st.integers(16, 256),
    }
)
COMMON_INVALID = [None, True, "abc", [1], -1, 0, math.nan]
INVALID_SOLVER = {
    "tol": COMMON_INVALID + [math.inf],
    "max_iter": COMMON_INVALID + [2.5, math.inf],
    "cheb_tol": COMMON_INVALID + [0.1, 1e-16],
    "max_degree": COMMON_INVALID + [8, 100.5, 32769, 1e9],
}


PAPER_P = [[0, 0, 1], [0, 0, 0, 1], [-1, 0.125, -1, 0, 1]]


def _scaled(factor):
    # keeps many drawn problems inside the hypothesis window
    return lambda e: f"{factor!r}*sqrt(abs({e}))*sin({e})"


@st.composite
def documents(draw):
    """Mostly well-formed problems with data from the grammar; half of them
    get one field replaced by an out-of-range or ill-typed value."""
    doc = {
        "k": draw(st.floats(0.1, 3.0)),
        "d": draw(st.floats(-1.0, 1.0)),
        "c": draw(st.floats(-0.05, 0.05)),
        "P": draw(st.lists(SMALL, min_size=1, max_size=5) | st.sampled_from(PAPER_P)),
        "a": draw(EXPRESSIONS | EXPRESSIONS.map(_scaled(0.02))),
        "b": draw(EXPRESSIONS | EXPRESSIONS.map(_scaled(0.005))),
        "psi": draw(EXPRESSIONS | st.sampled_from(["t", "sin(t)", "t^2", "abs(t)"])),
        "solver": draw(VALID_SOLVER),
    }
    if draw(st.booleans()):
        doc["mu"] = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        key = draw(st.sampled_from(["k", "d", "c", "mu", "P", "P[]", "solver"]))
        if key == "solver":
            name = draw(st.sampled_from(sorted(INVALID_SOLVER)))
            doc["solver"][name] = draw(st.sampled_from(INVALID_SOLVER[name]))
        elif key == "P[]":
            doc["P"][draw(st.integers(0, len(doc["P"]) - 1))] = draw(ODD)
        else:
            doc[key] = draw(ODD | st.just([]))
    return doc


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(doc=documents())
def test_exit_code_contract(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "prob.json"
    path.write_text(json.dumps(doc))
    for command, *flags in (["check"], ["solve"], ["ek", "--pmax", "3", "--density", "16"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), *flags])
        assert code in (0, 2, 3, 4), (command, doc)
        for line in err.getvalue().splitlines():
            quoted = QUOTED.match(line)
            if quoted:
                text = quoted.group(1) or quoted.group(2)
                assert any(text in doc[key] for key in ("a", "b", "psi")), (line, doc)
