"""Solver and verification toolkit for functional differential equations

    y'(x) = a(x) * P(y(psi(x))) + b(x),    y(d) = c,    x in [-1, 1],

with a polynomial nonlinearity P and an analytic deviating argument psi.
The solution is constructed as the fixed point of the associated integral
operator on an invariant sup-norm ball; hypothesis checks, the contraction
iteration, and complex-analytic regularity diagnostics are exposed both as a
library and through the ``fdekit`` command line tool.
"""

from .chebfun import ChebFun, build
from .conditions import ConditionsReport, analyze
from .expr import Expr, parse
from .gevrey import (
    check_ek,
    derivative_norms,
    gevrey_order_estimate,
    lambda_estimate,
    omega_sequence,
    stadium_inclusion_probe,
    StadiumRegion,
)
from .picard import Solution, apply_T, residual, solve
from .problem import Polynomial, Problem

__version__ = "0.1.0"

__all__ = [
    "ChebFun",
    "ConditionsReport",
    "Expr",
    "Polynomial",
    "Problem",
    "Solution",
    "StadiumRegion",
    "analyze",
    "apply_T",
    "build",
    "check_ek",
    "derivative_norms",
    "gevrey_order_estimate",
    "lambda_estimate",
    "omega_sequence",
    "parse",
    "residual",
    "solve",
    "stadium_inclusion_probe",
    "__version__",
]
