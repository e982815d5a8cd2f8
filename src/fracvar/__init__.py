"""Numerical calculus of variations with combined classical/fractional derivatives."""

from .fracgrid import (
    FracOperator,
    FracOrder,
    Grid,
    GridMismatchError,
    SampledFunction,
    assemble_frac_operator,
    gl_weights,
    trapezoid_integral,
)
from .lagrange_dsl import Lagrangian, parse
from .reference import ReferenceSpec, boundary_value, closed_form_alpha_half, ml_convolution_extremal
from .solver import Solution, SolverOptions, solve_isoperimetric, solve_unconstrained
from .special import MLParams, erfc, gamma, mittag_leffler
from .variational import (
    Problem,
    combined_derivative,
    constraint_value,
    discrete_gradient,
    el_residual,
    functional_value,
)

__version__ = "0.1.0"

__all__ = [
    "FracOperator",
    "FracOrder",
    "Grid",
    "GridMismatchError",
    "SampledFunction",
    "assemble_frac_operator",
    "gl_weights",
    "trapezoid_integral",
    "Lagrangian",
    "parse",
    "ReferenceSpec",
    "boundary_value",
    "closed_form_alpha_half",
    "ml_convolution_extremal",
    "Solution",
    "SolverOptions",
    "solve_isoperimetric",
    "solve_unconstrained",
    "MLParams",
    "erfc",
    "gamma",
    "mittag_leffler",
    "Problem",
    "combined_derivative",
    "constraint_value",
    "discrete_gradient",
    "el_residual",
    "functional_value",
]
