"""Uniform grids, sampled functions, and discrete derivative operators.

The fractional operators are first-order (unshifted) Grunwald-Letnikov
discretizations of the left and right Riemann-Liouville derivatives of order
0 < alpha < 1.  The left operator is one dense lower-triangular Toeplitz
matrix of the GL weights (a discrete convolution); the right operator is its
exact transpose, which callers that hold the left matrix take as the
transposed view rather than a second matrix.  Row 0 of a left operator and
row n-1 of a right operator are boundary rows: the continuous derivative is
singular there whenever the function does not vanish at that endpoint, so
callers exclude them from residual norms.  Operators act on node values by
`op.weights @ values`; the classical stencil and the left boundary split act
on node-value arrays too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .special import gamma

__all__ = [
    "GridMismatchError",
    "Grid",
    "SampledFunction",
    "FracOrder",
    "Side",
    "FracOperator",
    "gl_weights",
    "assemble_frac_operator",
    "split_left_derivative",
    "derivative_stencil",
    "trapezoid_integral",
    "variational_weights",
]


class GridMismatchError(ValueError):
    """A trajectory and the problem it is checked against live on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n nodes on [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a!r}, b={self.b!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b - self.a)):
            raise ValueError(f"need finite a, b and b - a, got a={self.a!r}, b={self.b!r}")
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got n={self.n!r}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        if self.n > np.iinfo(np.intp).max // 8:
            # refused before anything is allocated: numpy cannot index the array
            raise MemoryError("the n node values are too many to index")
        return np.linspace(self.a, self.b, self.n)


@dataclass(frozen=True)
class SampledFunction:
    """Real-valued function sampled on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FracOrder:
    """Fractional order restricted to (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True, eq=False)
class FracOperator:
    """Dense triangular Grunwald-Letnikov matrix for one side and order
    (lower-triangular Toeplitz for the left side, its transpose for the right)."""

    grid: Grid
    order: FracOrder
    side: Side
    weights: np.ndarray


def gl_weights(order: FracOrder, count: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_j = (-1)^j * binom(alpha, j), j < count."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count!r}")
    # the recurrence w_j = w_{j-1} (1 - (alpha + 1)/j), multiplied left to right
    return np.cumprod(np.r_[1.0, 1.0 - (order.alpha + 1.0) / np.arange(1, count)])


def assemble_frac_operator(grid: Grid, order: FracOrder, side: Side) -> FracOperator:
    if grid.n**2 > np.iinfo(np.intp).max // 8:
        # refused before anything is allocated: numpy cannot index the matrix
        raise MemoryError("the n x n matrix of doubles is too large to index")
    w = gl_weights(order, grid.n) / grid.h**order.alpha
    mat = scipy.linalg.toeplitz(w, np.zeros(grid.n))
    if side is Side.RIGHT:
        mat = mat.T.copy()
    mat.flags.writeable = False
    return FracOperator(grid=grid, order=order, side=side, weights=mat)


def split_left_derivative(op: FracOperator, values: np.ndarray) -> np.ndarray:
    """Left derivative of the node values of a function on op's grid, with the
    nonzero-boundary split.

    The plain GL sum converges slowly through the singular part generated by a
    nonzero left boundary value; splitting f = f(a) + (f - f(a)) and adding the
    analytic derivative of the constant, f(a) * (t-a)^(-alpha) / Gamma(1-alpha),
    restores accuracy at interior nodes.  Node 0 keeps the plain GL value
    (the continuous derivative is infinite there when f(a) != 0).
    """
    if op.side is not Side.LEFT:
        raise ValueError("boundary split applies to left operators only")
    fa = values[0]
    out = op.weights @ (values - fa)
    if fa != 0.0:
        alpha = op.order.alpha
        t = op.grid.nodes()
        out[1:] += fa * (t[1:] - op.grid.a) ** (-alpha) / gamma(1.0 - alpha)
        out[0] = op.weights[0, 0] * fa
    return out


def derivative_stencil(x: np.ndarray, h: float) -> np.ndarray:
    """The classical stencil D_c applied along axis 0: D_c x for node values x,
    or D_c X for a matrix X (so D_c itself is the stencil of the identity)."""
    out = np.empty_like(x, dtype=float)
    np.subtract(x[2:], x[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    out[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * h)
    out[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
    return out


def trapezoid_integral(f: SampledFunction) -> float:
    """Composite trapezoid rule; exact on affine integrands."""
    v = f.values
    return float(f.grid.h * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def variational_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights used to discretize variational functionals.

    These are trapezoid weights with modified entries near the endpoints,
    h * [1/4, 5/4, 1, ..., 1, 5/4, 1/4] from n = 4 on.  The modification is
    the discrete summation-by-parts condition for the second-order difference
    stencil: the transposed stencil annihilates the weight vector on interior
    columns, so affine extremals are exact stationary points of the discrete
    functional; at n = 3 the plain trapezoid weights meet it.  Still
    second-order accurate and exact on affine integrands.
    """
    h = grid.h
    w = np.full(grid.n, h)
    if grid.n >= 4:
        w[0] = w[-1] = h / 4.0
        w[1] = w[-2] = 5.0 * h / 4.0
    else:
        w[0] = w[-1] = h / 2.0
    w.flags.writeable = False
    return w
