"""Uniform grids, sampled functions, and discrete derivative operators.

The fractional operator is the first-order (unshifted) Grunwald-Letnikov
discretization of the left Riemann-Liouville derivative of order
0 < alpha < 1: the lower-triangular Toeplitz matrix L of the scaled GL
weights, a discrete convolution.  Only its first column, the n weights, is
stored; L x and L^T x are FFT convolutions, O(n log n) time and O(n)
memory.  The right derivative, which only the Euler-Lagrange residual
needs, is the exact transpose L^T.  Row 0 is a boundary row: the continuous
derivative is singular there whenever the function does not vanish at the
left endpoint, so callers exclude it from residual norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridMismatchError",
    "Grid",
    "SampledFunction",
    "FracOrder",
    "FracOperator",
    "gl_weights",
    "assemble_frac_operator",
    "derivative_stencil",
    "derivative_stencil_transpose",
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
        if self.n > np.iinfo(np.intp).max // 8:
            # refused before anything is allocated: numpy cannot index an array of n doubles
            raise MemoryError("the n node values are too many to index")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def nodes(self) -> np.ndarray:
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


@dataclass(frozen=True, eq=False)
class FracOperator:
    """The lower-triangular Toeplitz Grunwald-Letnikov matrix L of the left
    derivative, held as its first column `weights` (read-only): L_ij = weights[i - j]."""

    weights: np.ndarray

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """The real FFT of the weights, zero-padded to a power of two >= 2n - 1,
        so that the circular convolution of two length-n vectors does not wrap."""
        size = 1 << (2 * len(self.weights) - 2).bit_length()
        return np.fft.rfft(self.weights, size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """L x: the first n terms of the convolution of the weights with x."""
        size = 2 * (len(self._spectrum) - 1)
        return np.fft.irfft(self._spectrum * np.fft.rfft(x, size), size)[: len(x)]

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """L^T x = J L J x, with J the reversal of the node order."""
        return self.matvec(x[::-1])[::-1]


def gl_weights(order: FracOrder, count: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_j = (-1)^j * binom(alpha, j), j < count."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count!r}")
    # the recurrence w_j = w_{j-1} (1 - (alpha + 1)/j), multiplied left to right
    return np.cumprod(np.r_[1.0, 1.0 - (order.alpha + 1.0) / np.arange(1, count)])


def assemble_frac_operator(grid: Grid, order: FracOrder) -> FracOperator:
    """L for the grid and order: the n scaled weights, gl_weights / h^alpha."""
    w = gl_weights(order, grid.n) / grid.h**order.alpha
    w.flags.writeable = False
    return FracOperator(weights=w)


def derivative_stencil(x: np.ndarray, h: float) -> np.ndarray:
    """The classical stencil D_c applied along axis 0: D_c x for node values x,
    or D_c X for a matrix X (so D_c itself is the stencil of the identity)."""
    out = np.empty_like(x, dtype=float)
    np.subtract(x[2:], x[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    out[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * h)
    out[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
    return out


def derivative_stencil_transpose(g: np.ndarray, h: float) -> np.ndarray:
    """D_c^T g for node values g: each row of the stencil sends its entries,
    times g at the row's node, to the row's columns."""
    out = np.zeros_like(g, dtype=float)
    out[:-2] -= g[1:-1]
    out[2:] += g[1:-1]
    out[:3] += np.array([-3.0, 4.0, -1.0]) * g[0]
    out[-3:] += np.array([1.0, -4.0, 3.0]) * g[-1]
    return out / (2.0 * h)


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
