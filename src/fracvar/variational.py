"""Problem model for functionals of the combined derivative y' + k * D^alpha y:
functional and constraint values, the Euler-Lagrange residual, and the discrete
gradient (first variation) with respect to interior node values.

All of them, and the solver, go through one `Discretization` of the problem,
which owns its left GL operator L, n weights applied by FFT, and the one
operator M = D_c + k L through which v depends on y: v = M y + y(a) c at every
left value, where the boundary column c, computed once, corrects L for the
singular derivative of a nonzero one, and adds zeros at y(a) = 0.  It holds
the products with M and M^T, from which the solver forms its Hessian-vector
products; the quadratures of the Lagrangian and its gradient, M^T applied to
the weighted H_v; and the Euler-Lagrange residual, whose right operator is
L^T.  All take O(n log n) time and O(n) memory.  The public functions build a
Discretization per call; a solve builds one, and its certificate reads the
same one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fracgrid import (
    FracOperator,
    FracOrder,
    Grid,
    GridMismatchError,
    SampledFunction,
    assemble_frac_operator,
    derivative_stencil,
    derivative_stencil_transpose,
    variational_weights,
)
from .lagrange_dsl import AugmentedLagrangian, Lagrangian
from .special import gamma

__all__ = [
    "MissingConstraintError",
    "BoundaryMismatchError",
    "Problem",
    "ELResidual",
    "Discretization",
    "combined_derivative",
    "functional_value",
    "constraint_value",
    "el_residual",
    "discrete_gradient",
    "discrete_operators",
]


class MissingConstraintError(ValueError):
    """Constraint operation invoked on a problem without an isoperimetric pair."""


class BoundaryMismatchError(ValueError):
    """Trajectory does not satisfy the problem's boundary conditions."""


@dataclass(frozen=True)
class Problem:
    """Variational problem data: F, optional (G, xi), mixing k, order, grid, BCs."""

    f: Lagrangian
    k: float
    order: FracOrder
    grid: Grid
    ya: float
    yb: float
    g: Lagrangian | None = None
    xi: float | None = None

    def __post_init__(self) -> None:
        if (self.g is None) != (self.xi is None):
            raise ValueError("isoperimetric constraint requires both G and xi")
        if not (math.isfinite(self.ya) and math.isfinite(self.yb)):
            raise ValueError("boundary values must be finite")
        if not (math.isfinite(self.k) and (self.xi is None or math.isfinite(self.xi))):
            raise ValueError("k and xi must be finite")

    @property
    def constrained(self) -> bool:
        return self.g is not None


@dataclass(frozen=True)
class ELResidual:
    """Euler-Lagrange residual samples with interior-only norms."""

    values: SampledFunction
    norm_max_interior: float
    norm_l2_interior: float


def discrete_operators(grid: Grid, order: FracOrder) -> FracOperator:
    """The left GL operator, whose transpose is the right one; each call assembles its own."""
    return assemble_frac_operator(grid, order)


class Discretization:
    """One problem's discretization as a function of the node values y (boundary
    nodes included): v = y' + k D^alpha y, and the quadrature of a Lagrangian
    with its gradient and Hessian in y."""

    def __init__(self, p: Problem):
        self.left = discrete_operators(p.grid, p.order)
        self.p, self.t, self.w = p, p.grid.nodes(), variational_weights(p.grid)

    @cached_property
    def boundary_column(self) -> np.ndarray:
        """c = k (s - L 1), with s_i = (t_i - a)^(-alpha) / Gamma(1 - alpha) for
        i >= 1 and s_0 = L_00.

        The plain GL sum converges slowly through the singular part generated
        by a nonzero left value; splitting y = y(a) + (y - y(a)) and taking the
        analytic derivative of the constant, s, restores accuracy at interior
        nodes.  Node 0 keeps the plain GL value (the continuous derivative is
        infinite there), so c_0 = 0.  L 1 is the running sum of the weights.
        Every v takes y(a) c, zeros at y(a) = 0, so every discretization that
        computes a v holds c.
        """
        alpha, weights = self.p.order.alpha, self.left.weights
        s = np.empty(len(weights))
        s[0] = weights[0]
        s[1:] = (self.t[1:] - self.p.grid.a) ** (-alpha) / gamma(1.0 - alpha)
        return self.p.k * (s - np.cumsum(weights))

    @cached_property
    def circulant(self) -> tuple[float, int, np.ndarray]:
        """(m_norm, size, sym) for the solver's preconditioner: m_norm bounds M's
        row and column sums alike (|D_c| <= 4/h, |k L| <= |k| sum|weights|); sym
        holds the eigenvalues |c(theta)|^2 of C^H C, C the Strang circulant of
        M's interior Toeplitz part (the central difference plus k L) of the least
        5-smooth length size >= n - 2, floored at their third-least (at k = 0, c
        vanishes at theta = 0 and pi)."""
        h, k, weights = self.p.grid.h, self.p.k, self.left.weights
        m_norm = 4.0 / h + abs(k) * float(np.sum(np.abs(weights)))
        size = _fast_length(self.p.grid.n - 2)
        lag = np.arange(size)  # the diagonal of M that each entry of C's first column copies
        lag[lag > size // 2] -= size
        col = np.where(lag >= 0, k * weights[np.abs(lag)], 0.0)
        col[lag == 1] -= 0.5 / h
        col[lag == -1] += 0.5 / h
        sym = np.abs(np.fft.rfft(col)) ** 2
        # the floor is 0 only where C is: at n = 3 and k = 0, where it preconditions nothing
        return m_norm, size, np.maximum(sym, np.sort(sym)[:3][-1] or 1.0)

    def v(self, y: np.ndarray) -> np.ndarray:
        """v = M y + y(a) c: y' + k D^alpha y with the boundary split, at every y(a)."""
        return self.m_matvec(y) + y[0] * self.boundary_column

    def m_matvec(self, x: np.ndarray) -> np.ndarray:
        """M x, with M = D_c + k L: v is M y plus a multiple of the boundary column."""
        return derivative_stencil(x, self.p.grid.h) + self.p.k * self.left.matvec(x)

    def m_rmatvec(self, g: np.ndarray) -> np.ndarray:
        """M^T g = D_c^T g + k L^T g."""
        return derivative_stencil_transpose(g, self.p.grid.h) + self.p.k * self.left.rmatvec(g)

    def value(self, lagr, y: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(self.w, lagr.value(self.t, y, v)))

    def gradient(self, lagr, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Gradient in all n node values: w H_y + M^T (w H_v)."""
        return self.w * lagr.dy(self.t, y, v) + self.m_rmatvec(self.w * lagr.dv(self.t, y, v))

    def el_residual(self, y: np.ndarray, v: np.ndarray, lam: float | None) -> ELResidual:
        """Euler-Lagrange residual of H = F - lam*G (or plain F when lam is None):

        r_i = dH/dy - Dc[dH/dv] + k * (right fractional derivative of dH/dv)

        with the classical stencil Dc and the right GL operator (the transpose of
        the left one) applied to the sampled dH/dv sequence.  Norms are over
        interior nodes only.
        """
        h_lagr = _lagrangian_for(self.p, lam)
        d2 = h_lagr.dy(self.t, y, v)
        d3 = h_lagr.dv(self.t, y, v)
        r = d2 - derivative_stencil(d3, self.p.grid.h) + self.p.k * self.left.rmatvec(d3)
        interior = r[1:-1]
        return ELResidual(
            values=SampledFunction(self.p.grid, r),
            norm_max_interior=float(np.max(np.abs(interior))),
            norm_l2_interior=float(math.sqrt(self.p.grid.h * float(np.dot(interior, interior)))),
        )


def _fast_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: numpy's FFT is many times slower on a
    length with a large prime factor, such as 15999."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _check_grid(p: Problem, y: SampledFunction) -> None:
    if y.grid != p.grid:
        raise GridMismatchError("trajectory is sampled on a different grid")


def combined_derivative(p: Problem, y: SampledFunction) -> SampledFunction:
    """v = y' + k * left fractional derivative (with the boundary split): `Discretization.v`."""
    _check_grid(p, y)
    return SampledFunction(p.grid, Discretization(p).v(y.values))


def _lagrangian_for(p: Problem, lam: float | None):
    if lam is None:
        return p.f
    if p.g is None:
        raise MissingConstraintError("multiplier given but the problem has no constraint")
    return AugmentedLagrangian(p.f, p.g, lam)


def functional_value(p: Problem, y: SampledFunction) -> float:
    """Discretized J(y): quadrature of F(t, y, v) over the grid."""
    _check_grid(p, y)
    disc = Discretization(p)
    return disc.value(p.f, y.values, disc.v(y.values))


def constraint_value(p: Problem, y: SampledFunction) -> float:
    """Discretized I(y): quadrature of G(t, y, v)."""
    if p.g is None:
        raise MissingConstraintError("problem has no isoperimetric constraint")
    _check_grid(p, y)
    disc = Discretization(p)
    return disc.value(p.g, y.values, disc.v(y.values))


def el_residual(p: Problem, y: SampledFunction, lam: float | None = None) -> ELResidual:
    """Euler-Lagrange residual of H = F - lam*G, or of F when lam is None: `Discretization.el_residual`."""
    _check_grid(p, y)
    if p.g is not None and lam is None:
        raise MissingConstraintError("problem has a constraint; supply its multiplier lambda")
    disc = Discretization(p)
    return disc.el_residual(y.values, disc.v(y.values), lam)


def discrete_gradient(p: Problem, y: SampledFunction, lam: float | None = None) -> np.ndarray:
    """Gradient of the discretized functional with respect to interior nodes.

    Chain rule through the quadrature weights, the difference stencil, and the
    transposed left-operator columns; boundary nodes are held fixed.
    """
    _check_grid(p, y)
    if not math.isclose(y.values[0], p.ya, rel_tol=0.0, abs_tol=1e-9) or not math.isclose(
        y.values[-1], p.yb, rel_tol=0.0, abs_tol=1e-9
    ):
        raise BoundaryMismatchError(
            f"trajectory endpoints ({y.values[0]!r}, {y.values[-1]!r}) do not match "
            f"the boundary conditions ({p.ya!r}, {p.yb!r})"
        )
    h_lagr = _lagrangian_for(p, lam)
    disc = Discretization(p)
    return disc.gradient(h_lagr, y.values, disc.v(y.values))[1:-1]
