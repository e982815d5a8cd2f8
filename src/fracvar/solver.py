"""Direct-method solver: Newton's method on the interior node values.

Each step factors the Hessian of H (F, or F - lambda*G with a constraint),
built from the Lagrangian's exact second partials, by Cholesky.  With a
constraint the same factor gives the bordered KKT step on (nodes, lambda)
through a scalar Schur complement, so the quadratic family F = v^2, G = v is
one linear solve.  A Hessian that is not positive definite is made so by
adding sigma*a*a^T (a the constraint gradient), which leaves the KKT step
exact and works when the Hessian is definite on the constraint's tangent
space, or else a Levenberg shift mu*I, grown tenfold.  From the affine
interpolant of the boundary values, steps backtrack on J (Armijo) or, with a
constraint, on the KKT residual, until the residuals reach min(tol, 1e-12) or
a full step changes J only by roundoff and no longer lowers them.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fracgrid import SampledFunction
from .lagrange_dsl import AugmentedLagrangian
from .variational import (
    Problem,
    constraint_value,
    discrete_operators,
    el_residual,
    functional_value,
)

__all__ = [
    "BracketFailureError",
    "NoMinimizerError",
    "SolverOptions",
    "Solution",
    "solve_unconstrained",
    "solve_isoperimetric",
]


class BracketFailureError(RuntimeError):
    """The bordered KKT system is singular (the constraint gradient vanishes),
    or the final multiplier lies outside `lambda_bracket`.

    A singular bordering is the abnormal extremal of the isoperimetric
    theorem: an extremal of the constraint functional itself, which has no
    multiplier.  The CLI maps it to exit code 3.
    """


class NoMinimizerError(RuntimeError):
    """The discrete Legendre/Jacobi condition fails where that is proof: the
    Hessian is indefinite and J quadratic (so unbounded below), or, on the
    constraint's tangent space if any, at the stationary point reached (a
    saddle).  The CLI maps it to exit code 3."""


def _finite(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass
class SolverOptions:
    max_iters: int = 500
    grad_tol: float = 1e-9
    constraint_tol: float = 1e-9
    lambda_bracket: tuple[float, float] = (-1e6, 1e6)

    def __post_init__(self) -> None:
        m = self.max_iters
        if not (_finite(m) and m == int(m) and m >= 1):
            raise ValueError("max_iters must be an integer >= 1")
        self.max_iters = int(m)
        if not all(_finite(tol) and tol > 0.0 for tol in (self.grad_tol, self.constraint_tol)):
            raise ValueError("tolerances must be positive finite numbers")
        b = self.lambda_bracket
        if not (isinstance(b, (list, tuple)) and len(b) == 2 and all(map(_finite, b)) and b[0] < b[1]):
            raise ValueError("lambda_bracket must be two finite numbers [lo, hi] with lo < hi")
        self.lambda_bracket = (float(b[0]), float(b[1]))


@dataclass
class Solution:
    y: SampledFunction
    objective: float
    el_norm: float
    iterations: int
    converged: bool
    lam: float | None = None
    constraint_residual: float | None = None


class _Discretized:
    """Precomputed pieces for functionals of the interior node values."""

    def __init__(self, p: Problem):
        self.p = p
        ops = discrete_operators(p.grid, p.order)
        self.t = ops.nodes
        self.w = ops.weights
        self.m = ops.combined_matrix(p.k)
        self.c = ops.split_correction(p.k, p.ya)

    def point(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node values y (boundary values attached) and v = y' + k D^alpha y."""
        y = np.empty(self.p.grid.n)
        y[0] = self.p.ya
        y[-1] = self.p.yb
        y[1:-1] = x
        return y, self.m @ y + self.c

    def value_and_grad(self, lagr, y: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
        vals = lagr.value(self.t, y, v)
        d2 = lagr.dy(self.t, y, v)
        d3 = lagr.dv(self.t, y, v)
        grad = (self.w * d2 + self.m.T @ (self.w * d3))[1:-1]
        return float(np.dot(self.w, vals)), grad

    def hessian(self, lagr, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        # summed in place: each n x n temporary is a large share of peak memory
        hess = self.m.T @ ((self.w * lagr.dvv(self.t, y, v))[:, None] * self.m)
        cross = (self.w * lagr.dyv(self.t, y, v))[:, None] * self.m
        hess += cross
        hess += cross.T
        hess[np.diag_indices_from(hess)] += self.w * lagr.dyy(self.t, y, v)
        return hess[1:-1, 1:-1]


@dataclass
class _Iterate:
    """One Newton iterate and the first-order quantities at it."""

    x: np.ndarray
    lam: float | None
    y: np.ndarray
    v: np.ndarray
    objective: float  # J(y), the quadrature of F
    grad: np.ndarray  # gradient of H = F - lam*G over the interior nodes
    grad_i: np.ndarray | None = None  # gradient of the constraint functional I
    constraint: float = 0.0  # I(y) - xi

    def __post_init__(self) -> None:
        self.gmax = float(np.max(np.abs(self.grad)))
        self.kkt_max = max(self.gmax, abs(self.constraint))
        self.kkt_l2 = math.hypot(float(np.linalg.norm(self.grad)), self.constraint)


def _evaluate(disc: _Discretized, x: np.ndarray, lam: float | None) -> _Iterate:
    p = disc.p
    y, v = disc.point(x)
    objective, grad = disc.value_and_grad(p.f, y, v)
    if lam is None:
        return _Iterate(x, None, y, v, objective, grad)
    i_value, grad_i = disc.value_and_grad(p.g, y, v)
    return _Iterate(x, lam, y, v, objective, grad - lam * grad_i, grad_i, i_value - p.xi)


def _factor(hess: np.ndarray, a: np.ndarray | None) -> tuple[tuple, float, bool]:
    """Cholesky factor of hess, else of hess + sigma*a*a^T with the least sigma in
    {sigma0 * 10^j, j <= 8}, else of hess + mu*I with the least mu in {mu0 * 10^j}.
    sigma*a*a^T leaves the bordered KKT step exact (see _newton_step) and works
    when hess is definite orthogonally to a; mu*I changes the step.  Returns the
    factor, sigma, and whether hess is indefinite: mu0 = 1e-8 max|diag| did not
    suffice (it only covers a singular positive semidefinite hess)."""
    scale = max(float(np.max(np.abs(np.diag(hess)))), np.finfo(float).tiny)
    a_sq = 0.0 if a is None else float(np.dot(a, a))
    mu0 = 1e-8 * scale
    tries = [(0.0, 0.0)] + [(scale / a_sq * 10.0**j, 0.0) for j in range(9) if a_sq > 0.0]
    for sigma, mu in itertools.chain(tries, ((0.0, mu0 * 10.0**j) for j in itertools.count())):
        shifted = hess + np.outer(a, sigma * a) if sigma else hess.copy()
        shifted[np.diag_indices_from(hess)] += mu
        try:
            return scipy.linalg.cho_factor(shifted, overwrite_a=True), sigma, mu > mu0
        except scipy.linalg.LinAlgError:
            pass


def _tangent_definite(hess: np.ndarray, grad_i: np.ndarray) -> bool:
    """Whether hess is positive definite orthogonally to grad_i: with u = grad_i/|grad_i|
    and P = I - u u^T, P hess P + u u^T has the reduced Hessian's eigenvalues and 1."""
    u = grad_i / np.linalg.norm(grad_i)
    proj = np.eye(u.size) - np.outer(u, u)
    return bool(np.linalg.eigvalsh(proj @ hess @ proj + np.outer(u, u))[0] > 0.0)


def _newton_step(factor: tuple, sigma: float, cur: _Iterate) -> tuple[np.ndarray, float | None]:
    """Newton step on x, or the bordered KKT step on (x, lam): with K the
    Hessian and a = grad I, [[K, -a], [-a^T, 0]] (dx, dlam) = -(grad H, I - xi).
    The factored matrix is K~ = K + sigma*a*a^T; since a^T dx = xi - I, the
    system is [[K~, -a], [-a^T, 0]] (dx, dlam - sigma*(I - xi)) = -(grad H, I - xi),
    two solves with K~ and the Schur complement a^T K~^-1 a."""
    k_grad = scipy.linalg.cho_solve(factor, cur.grad)
    if cur.lam is None:
        return -k_grad, None
    a = cur.grad_i
    k_a = scipy.linalg.cho_solve(factor, a)
    s = float(np.dot(a, k_a))
    if not s > 1e-12 * float(np.linalg.norm(a)) * float(np.linalg.norm(k_a)):
        raise BracketFailureError("singular bordered KKT system: abnormal extremal, no multiplier")
    dlam = (float(np.dot(a, k_grad)) - cur.constraint) / s
    return dlam * k_a - k_grad, dlam + sigma * cur.constraint


def _line_search(disc: _Discretized, cur: _Iterate, dx: np.ndarray, dlam: float | None) -> _Iterate | None:
    """Backtrack from the full step; None when no step is accepted, or when a
    full step changes J only by roundoff and does not lower the KKT max-norm:
    the roundoff floor, where further steps only creep."""
    slope = float(np.dot(cur.grad, dx))
    alpha = 1.0
    for _ in range(40):
        try:
            trial = _evaluate(disc, cur.x + alpha * dx, None if dlam is None else cur.lam + alpha * dlam)
        except ArithmeticError:
            alpha *= 0.5
            continue
        flat = abs(trial.objective - cur.objective) <= 1e-12 * max(1.0, abs(cur.objective))
        if alpha == 1.0 and flat and trial.kkt_max >= cur.kkt_max:
            return None
        if dlam is None:
            # where J is flat at roundoff, a lower gradient is progress
            accepted = trial.objective <= cur.objective + 1e-4 * alpha * slope or (
                flat and trial.gmax < cur.gmax
            )
        else:
            accepted = trial.kkt_l2 <= (1.0 - 1e-4 * alpha) * cur.kkt_l2
        if accepted:
            return trial
        alpha *= 0.5
    return None


def _newton(p: Problem, opts: SolverOptions) -> tuple[_Iterate, int]:
    disc = _Discretized(p)
    x0 = (p.ya + (p.yb - p.ya) * (disc.t - p.grid.a) / (p.grid.b - p.grid.a))[1:-1]
    lo, hi = opts.lambda_bracket
    cur = _evaluate(disc, x0, min(max(0.0, lo), hi) if p.constrained else None)
    grad_target = min(opts.grad_tol, 1e-12)
    constraint_target = min(opts.constraint_tol, 1e-12)
    iters = 0
    while True:
        lagr = p.f if cur.lam is None else AugmentedLagrangian(p.f, p.g, cur.lam)
        hess = disc.hessian(lagr, cur.y, cur.v)
        factor, sigma, indefinite = _factor(hess, cur.grad_i)
        # a quadratic J has this Hessian everywhere: indefinite, it is unbounded below
        if indefinite and cur.lam is None and p.f.quadratic:
            raise NoMinimizerError("no minimizer: Hessian indefinite, and J is quadratic, so unbounded below")
        if iters == opts.max_iters or (cur.gmax <= grad_target and abs(cur.constraint) <= constraint_target):
            break
        dx, dlam = _newton_step(factor, sigma, cur)
        nxt = _line_search(disc, cur, dx, dlam)
        if nxt is None:
            break
        del hess, factor  # not held while the next Hessian is built
        cur = nxt
        iters += 1
    if cur.lam is not None and not lo <= cur.lam <= hi:
        raise BracketFailureError(f"multiplier {cur.lam!r} outside lambda_bracket [{lo!r}, {hi!r}]")
    # a stationary point at which the Hessian (on the constraint's tangent
    # space) is indefinite is a saddle, not a minimizer
    stationary = cur.gmax <= opts.grad_tol and abs(cur.constraint) <= opts.constraint_tol
    if stationary and indefinite and (cur.grad_i is None or not _tangent_definite(hess, cur.grad_i)):
        raise NoMinimizerError("no minimizer: Hessian indefinite at the stationary point reached")
    return cur, iters


def _solve(p: Problem, opts: SolverOptions) -> Solution:
    # an overflow in a trial point is a rejected step, never a warning
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        cur, iters = _newton(p, opts)
    y = SampledFunction(p.grid, cur.y)
    residual = None if cur.lam is None else constraint_value(p, y) - p.xi
    return Solution(
        y=y,
        objective=functional_value(p, y),
        el_norm=el_residual(p, y, cur.lam).norm_max_interior,
        iterations=iters,
        converged=cur.gmax <= opts.grad_tol and abs(residual or 0.0) <= opts.constraint_tol,
        lam=cur.lam,
        constraint_residual=residual,
    )


def solve_unconstrained(p: Problem, opts: SolverOptions | None = None) -> Solution:
    """Minimize the discretized functional; p must have no constraint."""
    if p.constrained:
        raise ValueError("problem has an isoperimetric constraint; use solve_isoperimetric")
    return _solve(p, opts or SolverOptions())


def solve_isoperimetric(p: Problem, opts: SolverOptions | None = None) -> Solution:
    """Newton on (interior nodes, lambda) for the stationary points of F - lambda*G
    that meet the constraint."""
    if not p.constrained:
        raise ValueError("problem has no isoperimetric constraint; use solve_unconstrained")
    return _solve(p, opts or SolverOptions())
