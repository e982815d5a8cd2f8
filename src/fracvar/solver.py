"""Direct-method solver: Newton's method on the interior node values.

Each step factors the Hessian of H (F, or F - lambda*G with a constraint),
built from the Lagrangian's exact second partials, by Cholesky; when F is
quadratic and G affine that Hessian is the same at every iterate and is
built and factored once per solve.  With a
constraint the same factor gives the bordered KKT step on (nodes, lambda)
through a scalar Schur complement, so the quadratic family F = v^2, G = v is
one linear solve.  A Hessian that is not positive definite is made so by
adding sigma*a*a^T (a the constraint gradient), which leaves the KKT step
exact and works when the Hessian is definite on the constraint's tangent
space, or else a Levenberg shift mu*I, grown tenfold.  From the affine
interpolant of the boundary values, steps backtrack on J (Armijo) or, with a
constraint, on the KKT residual, until the residuals reach min(tol, 1e-12) or
a full step changes J only by roundoff and does not halve them.
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
from .variational import Discretization, ELResidual, Problem, el_residual

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
    """The final iterate: y, its v, and its Euler-Lagrange residual r."""

    y: SampledFunction
    v: SampledFunction
    residual: ELResidual
    objective: float
    iterations: int
    converged: bool
    lam: float | None = None
    constraint_residual: float | None = None

    @property
    def el_norm(self) -> float:
        return self.residual.norm_max_interior


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


def _evaluate(disc: Discretization, x: np.ndarray, lam: float | None) -> _Iterate:
    p = disc.p
    y = np.concatenate(([p.ya], x, [p.yb]))
    v = disc.v(y)
    objective, grad = disc.value(p.f, y, v), disc.gradient(p.f, y, v)[1:-1]
    if lam is None:
        return _Iterate(x, None, y, v, objective, grad)
    grad_i = disc.gradient(p.g, y, v)[1:-1]
    return _Iterate(x, lam, y, v, objective, grad - lam * grad_i, grad_i, disc.value(p.g, y, v) - p.xi)


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
        shifted = hess.copy(order="F")  # the layout LAPACK factors in place
        if sigma:
            shifted += np.outer(a, sigma * a)
        shifted[np.diag_indices_from(hess)] += mu
        try:
            return scipy.linalg.cho_factor(shifted, overwrite_a=True, check_finite=False), sigma, mu > mu0
        except scipy.linalg.LinAlgError:
            pass


def _tangent_definite(hess: np.ndarray, grad_i: np.ndarray) -> bool:
    """Whether hess is positive definite orthogonally to grad_i: with u = grad_i/|grad_i|
    and P = I - u u^T, P hess P + u u^T has the reduced Hessian's eigenvalues and 1.
    With w = hess u and c = 1 + u^T w, that matrix is the rank-two update
    hess - u z^T - z u^T of hess, z = w - (c/2) u."""
    u = grad_i / np.linalg.norm(grad_i)
    w = hess @ u
    z = w - 0.5 * (1.0 + float(np.dot(u, w))) * u
    reduced = hess - np.outer(u, z)
    reduced -= np.outer(z, u)
    return bool(np.linalg.eigvalsh(reduced)[0] > 0.0)


def _newton_step(factor: tuple, sigma: float, cur: _Iterate) -> tuple[np.ndarray, float | None]:
    """Newton step on x, or the bordered KKT step on (x, lam): with K the
    Hessian and a = grad I, [[K, -a], [-a^T, 0]] (dx, dlam) = -(grad H, I - xi).
    The factored matrix is K~ = K + sigma*a*a^T; since a^T dx = xi - I, the
    system is [[K~, -a], [-a^T, 0]] (dx, dlam - sigma*(I - xi)) = -(grad H, I - xi),
    two solves with K~ and the Schur complement a^T K~^-1 a."""
    k_grad = scipy.linalg.cho_solve(factor, cur.grad, check_finite=False)
    if cur.lam is None:
        return -k_grad, None
    a = cur.grad_i
    k_a = scipy.linalg.cho_solve(factor, a, check_finite=False)
    s = float(np.dot(a, k_a))
    if not s > 1e-12 * float(np.linalg.norm(a)) * float(np.linalg.norm(k_a)):
        raise BracketFailureError("singular bordered KKT system: abnormal extremal, no multiplier")
    dlam = (float(np.dot(a, k_grad)) - cur.constraint) / s
    return dlam * k_a - k_grad, dlam + sigma * cur.constraint


def _line_search(disc: Discretization, cur: _Iterate, dx: np.ndarray, dlam: float | None) -> _Iterate | None:
    """Backtrack from the full step; None when no step is accepted, or when a
    full step changes J only by roundoff and does not halve the KKT max-norm:
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
        if alpha == 1.0 and flat and trial.kkt_max > 0.5 * cur.kkt_max:
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
    disc = Discretization(p)
    x0 = (p.ya + (p.yb - p.ya) * (disc.t - p.grid.a) / (p.grid.b - p.grid.a))[1:-1]
    lo, hi = opts.lambda_bracket
    cur = _evaluate(disc, x0, min(max(0.0, lo), hi) if p.constrained else None)
    grad_target = min(opts.grad_tol, 1e-12)
    constraint_target = min(opts.constraint_tol, 1e-12)
    # with F quadratic and G affine the Hessian of F - lambda*G is that of F at
    # every (y, lambda), and the constraint gradient is constant: one factor serves
    constant = p.f.quadratic and (p.g is None or p.g.affine)
    factor = None
    iters = 0
    while True:
        if factor is None:
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
        if not constant:
            hess = factor = None  # not held while the next Hessian is built
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
    return Solution(
        y=y,
        v=SampledFunction(p.grid, cur.v),
        residual=el_residual(p, y, cur.lam),
        objective=cur.objective,
        iterations=iters,
        converged=cur.gmax <= opts.grad_tol and abs(cur.constraint) <= opts.constraint_tol,
        lam=cur.lam,
        constraint_residual=None if cur.lam is None else cur.constraint,
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
