"""Direct-method solver: Newton's method on the interior node values.

Each step factors the Hessian K of H (F, or F - lambda*G with a constraint),
built from the Lagrangian's exact second partials, by Cholesky; when F is
quadratic and G affine, K is the same at every iterate and is built and
factored once per solve.  With a constraint, K is factored on the
constraint's tangent space, and the KKT step on (nodes, lambda) is a move
along the constraint gradient that meets the linearized constraint plus a
tangent solve, so the quadratic family F = v^2, G = v is one linear solve.
A factored matrix that is not positive definite gets a Levenberg shift mu*I,
grown tenfold, on the tangent part only.  From the affine interpolant of the
boundary values, steps backtrack on J (Armijo) or, with a constraint, on the
KKT residual, until the residuals reach min(tol, 1e-12) or a full step
changes J only by roundoff and does not halve them.  The steps and the final
iterate's Euler-Lagrange residual use one Discretization, so a solve
assembles the GL operator once.  A solve holds about 2.25 n x n arrays of
doubles (M, the Hessian and a column block of its products), so it is
refused up front, with a MemoryError, where they would not fit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import resource
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fracgrid import SampledFunction
from .lagrange_dsl import AugmentedLagrangian
from .variational import Discretization, ELResidual, Problem

__all__ = [
    "AbnormalConstraintError",
    "NoMinimizerError",
    "SolverOptions",
    "Solution",
    "solve_unconstrained",
    "solve_isoperimetric",
]


class AbnormalConstraintError(RuntimeError):
    """The constraint gradient grad I vanishes at an iterate: the abnormal
    extremal of the isoperimetric theorem, an extremal of the constraint
    functional itself, which has no multiplier.  The CLI maps it to exit
    code 3.
    """


class NoMinimizerError(RuntimeError):
    """The discrete Legendre/Jacobi condition fails where that is proof: the
    Hessian, on the constraint's tangent space if any, is indefinite and J
    quadratic on an affine constraint set (so unbounded below), or at the
    stationary point reached (a saddle).  The CLI maps it to exit code 3."""


def _finite(x) -> bool:
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond double precision
        return False


@dataclass
class SolverOptions:
    max_iters: int = 500
    grad_tol: float = 1e-9
    constraint_tol: float = 1e-9

    def __post_init__(self) -> None:
        m = self.max_iters
        if not (_finite(m) and m == int(m) and m >= 1):
            raise ValueError("max_iters must be an integer >= 1")
        self.max_iters = int(m)
        if not all(_finite(tol) and tol > 0.0 for tol in (self.grad_tol, self.constraint_tol)):
            raise ValueError("tolerances must be positive finite numbers")


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


def _factor(hess: np.ndarray, grad_i: np.ndarray | None) -> tuple[tuple, bool]:
    """Cholesky factor of hess or, with a constraint, of hess on its tangent
    space: with u = grad_i/|grad_i|, P = I - u u^T, w = hess u and scale =
    max|hess_ij|, of B = P hess P + scale u u^T = hess - u z^T - z u^T,
    z = w - ((scale + u^T w)/2) u, positive definite exactly when hess is on
    that space; B + mu*I with the least mu in {0} and {mu0 * 10^j} shifts only
    the tangent part, and |B| <= (n + 1) scale ends the ladder.  Returns the
    factor with u, w and |grad_i|, and whether B is indefinite: mu0 = 1e-8
    scale did not suffice (it only covers B >= 0).  hess is consumed: each
    try writes its upper triangle only, in place when hess is Fortran-ordered,
    and a failed one is undone from the saved diagonal and the lower triangle."""
    scale = max(float(hess.max()), -float(hess.min()), np.finfo(float).tiny)
    mu0 = 1e-8 * scale
    diag = hess.diagonal().copy()
    u = w = a_norm = None
    if grad_i is not None:
        a_norm = float(np.linalg.norm(grad_i))
        if not a_norm > 0.0:
            raise AbnormalConstraintError("constraint gradient vanishes: abnormal extremal, no multiplier")
        u = grad_i / a_norm
        w = hess @ u
        z = w - 0.5 * (scale + float(np.dot(u, w))) * u  # B conditioned like hess along u too
    for mu in itertools.chain([0.0], (mu0 * 10.0**j for j in itertools.count())):
        if u is not None:  # B's upper triangle, the only one cho_factor reads
            hess = scipy.linalg.blas.dsyr2(-1.0, u, z, a=hess, overwrite_a=True)
        hess[np.diag_indices_from(hess)] += mu
        try:
            return (scipy.linalg.cho_factor(hess, overwrite_a=True, check_finite=False), u, w, a_norm), mu > mu0
        except scipy.linalg.LinAlgError:
            hess[np.diag_indices_from(hess)] = diag
            for j in range(1, len(diag)):
                hess[:j, j] = hess[j, :j]


def _newton_step(factor: tuple, cur: _Iterate) -> tuple[np.ndarray, float | None]:
    """Newton step on x, or the KKT step on (x, lam): with K the Hessian and
    a = grad I, [[K, -a], [-a^T, 0]] (dx, dlam) = -(grad H, I - xi).  For
    dx = s u + t, t orthogonal to u = a/|a|, the last row gives s = (xi - I)/|a|;
    with r = grad H + s K u, the first row's tangent part gives t = -B^-1 P r
    and its u part dlam = (u^T r + (K u)^T t)/|a|."""
    chol, u, w, a_norm = factor
    if u is None:
        return -scipy.linalg.cho_solve(chol, cur.grad, check_finite=False), None
    s = -cur.constraint / a_norm
    r = cur.grad + s * w
    ur = float(np.dot(u, r))
    t = -scipy.linalg.cho_solve(chol, r - ur * u, check_finite=False)
    return s * u + t, (ur + float(np.dot(w, t))) / a_norm


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
            accepted = trial.objective <= cur.objective + 1e-4 * alpha * slope
        else:
            accepted = trial.kkt_l2 <= (1.0 - 1e-4 * alpha) * cur.kkt_l2
        # where J is flat at roundoff, a lower KKT max-norm is progress
        if accepted or (flat and trial.kkt_max < cur.kkt_max):
            return trial
        alpha *= 0.5
    return None


def _newton(disc: Discretization, opts: SolverOptions) -> tuple[_Iterate, int, bool]:
    p = disc.p
    x0 = (p.ya + (p.yb - p.ya) * (disc.t - p.grid.a) / (p.grid.b - p.grid.a))[1:-1]
    cur = _evaluate(disc, x0, 0.0 if p.constrained else None)
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
            factor, indefinite = _factor(disc.hessian(lagr, cur.y, cur.v), cur.grad_i)
            if indefinite and constant:
                raise NoMinimizerError("no minimizer: Hessian indefinite, and J is quadratic, so unbounded below")
        if iters == opts.max_iters or (cur.gmax <= grad_target and abs(cur.constraint) <= constraint_target):
            break
        dx, dlam = _newton_step(factor, cur)
        nxt = _line_search(disc, cur, dx, dlam)
        if nxt is None:
            break
        if not constant:
            factor = None  # not held while the next Hessian is built
        cur = nxt
        iters += 1
    # a stationary point at which the Hessian (on the constraint's tangent
    # space) is indefinite is a saddle, not a minimizer
    stationary = cur.gmax <= opts.grad_tol and abs(cur.constraint) <= opts.constraint_tol
    if stationary and indefinite:
        raise NoMinimizerError("no minimizer: Hessian indefinite at the stationary point reached")
    return cur, iters, stationary


def _proc_kib(path: str, key: str, default: float) -> float:
    """The value of a `key:` line of a /proc file, in KiB, or default where there is none."""
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return default


def _memory_available() -> float:
    """Bytes this process can still allocate: the least of the system's
    MemAvailable and the address-space limit less what the process has
    mapped; inf where neither is known."""
    avail = 1024.0 * _proc_kib("/proc/meminfo", "MemAvailable", math.inf)
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        avail = min(avail, limit - 1024.0 * _proc_kib("/proc/self/status", "VmSize", 0.0))
    return avail


def _check_memory(n: int) -> None:
    """Refuse a solve whose dense arrays would not fit before it makes them:
    the kernel's out-of-memory kill would leave no exit code and no message.
    The solve's peak is about 2.25 n x n arrays and 64 arrays of n doubles."""
    need = 8.0 * (2.25 * n * n + 64.0 * n)
    avail = _memory_available()
    if need > avail:
        raise MemoryError(
            f"a solve at n = {n} holds about {need / 2**20:.0f} MB of dense n x n arrays, "
            f"and {max(avail, 0.0) / 2**20:.0f} MB are available"
        )


def _solve(p: Problem, opts: SolverOptions) -> Solution:
    # an overflow in a trial point is a rejected step, never a warning
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        disc = Discretization(p)
        _check_memory(p.grid.n)
        cur, iters, converged = _newton(disc, opts)
    return Solution(
        y=SampledFunction(p.grid, cur.y),
        v=SampledFunction(p.grid, cur.v),
        residual=disc.el_residual(cur.y, cur.v, cur.lam),
        objective=cur.objective,
        iterations=iters,
        converged=converged,
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
