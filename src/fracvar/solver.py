"""Direct-method solver: Newton's method on the interior node values.

Each step solves with the Hessian K of H (F, or F - lambda*G with a
constraint), from the Lagrangian's exact second partials, by preconditioned
conjugate gradients on Hessian-vector products: K x is two products with
M = D_c + k L and two with M^T, four FFTs, and no n x n matrix is made.  The
preconditioner is one real FFT pair: the Strang circulant of M's interior
Toeplitz part, built once per solve by the Discretization, scaled by
sqrt(w H_vv) on both sides, a scaling rebuilt with K at every iterate unless
F is quadratic and G affine.  With a constraint, CG runs on its tangent
space, and the KKT step on (nodes, lambda) is a move along the constraint
gradient that meets the linearized constraint plus a tangent solve, so the
quadratic family F = v^2, G = v is one linear solve.  Where CG meets a
direction of nonpositive curvature, K gets a Levenberg shift mu*I, grown
tenfold, on the tangent part only; K is indefinite where the shift had to
grow past its first value.  K is proven convex, in O(n) and with no product,
where the Lagrangian's 2 x 2 Hessian in (y, v) is positive semidefinite at
every node.  Each step is solved to a quarter of the final target, or, where
K is proven convex and not the same at every iterate, to the larger of that
and eta times the KKT max-norm, eta being Eisenstat and Walker's forcing term
(at most 0.1): an inexact Newton-Krylov method.  At a stationary final
iterate whose K is not proven convex, CG from a fixed probe tests the
curvature once more.  From the affine interpolant of the boundary
values, steps backtrack on J (Armijo) or, with a constraint, on the KKT
residual, until the residuals reach min(tol, 1e-12) or a full step changes J
only by roundoff and does not halve them.  The steps and the final iterate's
Euler-Lagrange residual use one Discretization, so a solve assembles the GL
operator once.  A solve holds at most about 36 arrays of n doubles; it is
refused up front, with a MemoryError, where 40 would not fit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import resource
from dataclasses import dataclass

import numpy as np

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


class _Hessian:
    """K, the Hessian of the quadrature of lagr in the interior node values at
    (y, v), as products: with x~ the interior vector x padded by zero boundary
    values, K x is [M^T (w H_vv M x~ + w H_yv x~) + w H_yv M x~ + w H_yy x~]
    on the interior nodes, two products with M and M^T, four FFTs.

    The preconditioner is S^-1 (C^H C)^-1 S^-1, one real FFT pair: C is the
    Strang circulant of M's interior Toeplitz part, read with M's norm bound
    from `Discretization.circulant`, of which the first n - 2 rows and
    columns act.  S = sqrt|w H_vv| is floored at 1e-3 of its largest value,
    or is 1 where H_vv is 0 everywhere.  `scale` bounds |K|_inf, and with a
    constraint gradient a, u = a/|a| is the unit normal of the tangent space
    and ku = K u.  `convex` certifies K >= 0: the Lagrangian's 2 x 2 Hessian
    in (y, v) is positive semidefinite at every node, so x^T K x, the sum of
    w [H_vv (M x~)^2 + 2 H_yv (M x~) x~ + H_yy x~^2] over the nodes, is
    nowhere negative."""

    def __init__(self, disc: Discretization, lagr, y: np.ndarray, v: np.ndarray, grad_i: np.ndarray | None):
        self.disc = disc
        self.wvv, self.wyv, self.wyy = (disc.w * d(disc.t, y, v) for d in (lagr.dvv, lagr.dyv, lagr.dyy))
        self.convex = bool(
            np.all(self.wvv >= 0.0) and np.all(self.wyy >= 0.0) and np.all(self.wyv**2 <= self.wvv * self.wyy)
        )
        m_norm, self.size, self.sym = disc.circulant
        self.scale = sum(
            c * float(np.max(np.abs(a))) for c, a in ((m_norm**2, self.wvv), (2.0 * m_norm, self.wyv), (1.0, self.wyy))
        )
        s = np.sqrt(np.abs(self.wvv[1:-1]))
        self.s = np.maximum(s, 1e-3 * s.max()) if s.max() > 0.0 else np.ones_like(s)
        self.u = self.ku = self.a_norm = None
        if grad_i is not None:
            self.a_norm = float(np.linalg.norm(grad_i))
            if not self.a_norm > 0.0:
                raise AbnormalConstraintError("constraint gradient vanishes: abnormal extremal, no multiplier")
            self.u = grad_i / self.a_norm
            self.ku = self(self.u)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        xt = np.concatenate(([0.0], x, [0.0]))
        mx = self.disc.m_matvec(xt)
        return (self.disc.m_rmatvec(self.wvv * mx + self.wyv * xt) + self.wyv * mx + self.wyy * xt)[1:-1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """P x, P = I - u u^T, or x itself without a constraint."""
        return x if self.u is None else x - float(np.dot(self.u, x)) * self.u

    def precondition(self, r: np.ndarray) -> np.ndarray:
        z = np.fft.irfft(np.fft.rfft(r / self.s, self.size) / self.sym, self.size)
        return z[: len(r)] / self.s


def _cg(apply, precondition, b: np.ndarray, target: float, cap: int) -> tuple[np.ndarray | None, int]:
    """Preconditioned conjugate gradients on apply(x) = b from x = 0, until the
    residual's max-norm is at most target or its 2-norm at most 1e-13 |b|,
    the floor that roundoff lets it reach, or for cap iterations.  Returns x,
    or None as soon as a direction p has curvature p^T apply(p) <= 0, and the
    iterations taken."""
    x = np.zeros_like(b)
    r = b.copy()
    floor = 1e-13 * float(np.linalg.norm(b))
    p = z = precondition(r)
    rz = float(np.dot(r, z))
    for its in range(cap):
        if float(np.max(np.abs(r))) <= target or float(np.linalg.norm(r)) <= floor:
            return x, its
        q = apply(p)
        curvature = float(np.dot(p, q))
        if not curvature > 0.0:
            return None, its
        step = rz / curvature
        x += step * p
        r -= step * q
        z = precondition(r)
        rz, rz_old = float(np.dot(r, z)), rz
        p = z + (rz / rz_old) * p
    return x, cap


def _shifted_solve(hess: _Hessian, b: np.ndarray, target: float) -> tuple[np.ndarray | None, bool]:
    """x with (K + mu I) x = b on the tangent space (all of it without a
    constraint), b on it, by projected CG to a residual max-norm of target,
    with the least mu in {0} and {mu0 * 10^j}, mu0 = 1e-8 scale, at which CG
    meets no nonpositive curvature; mu > scale >= |K| ends the ladder.
    Returns x, and whether K is indefinite there: mu0 did not suffice (it
    only covers K >= 0).  A zero K has no step and is not indefinite."""
    if not hess.scale > 0.0:
        return None, False
    mu0 = 1e-8 * hess.scale
    for mu in itertools.chain([0.0], (mu0 * 10.0**j for j in itertools.count())):
        x, _ = _cg(
            lambda p: hess.project(hess(p)) + mu * p,
            lambda r: hess.project(hess.precondition(r)),
            b,
            target,
            len(b) + 10,
        )
        if x is not None:
            return x, mu > mu0


def _newton_step(hess: _Hessian, cur: _Iterate, target: float) -> tuple[np.ndarray | None, float | None, bool]:
    """Newton step on x, or the KKT step on (x, lam), and whether K (on the
    tangent space) is indefinite: with a = grad I, [[K, -a], [-a^T, 0]]
    (dx, dlam) = -(grad H, I - xi).  For dx = s u + t, t orthogonal to
    u = a/|a|, the last row gives s = (xi - I)/|a|; with r = grad H + s K u,
    the first row's tangent part gives t = -(P K P)^-1 P r and its u part
    dlam = (u^T r + (K u)^T t)/|a|.  dx is None where K is zero."""
    if hess.u is None:
        dx, indefinite = _shifted_solve(hess, -cur.grad, target)
        return dx, None, indefinite
    u, ku = hess.u, hess.ku
    s = -cur.constraint / hess.a_norm
    r = cur.grad + s * ku
    ur = float(np.dot(u, r))
    t, indefinite = _shifted_solve(hess, ur * u - r, target)
    if t is None:
        return None, None, indefinite
    return s * u + t, (ur + float(np.dot(ku, t))) / hess.a_norm, indefinite


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
    # every (y, lambda), and the constraint gradient is constant: one serves
    constant = p.f.quadratic and (p.g is None or p.g.affine)
    hess = None
    iters = 0
    eta = 0.1
    while True:
        if hess is None or not constant:
            lagr = p.f if cur.lam is None else AugmentedLagrangian(p.f, p.g, cur.lam)
            hess = _Hessian(disc, lagr, cur.y, cur.v, cur.grad_i)
        if iters == opts.max_iters or (cur.gmax <= grad_target and abs(cur.constraint) <= constraint_target):
            break
        # inexact only on a convex, changing K: a constant K ends in one exact
        # solve, and truncated CG on an unproven K could miss negative curvature
        target = 0.25 * grad_target
        if hess.convex and not constant:
            target = max(target, eta * cur.kkt_max)
        dx, dlam, indefinite = _newton_step(hess, cur, target)
        if indefinite and constant:
            raise NoMinimizerError("no minimizer: Hessian indefinite, and J is quadratic, so unbounded below")
        nxt = None if dx is None else _line_search(disc, cur, dx, dlam)
        if nxt is None:
            break
        # Eisenstat and Walker's choice 2; a ratio past 1 gives 0.1 and is
        # not squared, so that nothing overflows
        eta = min(0.1, 0.9 * min(nxt.kkt_max / cur.kkt_max, 1.0) ** 2)
        cur = nxt
        iters += 1
    # a stationary point at which the Hessian (on the constraint's tangent
    # space) is indefinite is a saddle, not a minimizer.  The gradient may be
    # zero there, so CG tests the curvature from a fixed pseudorandom probe,
    # cos(i^2); while it meets none, CG cannot shrink the probe's part along
    # a direction of negative curvature, so 1e-10 of it is out of reach.  A
    # K proven convex needs no probe
    stationary = cur.gmax <= opts.grad_tol and abs(cur.constraint) <= opts.constraint_tol
    if stationary and not hess.convex:
        probe = hess.project(np.cos(np.arange(len(cur.x), dtype=float) ** 2))
        if _shifted_solve(hess, probe, 1e-10 * float(np.max(np.abs(probe))))[1]:
            raise NoMinimizerError("no minimizer: Hessian indefinite at the stationary point reached")
    return cur, iters, stationary


def _proc_kib(path: str, key: str, default: float) -> float:
    """The value of a `key:` line of a /proc file, in KiB, or default where there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return default


def _cgroup_room(directory: str, limit_name: str, usage_name: str, inactive_key: str) -> float:
    """A cgroup's memory limit less its working set, in bytes: its usage less
    the inactive file cache, which the kernel reclaims before the limit is
    reached.  inf where a file or the `memory.stat` key is missing or
    unreadable, or the limit reads "max" or at least 2^62."""
    try:
        with open(os.path.join(directory, limit_name), encoding="utf-8") as fh:
            limit = float(fh.read())
        if limit >= 2.0**62:
            return math.inf
        with open(os.path.join(directory, usage_name), encoding="utf-8") as fh:
            usage = float(fh.read())
        with open(os.path.join(directory, "memory.stat"), encoding="utf-8") as fh:
            inactive = float(dict(line.split() for line in fh)[inactive_key])
    except (OSError, ValueError, KeyError):
        return math.inf
    return limit - (usage - inactive)


def _cgroup_available(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """Bytes the process's own memory cgroup still allows, under a v2
    hierarchy (its `0::` line) or a v1 one (its `memory` line), the least
    of the two; inf where neither sets a limit."""
    try:
        with open(proc, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError):
        return math.inf
    avail = math.inf
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        hierarchy, controllers, path = fields
        if hierarchy == "0" and not controllers:
            directory = os.path.join(root, path.lstrip("/"))
            avail = min(avail, _cgroup_room(directory, "memory.max", "memory.current", "inactive_file"))
        elif "memory" in controllers.split(","):
            directory = os.path.join(root, "memory", path.lstrip("/"))
            room = _cgroup_room(directory, "memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")
            avail = min(avail, room)
    return avail


def _memory_available() -> float:
    """Bytes this process can still allocate: the least of the system's
    MemAvailable, the room left in the process's memory cgroup, and the
    address-space limit less what the process has mapped; inf where none is
    known."""
    avail = min(1024.0 * _proc_kib("/proc/meminfo", "MemAvailable", math.inf), _cgroup_available())
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        avail = min(avail, limit - 1024.0 * _proc_kib("/proc/self/status", "VmSize", 0.0))
    return avail


#: A whole `fracvar solve`'s tracemalloc peak, in arrays of n doubles, with
#: room to spare: 31.8-35.8 at n = 100001, its CSV written included
_ARRAYS_PER_SOLVE = 40


def _check_memory(n: int, arrays: int, what: str) -> None:
    """Refuse a command whose arrays would not fit before it makes them: the
    kernel's out-of-memory kill would leave no exit code and no message.
    `what`, say "a solve", peaks at about `arrays` arrays of n doubles."""
    need = 8.0 * arrays * n
    avail = _memory_available()
    if need > avail:
        raise MemoryError(
            f"{what} at n = {n} holds about {need / 2**20:.0f} MB of arrays of n doubles, "
            f"and {max(avail, 0.0) / 2**20:.0f} MB are available"
        )


def _solve(p: Problem, opts: SolverOptions) -> Solution:
    # an overflow in a trial point is a rejected step, never a warning
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _check_memory(p.grid.n, _ARRAYS_PER_SOLVE, "a solve")
        disc = Discretization(p)
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
