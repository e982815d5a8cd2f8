import contextlib
import dataclasses
import functools
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import fracvar.solver
import fracvar.variational
from dense_oracle import dense_m, dense_shifted_solve, hessian_of
from fracvar.cli import _build_problem, main
from fracvar.fracgrid import FracOrder, Grid
from fracvar.lagrange_dsl import Lagrangian
from fracvar.reference import ReferenceSpec, boundary_value, ml_convolution_extremal
from fracvar.solver import (
    _ARRAYS_PER_SOLVE,
    AbnormalConstraintError,
    NoMinimizerError,
    Solution,
    SolverOptions,
    _cg,
    _Hessian,
    _shifted_solve,
    solve_isoperimetric,
    solve_unconstrained,
)
from fracvar.variational import Discretization, Problem, constraint_value, discrete_gradient, el_residual

V2 = Lagrangian.parse("v^2")
V = Lagrangian.parse("v")


def quadratic_problem(alpha, k, n, yb, xi=None, a=0.0, b=1.0):
    return Problem(
        f=V2,
        k=k,
        order=FracOrder(alpha),
        grid=Grid(a, b, n),
        ya=0.0,
        yb=yb,
        g=V if xi is not None else None,
        xi=xi,
    )


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.max_iters == 500
        assert opts.grad_tol == 1e-9
        assert opts.constraint_tol == 1e-9

    def test_validation(self):
        for kwargs in (
            dict(max_iters=0),
            dict(max_iters=2.7),
            dict(grad_tol=0.0),
            # integers beyond double range, as a JSON problem file can hold
            dict(max_iters=10**400),
            dict(grad_tol=10**400),
        ):
            with pytest.raises(ValueError):
                SolverOptions(**kwargs)

    def test_integral_float_max_iters(self):
        # a JSON number such as 500.0 names an integer count
        opts = SolverOptions(max_iters=500.0)
        assert opts.max_iters == 500 and isinstance(opts.max_iters, int)


class TestUnconstrained:
    def test_rejects_constrained(self):
        p = quadratic_problem(0.5, 1.0, 51, 1.0, xi=1.0)
        with pytest.raises(ValueError):
            solve_unconstrained(p)

    def test_affine_extremal_exact(self):
        # with k = 0 the affine interpolant is an exact discrete stationary
        # point, so the solver must return it to machine precision
        p = quadratic_problem(0.5, 0.0, 101, 1.0)
        sol = solve_unconstrained(p)
        assert sol.converged
        t = p.grid.nodes()
        assert np.max(np.abs(sol.y.values - t)) <= 1e-9
        assert sol.el_norm <= 1e-8
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_zero_trajectory(self):
        p = quadratic_problem(0.5, 1.0, 81, 0.0)
        sol = solve_unconstrained(p)
        assert sol.converged
        assert np.max(np.abs(sol.y.values)) <= 1e-9
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_classical_limit(self):
        # as alpha -> 1 the combined derivative tends to 2 y', so the
        # minimizer of the quadratic functional tends to the straight line
        p = quadratic_problem(0.999, 1.0, 501, 0.5)
        sol = solve_unconstrained(p)
        assert sol.converged
        t = p.grid.nodes()
        assert np.max(np.abs(sol.y.values - 0.5 * t)) <= 2e-2

    def test_gradient_certificate(self):
        p = Problem(
            f=Lagrangian.parse("v^2 + y^2"),
            k=1.0,
            order=FracOrder(0.3),
            grid=Grid(0.0, 1.0, 201),
            ya=0.0,
            yb=1.0,
        )
        sol = solve_unconstrained(p)
        assert sol.converged
        grad = discrete_gradient(p, sol.y)
        assert np.max(np.abs(grad)) <= 1e-9

    @staticmethod
    def indefinite_start_problem(c):
        # the Hessian is indefinite at the affine start, so the first steps
        # carry a Levenberg shift; the y^4 term bounds J below
        return Problem(
            f=Lagrangian.parse(f"v^2 - {c}*y^2 + y^4"),
            k=0.0,
            order=FracOrder(0.5),
            grid=Grid(0.0, 1.0, 401),
            ya=0.0,
            yb=1.0,
        )

    def test_indefinite_start(self):
        p = self.indefinite_start_problem(15)
        sol = solve_unconstrained(p)
        assert sol.converged
        assert np.max(np.abs(discrete_gradient(p, sol.y))) <= 1e-9
        assert sol.objective == pytest.approx(-17.10634854169496, rel=1e-9)

    def test_indefinite_iterate_not_proof(self):
        # the Hessian stays indefinite for the first 7 iterates; stopped by
        # the cap there, a problem that has a minimizer is not converged,
        # which is not an error
        sol = solve_unconstrained(self.indefinite_start_problem(40), SolverOptions(max_iters=2))
        assert not sol.converged
        assert sol.iterations == 2

    @pytest.mark.parametrize("constrained", [False, True])
    def test_saddle_not_converged(self, constrained):
        # y = 0 is stationary and the start; -100*y^2 makes it a saddle, also
        # on the tangent space of int y = 0, which holds the mode sin(2 pi t)
        p = dataclasses.replace(self.indefinite_start_problem(100), yb=0.0)
        if constrained:
            p = dataclasses.replace(p, g=Lagrangian.parse("y"), xi=0.0)
        with pytest.raises(NoMinimizerError):
            (solve_isoperimetric if constrained else solve_unconstrained)(p)

    def test_zero_diagonal_hessian(self):
        # at k = 0 the Hessian of y*v is zero on the diagonal and indefinite
        # (eigenvalues +-0.125 at n = 21); a shift ladder scaled by the
        # diagonal started at 1e-8 * tiny and overflowed 10^j at j = 309
        p = Problem(Lagrangian.parse("y*v"), 0.0, FracOrder(0.5), Grid(0.0, 1.0, 21), 0.0, 1.0)
        with pytest.raises(NoMinimizerError):
            solve_unconstrained(p)

    def test_nonconvergence_reported(self):
        p = quadratic_problem(0.5, 1.0, 201, 1.0)
        sol = solve_unconstrained(p, SolverOptions(max_iters=1, grad_tol=1e-14))
        assert isinstance(sol, Solution)
        # one iteration cannot reach a 1e-14 gradient from the interpolant
        assert not sol.converged or sol.el_norm <= 1e-12

    def test_roundoff_floor_stops(self):
        # at the roundoff floor a full step that lowers the gradient only by
        # noise used to be taken, at the cost of one more Hessian; here that
        # gave 5 or 6 steps depending on yb
        steps = set()
        for yb in np.linspace(0.99, 1.01, 9):
            p = Problem(Lagrangian.parse("v^4+y^2"), 0.7, FracOrder(0.3), Grid(0.0, 1.0, 1001), 0.0, float(yb))
            sol = solve_unconstrained(p)
            assert sol.converged
            steps.add(sol.iterations)
        assert steps == {5}

    def test_overflowing_trial_points_rejected(self, monkeypatch):
        # full steps toward yb = -20 overflow exp(y); such trial points are
        # rejected steps, never a warning or an error
        rejected = []
        evaluate = fracvar.solver._evaluate

        def counted(*args):
            try:
                return evaluate(*args)
            except ArithmeticError:
                rejected.append(args[1])
                raise

        monkeypatch.setattr(fracvar.solver, "_evaluate", counted)
        p = Problem(Lagrangian.parse("sqrt(1+v^2)+exp(y)"), 0.7, FracOrder(0.3), Grid(0.0, 1.0, 51), 0.0, -20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_unconstrained(p)
        assert sol.converged
        assert rejected
        assert np.max(np.abs(discrete_gradient(p, sol.y))) <= 1e-9

    def test_line_search_gives_up_after_40_halvings(self, monkeypatch):
        # every trial point fails: the line search halves 40 times, then the
        # solve stops unconverged at its start
        calls = []
        evaluate = fracvar.solver._evaluate

        def failing(*args):
            calls.append(args[1])
            if len(calls) > 1:
                raise FloatingPointError("overflow encountered")
            return evaluate(*args)

        monkeypatch.setattr(fracvar.solver, "_evaluate", failing)
        p = Problem(Lagrangian.parse("v^4+y^2"), 0.7, FracOrder(0.3), Grid(0.0, 1.0, 21), 0.0, 1.0)
        sol = solve_unconstrained(p)
        assert not sol.converged
        assert sol.iterations == 0
        assert len(calls) == 41


class TestIsoperimetric:
    def test_rejects_unconstrained(self):
        p = quadratic_problem(0.5, 1.0, 51, 1.0)
        with pytest.raises(ValueError):
            solve_isoperimetric(p)

    def test_trivial_feasible(self):
        p = quadratic_problem(0.5, 1.0, 81, 0.0, xi=0.0)
        sol = solve_isoperimetric(p)
        assert sol.converged
        assert np.max(np.abs(sol.y.values)) <= 1e-8
        assert abs(sol.constraint_residual) <= 1e-9

    def test_quadratic_family_certificates(self):
        grid = Grid(0.0, 1.0, 501)
        spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
        p = quadratic_problem(0.5, 1.0, 501, boundary_value(spec), xi=1.0)
        sol = solve_isoperimetric(p)
        assert sol.converged
        # F - lambda*G is quadratic: the bordered Newton system is solved once
        assert sol.iterations <= 3
        # certificates re-derived from the trajectory, not trusted from the
        # solver's own bookkeeping
        assert constraint_value(p, sol.y) - 1.0 == pytest.approx(0.0, abs=1e-9)
        grad = discrete_gradient(p, sol.y, lam=sol.lam)
        assert np.max(np.abs(grad)) <= 1e-8
        # the continuum multiplier of this family is 2 * xi
        assert sol.lam == pytest.approx(2.0, abs=5e-2)

    def test_refinement_toward_reference(self):
        errs = []
        lams = []
        for n in (251, 501, 1001):
            grid = Grid(0.0, 1.0, n)
            spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
            y_ref = ml_convolution_extremal(spec)
            p = quadratic_problem(0.5, 1.0, n, float(y_ref.values[-1]), xi=1.0)
            sol = solve_isoperimetric(p)
            assert sol.converged
            errs.append(float(np.max(np.abs(sol.y.values - y_ref.values))))
            lams.append(sol.lam)
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 5e-3
        for lam in lams:
            assert lam == pytest.approx(2.0, abs=5e-2)

    @pytest.mark.parametrize(
        "source, lam_exact", [("v^4", 4.0), ("exp(v)", math.e), ("sqrt(1+v^2)", 1.0 / math.sqrt(2.0))]
    )
    def test_reference_for_every_f_of_v(self, source, lam_exact):
        # v = xi / b meets the constraint and F'(v) = lambda for every F(v),
        # so the reference is the extremal, and lambda = F'(xi / b)
        y_errs, lam_errs = [], []
        for n in (251, 501, 1001, 2001):
            grid = Grid(0.0, 1.0, n)
            spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
            p = quadratic_problem(0.5, 1.0, n, boundary_value(spec), xi=1.0)
            sol = solve_isoperimetric(dataclasses.replace(p, f=Lagrangian.parse(source)))
            assert sol.converged
            y_errs.append(float(np.max(np.abs(sol.y.values - ml_convolution_extremal(spec).values))))
            lam_errs.append(abs(sol.lam - lam_exact))
        for errs in (y_errs, lam_errs):
            assert all(math.log2(e0 / e1) >= 0.9 for e0, e1 in zip(errs, errs[1:])), errs
        assert lam_errs[-1] <= 5e-3 * lam_exact

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_reference_off_the_unit_interval(self, b):
        # on [0, b] the extremal has v = xi / b, so lambda = 2 xi / b
        grid = Grid(0.0, b, 801)
        spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
        y_ref = ml_convolution_extremal(spec)
        p = quadratic_problem(0.5, 1.0, 801, float(y_ref.values[-1]), xi=1.0, b=b)
        sol = solve_isoperimetric(p)
        assert sol.converged
        assert sol.lam == pytest.approx(2.0 / b, rel=1e-2)
        assert np.max(np.abs(sol.y.values - y_ref.values)) <= 1e-3

    def test_multiplier_scales_with_xi(self):
        grid = Grid(0.0, 1.0, 301)
        lams = {}
        for xi in (0.5, 2.0):
            spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=xi, grid=grid)
            p = quadratic_problem(0.5, 1.0, 301, boundary_value(spec), xi=xi)
            sol = solve_isoperimetric(p)
            assert sol.converged
            lams[xi] = sol.lam
        assert lams[2.0] / lams[0.5] == pytest.approx(4.0, rel=1e-6)
        assert lams[0.5] == pytest.approx(1.0, abs=3e-2)

    def test_nonlinear_constraint(self):
        p = Problem(
            f=Lagrangian.parse("v^2+y^2"),
            k=1.0,
            order=FracOrder(0.5),
            grid=Grid(0.0, 1.0, 301),
            ya=0.0,
            yb=1.0,
            g=Lagrangian.parse("y^2"),
            xi=0.5,
        )
        sol = solve_isoperimetric(p)
        assert sol.converged
        assert abs(constraint_value(p, sol.y) - 0.5) <= 1e-9
        assert np.max(np.abs(discrete_gradient(p, sol.y, lam=sol.lam))) <= 1e-9
        assert sol.lam == pytest.approx(6.342587721923476, rel=1e-7)

    def test_overshoot_into_indefinite(self):
        # from lambda = 0 the first bordered step overshoots to lambda = 24.7,
        # where F - lambda*G is indefinite but still definite on the
        # constraint's tangent space
        p = Problem(
            f=V2,
            k=1.0,
            order=FracOrder(0.5),
            grid=Grid(0.0, 1.0, 201),
            ya=0.0,
            yb=1.0,
            g=Lagrangian.parse("y^2"),
            xi=10.0,
        )
        sol = solve_isoperimetric(p)
        assert sol.converged
        assert abs(sol.constraint_residual) <= 1e-9
        assert np.max(np.abs(discrete_gradient(p, sol.y, lam=sol.lam))) <= 1e-9
        # the multiplier-search solver's value, which met the constraint to 7e-10
        assert sol.lam == pytest.approx(15.919790187215412, rel=1e-9)

    @staticmethod
    def squared_constraint_problem(xi, n):
        return Problem(V2, 1.0, FracOrder(0.5), Grid(0.0, 1.0, n), 0.0, 1.0, Lagrangian.parse("y^2"), xi)

    def test_indefinite_off_the_tangent_space(self):
        # the first step lands at lambda = 101.5, where F - lambda*G is
        # indefinite on the constraint's tangent space; shifting all of the
        # Hessian there also bent the multiplier step, and every backtrack failed
        p = self.squared_constraint_problem(40.0, 601)
        sol = solve_isoperimetric(p)
        assert sol.converged
        assert abs(constraint_value(p, sol.y) - 40.0) <= 1e-9
        assert np.max(np.abs(discrete_gradient(p, sol.y, lam=sol.lam))) <= 1e-9

    def test_roundoff_floor_stops(self):
        # at the roundoff floor the KKT 2-norm is noise summed over the nodes:
        # a full step that lowers the max-norm below the target was rejected
        # on it, and null backtracked steps ran to the cap
        sol = solve_isoperimetric(self.squared_constraint_problem(10.0, 1001), SolverOptions(max_iters=20))
        assert sol.converged
        assert sol.iterations <= 10

    def test_unbounded_on_constraint_set(self):
        # int y = 0.3 is an affine set on which the quadratic J has the
        # indefinite Hessian of v^2 - 100*y^2 everywhere
        f, g = Lagrangian.parse("v^2 - 100*y^2"), Lagrangian.parse("y")
        p = Problem(f, 1.0, FracOrder(0.5), Grid(0.0, 1.0, 201), 0.0, 1.0, g, 0.3)
        with pytest.raises(NoMinimizerError):
            solve_isoperimetric(p)

    def test_abnormal_constraint(self):
        # a constraint functional that does not depend on the trajectory can
        # never be steered by the multiplier
        p = Problem(
            f=V2,
            k=1.0,
            order=FracOrder(0.5),
            grid=Grid(0.0, 1.0, 31),
            ya=0.0,
            yb=1.0,
            g=Lagrangian.parse("1"),
            xi=5.0,
        )
        with pytest.raises(AbnormalConstraintError):
            solve_isoperimetric(p)


class _MatrixHessian:
    """A symmetric matrix in the solver's Hessian's place: its products, the
    projection onto the tangent space of a, no preconditioner, and |K|_inf."""

    def __init__(self, k, a=None):
        self.k = k
        self.u = None if a is None else a / np.linalg.norm(a)
        self.scale = float(np.max(np.sum(np.abs(k), axis=1)))

    def __call__(self, x):
        return self.k @ x

    def project(self, x):
        return x if self.u is None else x - np.dot(self.u, x) * self.u

    def precondition(self, r):
        return r


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("margin", [0.05, -0.05])
def test_negative_curvature_matches_null_space(seed, margin):
    # a symmetric matrix shifted so that its least eigenvalue on the
    # orthogonal complement of a is margin, against an explicit basis of it:
    # CG from a probe on that space needs a shift past mu0 exactly when the
    # margin is negative
    rng = np.random.default_rng(seed)
    n = 30
    b = rng.standard_normal((n, n))
    a = rng.standard_normal(n)
    basis = scipy.linalg.null_space(a[None, :])
    k = b + b.T
    k += (margin - np.linalg.eigvalsh(basis.T @ k @ basis)[0]) * np.eye(n)
    assert np.linalg.eigvalsh(basis.T @ k @ basis)[0] == pytest.approx(margin, abs=1e-10)
    hess = _MatrixHessian(k, a)
    probe = hess.project(rng.standard_normal(n))
    x, indefinite = _shifted_solve(hess, probe, 1e-10)
    assert indefinite == (margin < 0.0)
    if not indefinite:
        # the unshifted tangent-space solve
        assert np.max(np.abs(hess.project(k @ x) - probe)) <= 1e-10
        assert abs(np.dot(hess.u, x)) <= 1e-12


class TestConjugateGradients:
    @staticmethod
    def system(n=40, seed=4):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (q * np.linspace(1.0, 10.0, n)) @ q.T, rng.standard_normal(n)

    def test_stops_at_the_target(self):
        k, b = self.system()
        x, its = _cg(lambda p: k @ p, lambda r: r, b, 1e-6, 100)
        assert np.max(np.abs(k @ x - b)) <= 1.01e-6
        # one more iteration would have been taken for a tenfold tighter target
        assert _cg(lambda p: k @ p, lambda r: r, b, 1e-7, 100)[1] > its

    def test_stops_at_the_roundoff_floor(self):
        # with |b| = 1e12 an absolute target of 1e-13 is below what roundoff
        # lets the residual reach; the relative floor ends CG far from the cap
        k, b = self.system()
        b *= 1e12 / np.linalg.norm(b)
        x, its = _cg(lambda p: k @ p, lambda r: r, b, 1e-13, 10_000)
        assert its < 100
        assert np.linalg.norm(k @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_meets_negative_curvature(self):
        k, b = self.system()
        k[0, 0] = -5.0
        x, its = _cg(lambda p: k @ p, lambda r: r, b, 1e-10, 100)
        assert x is None and its < 100

    def test_zero_right_hand_side(self):
        k, b = self.system()
        x, its = _cg(lambda p: k @ p, lambda r: r, np.zeros_like(b), 1e-10, 100)
        assert its == 0 and not np.any(x)


def hessian_point(source, k, n, alpha=0.3):
    """A problem, its Discretization and a point (y, v) off every extremal."""
    p = Problem(Lagrangian.parse(source), k, FracOrder(alpha), Grid(0.0, 1.0, n), 0.0, 1.0)
    disc = Discretization(p)
    t = p.grid.nodes()
    y = t + 0.3 * np.sin(math.pi * t)
    return p, disc, y, disc.v(y)


class TestHessianProduct:
    def test_matches_gradient_differences(self):
        p, disc, y, v = hessian_point("v^4 + sin(t) * y^2 + y*v", 0.7, 41)
        hess = _Hessian(disc, p.f, y, v, None)
        eps = 1e-6
        for j in (0, 7, 20, 38):
            e = np.zeros(p.grid.n)
            e[j + 1] = eps
            plus, minus = y + e, y - e
            fd = (disc.gradient(p.f, plus, disc.v(plus)) - disc.gradient(p.f, minus, disc.v(minus)))[1:-1]
            column = hess(e[1:-1] / eps)
            np.testing.assert_allclose(column, fd / (2.0 * eps), rtol=1e-6, atol=1e-6 * np.max(np.abs(column)))

    @pytest.mark.parametrize("n", [5, 6, 7, 41, 203])
    @pytest.mark.parametrize("k", [0.0, 0.7])
    @pytest.mark.parametrize("source", ["v^4 + sin(t) * y^2", "v^4 + sin(t) * y^2 + y*v"])
    def test_dense_oracle_matches_dense_product(self, n, k, source):
        # the oracle's column-block assembly against M^T W M + C + C^T +
        # diag(w H_yy), with W = diag(w H_vv) and C = diag(w H_yv) M, all n x n
        p, disc, y, v = hessian_point(source, k, n)
        t = p.grid.nodes()
        m = dense_m(disc)
        w = p.grid.h * np.r_[0.25, 1.25, np.ones(n - 4), 1.25, 0.25]
        cross = (w * p.f.dyv(t, y, v))[:, None] * m
        dense = m.T @ ((w * p.f.dvv(t, y, v))[:, None] * m) + cross + cross.T
        dense += np.diag(w * p.f.dyy(t, y, v))
        hess = hessian_of(disc, p.f, y, v)
        assert np.max(np.abs(hess - dense[1:-1, 1:-1])) <= 1e-13 * np.max(np.abs(dense))
        np.testing.assert_array_equal(hess, hess.T)

    @pytest.mark.parametrize("n", [5, 101, 1001])
    @pytest.mark.parametrize("k", [0.0, 0.7, -1.0])
    @pytest.mark.parametrize("source", ["v^4 + sin(t) * y^2", "v^4 + sin(t) * y^2 + y*v"])
    def test_matches_dense_oracle(self, n, k, source):
        # four FFTs per product, against the dense interior Hessian
        p, disc, y, v = hessian_point(source, k, n)
        hess = _Hessian(disc, p.f, y, v, None)
        dense = hessian_of(disc, p.f, y, v)
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n - 2), np.sin(np.arange(n - 2)), np.eye(n - 2)[n // 2]):
            want = dense @ x
            assert np.max(np.abs(hess(x) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "source, k",
        [("v^4 + sin(t) * y^2 + y*v", 0.7), ("y*v", 0.0), ("v^2", -1.0), ("exp(v) + y^2", 0.3), ("v^2 - 15*y^2", 0.0)],
    )
    @pytest.mark.parametrize("n", [5, 101, 1001])
    def test_shift_scale_bounds_the_hessian(self, source, k, n):
        # mu0 = 1e-8 scale is scaled by a bound on |K|_inf, not by K's
        # diagonal, which is zero for y*v at k = 0
        p, disc, y, v = hessian_point(source, k, n)
        norm = np.max(np.sum(np.abs(hessian_of(disc, p.f, y, v)), axis=1))
        assert norm <= _Hessian(disc, p.f, y, v, None).scale <= 100.0 * norm


class TestConvexCertificate:
    @pytest.mark.parametrize(
        "source, convex, indefinite",
        [
            ("v^4 + y^2", True, False),
            ("sqrt(1+v^2)", True, False),
            ("exp(v) + y^2", True, False),
            ("v^2 + y^2 + y*v", True, False),
            # H = [[2, 2], [2, 2]] is singular at every node: K >= 0, not > 0
            ("v^2 + 2*y*v + y^2", True, False),
            # H_yv^2 = 25 > H_vv H_yy = 24 v^2 where |v| < 1.02; K is still
            # definite there, so the certificate is sufficient, not necessary
            ("v^4 + y^2 + 5*y*v", False, False),
            # H_vv < 0 at the boundary node t = 0 alone: every node counts
            ("(t - 0.001)*v^2", False, False),
            ("v^2 - 15*y^2", False, True),
            ("v^2 - 15*y^2 + y*v", False, True),
        ],
    )
    @pytest.mark.parametrize("k", [0.0, 0.7])
    def test_agrees_with_least_eigenvalue(self, source, convex, indefinite, k):
        # the pointwise certificate against the dense oracle's spectrum:
        # where it holds, K has no eigenvalue below roundoff of |K|
        p, disc, y, v = hessian_point(source, k, 101)
        hess = _Hessian(disc, p.f, y, v, None)
        assert hess.convex is convex
        least = np.linalg.eigvalsh(hessian_of(disc, p.f, y, v))[0]
        assert (least < -1e-12 * hess.scale) == indefinite


#: The benchmark's solve problems: the criterion-4 problem, v^2+y^2 under
#: G = v, and three nonlinear Lagrangians at k = 0.7, alpha = 0.3.
BENCHMARK_PROBLEMS = [
    dict(F="v^2", G="v", xi=1.0, alpha=0.5, k=1.0, ya=0.0, yb="auto-reference"),
    dict(F="v^2+y^2", G="v", xi=1.0, alpha=0.5, k=1.0, ya=0.0, yb=0.6),
    dict(F="v^4+y^2", alpha=0.3, k=0.7, ya=0.0, yb=1.0),
    dict(F="sqrt(1+v^2)", alpha=0.3, k=0.7, ya=0.0, yb=1.0),
    dict(F="exp(v)+y^2", alpha=0.3, k=0.7, ya=0.0, yb=1.0),
]


@pytest.mark.parametrize("n", [1001, 4001, 16001])
def test_no_benchmark_problem_reaches_the_cg_cap(monkeypatch, n):
    runs = []
    cg = fracvar.solver._cg

    def recorded(apply, precondition, b, target, cap):
        x, its = cg(apply, precondition, b, target, cap)
        runs.append((its, cap))
        return x, its

    monkeypatch.setattr(fracvar.solver, "_cg", recorded)
    for doc in BENCHMARK_PROBLEMS:
        p = _build_problem(dict(doc, a=0.0, b=1.0, n=n))
        assert (solve_isoperimetric if p.constrained else solve_unconstrained)(p).converged
    assert runs and all(its < cap for its, cap in runs)
    # and CG's iterations do not grow with n
    assert max(its for its, _ in runs) <= 100


def test_cg_budget_on_the_benchmark_problems(monkeypatch):
    # Newton steps on a Hessian proven convex are solved only to their
    # forcing term, and no convex final iterate is probed: 413 iterations
    # on the three unconstrained problems with every step solved to the
    # final target, 213 now
    runs = []
    cg = fracvar.solver._cg

    def recorded(*args):
        x, its = cg(*args)
        runs.append(its)
        return x, its

    monkeypatch.setattr(fracvar.solver, "_cg", recorded)
    totals, steps = [], []
    for doc in BENCHMARK_PROBLEMS:
        runs.clear()
        p = _build_problem(dict(doc, a=0.0, b=1.0, n=1001))
        sol = (solve_isoperimetric if p.constrained else solve_unconstrained)(p)
        assert sol.converged
        totals.append(sum(runs))
        steps.append(sol.iterations)
    assert all(n <= most for n, most in zip(steps, [2, 2, 5, 11, 4]))
    assert sum(totals[2:]) <= 250


@pytest.mark.parametrize(
    "doc, probed",
    [
        (dict(F="v^2", G="v", xi=1.0, alpha=0.5, k=1.0, ya=0.0, yb="auto-reference"), False),
        (dict(F="v^2 - 15*y^2 + y^4", alpha=0.5, k=0.0, ya=0.0, yb=1.0), True),
    ],
)
def test_final_probe_runs_where_convexity_is_unproven(monkeypatch, doc, probed):
    # one shifted solve per Newton step, and one more, from the probe, at a
    # final iterate whose Hessian is not proven convex
    convex = []
    shifted_solve = fracvar.solver._shifted_solve

    def recorded(hess, b, target):
        convex.append(hess.convex)
        return shifted_solve(hess, b, target)

    monkeypatch.setattr(fracvar.solver, "_shifted_solve", recorded)
    p = _build_problem(dict(doc, a=0.0, b=1.0, n=401))
    sol = (solve_isoperimetric if p.constrained else solve_unconstrained)(p)
    assert sol.converged
    assert convex[-1] is not probed
    assert len(convex) == sol.iterations + probed


def _solve_cli(tmp_path, tag, doc):
    problem, out = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
    problem.write_text(json.dumps(dict(doc, a=0.0, b=1.0)), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["solve", str(problem), "--out", str(out)])
    if not out.exists():
        return code, None, None
    summary = json.loads(stdout.getvalue())
    return code, summary, np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]


#: The benchmark's five problems; five with ya != 0 (one at k = 0); and the
#: nonconvex and indefinite problems of the tests above.
ORACLE_PROBLEMS = [dict(doc, n=1001) for doc in BENCHMARK_PROBLEMS] + [
    dict(F="v^2+y^2", alpha=0.75, k=1.0, n=501, ya=0.3, yb=1.0),
    dict(F="v^4+y^2", alpha=0.5, k=-0.5, n=401, ya=-0.4, yb=0.7),
    dict(F="v^2", G="y^2", xi=0.5, alpha=0.5, k=1.0, n=301, ya=0.2, yb=1.0),
    dict(F="v^4+y*v+y^2", alpha=0.3, k=0.9, n=401, ya=0.1, yb=1.0),
    dict(F="v^2+y^2", alpha=0.4, k=0.0, n=201, ya=1.5, yb=-1.0),
    dict(F="v^2 - 15*y^2 + y^4", alpha=0.5, k=0.0, n=401, ya=0.0, yb=1.0),
    dict(F="v^2 - 40*y^2 + y^4", alpha=0.5, k=0.0, n=401, ya=0.0, yb=1.0, solver={"max_iters": 2}),
    dict(F="v^2 - 100*y^2 + y^4", alpha=0.5, k=0.0, n=401, ya=0.0, yb=0.0),
    dict(F="v^2 - 100*y^2 + y^4", G="y", xi=0.0, alpha=0.5, k=0.0, n=401, ya=0.0, yb=0.0),
    dict(F="y*v", alpha=0.5, k=0.0, n=21, ya=0.0, yb=1.0),
    dict(F="v^2 - 30*y^2", alpha=0.5, k=1.0, n=201, ya=0.0, yb=1.0),
    dict(F="v^2 - 100*y^2", G="y", xi=0.3, alpha=0.5, k=1.0, n=201, ya=0.0, yb=1.0),
    dict(F="v^2", G="y^2", xi=10.0, alpha=0.5, k=1.0, n=201, ya=0.0, yb=1.0),
    dict(F="v^2", G="y^2", xi=40.0, alpha=0.5, k=1.0, n=601, ya=0.0, yb=1.0),
    dict(F="v^2+y^2", G="y^2", xi=0.5, alpha=0.5, k=1.0, n=301, ya=0.0, yb=1.0),
]


@pytest.mark.parametrize("doc", ORACLE_PROBLEMS, ids=lambda doc: f"{doc['F']}|{doc.get('G')}|n={doc['n']}")
def test_agrees_with_dense_newton(tmp_path, monkeypatch, doc):
    # fracvar solve, then the same Newton iteration with its linear algebra
    # dense: the oracle's Hessian, a Cholesky test and np.linalg.solve
    code, summary, y = _solve_cli(tmp_path, "cg", doc)
    monkeypatch.setattr(fracvar.solver, "_shifted_solve", dense_shifted_solve)
    dense_code, dense_summary, dense_y = _solve_cli(tmp_path, "dense", doc)
    assert code == dense_code
    if summary is None:
        assert dense_summary is None
        return
    assert summary["converged"] == dense_summary["converged"]
    assert np.max(np.abs(y - dense_y)) <= 1e-10
    if summary["lambda"] is not None:
        assert summary["lambda"] == pytest.approx(dense_summary["lambda"], rel=0.0, abs=1e-10)


@pytest.mark.parametrize("g, xi", [("v", 1.0), ("y^2", 40.0)])
def test_solve_peak_memory(g, xi):
    # no n x n array: the GL weights, their transform, and a few dozen
    # arrays of n doubles in the Newton steps and their CG
    n = 401
    grid = Grid(0.0, 1.0, n)
    # G = v is the criterion-4 problem, which ends at the reference extremal's y(b)
    yb = boundary_value(ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=xi, grid=grid)) if g == "v" else 1.0
    p = Problem(V2, 1.0, FracOrder(0.5), grid, 0.0, yb, Lagrangian.parse(g), xi)
    tracemalloc.start()
    try:
        sol = solve_isoperimetric(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak <= _ARRAYS_PER_SOLVE * 8 * n


def test_solve_peak_memory_with_cross_term():
    # H_yv = 1 adds two products to each Hessian product, with nothing held
    n = 401
    p = Problem(Lagrangian.parse("v^4+y*v+y^2"), 0.9, FracOrder(0.3), Grid(0.0, 1.0, n), 0.0, 1.0)
    tracemalloc.start()
    try:
        sol = solve_unconstrained(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak <= _ARRAYS_PER_SOLVE * 8 * n


def test_criterion_four_at_16001_nodes_is_linear_in_memory():
    # one n x n matrix of doubles would be 2 GB here
    n = 16001
    grid = Grid(0.0, 1.0, n)
    p = quadratic_problem(0.5, 1.0, n, boundary_value(ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)), xi=1.0)
    tracemalloc.start()
    try:
        sol = solve_isoperimetric(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert sol.lam == pytest.approx(2.0, rel=1e-3)
    assert peak <= _ARRAYS_PER_SOLVE * 8 * n


class TestMemoryCheck:
    N = 100_001
    PROBLEM = Problem(V2, 1.0, FracOrder(0.5), Grid(0.0, 1.0, N), 0.0, 1.0)

    def test_refused_before_the_newton_loop(self, monkeypatch):
        # room for half the arrays a solve holds: refused before any step,
        # and before the operator's weights, nodes and quadrature are made
        monkeypatch.setattr(fracvar.solver, "_memory_available", lambda: 0.5 * _ARRAYS_PER_SOLVE * 8 * self.N)
        monkeypatch.setattr(
            fracvar.variational, "assemble_frac_operator", lambda *args: pytest.fail("the operator was assembled")
        )
        monkeypatch.setattr(fracvar.solver, "_newton", lambda *args: pytest.fail("the Newton loop started"))
        with pytest.raises(MemoryError, match=f"a solve at n = {self.N} holds about 31 MB of arrays of n doubles"):
            solve_unconstrained(self.PROBLEM)

    def test_room_for_the_solve(self, monkeypatch):
        n = 401
        monkeypatch.setattr(fracvar.solver, "_memory_available", lambda: _ARRAYS_PER_SOLVE * 8 * n)
        assert solve_unconstrained(dataclasses.replace(self.PROBLEM, grid=Grid(0.0, 1.0, n))).converged

    def test_probe_reads_the_address_space_limit(self, monkeypatch):
        assert fracvar.solver._memory_available() > 0.0
        limit = 2**31
        monkeypatch.setattr(fracvar.solver.resource, "getrlimit", lambda which: (limit, limit))
        assert fracvar.solver._memory_available() < limit

    def test_probe_reads_the_cgroup_limit(self, monkeypatch):
        monkeypatch.setattr(fracvar.solver, "_cgroup_available", lambda: 2.0**20)
        assert fracvar.solver._memory_available() == 2.0**20

    def test_probe_imports_no_codec(self):
        # the probe reads its files as UTF-8, whose codec every process has
        # loaded: its first call imports none
        code = (
            "import sys, fracvar.solver; before = 'encodings.ascii' in sys.modules; "
            "fracvar.solver._memory_available(); print(before, 'encodings.ascii' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        if out.split()[0] == "True":
            pytest.skip("this interpreter loads encodings.ascii at start-up")
        assert out.split() == ["False", "False"]


def cgroup_tree(tmp_path, membership, files):
    """A fake /proc/self/cgroup holding membership, and a cgroup mount with
    files, {relative path: content}; returns the two paths."""
    proc, root = tmp_path / "cgroup", tmp_path / "fs"
    proc.write_text(membership, encoding="ascii")
    for name, content in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(content, encoding="ascii")
    return str(proc), str(root)


class TestCgroupLimit:
    V1 = "5:devices:/\n4:memory:/jobs/j1\n1:cpu:/\n0::/\n"
    V2 = "0::/jobs/j1\n"

    @staticmethod
    def stat(key, value):
        """A memory.stat with key among its lines."""
        return f"anon 4096\n{key} {value}\nactive_file 8192\n"

    def available(self, tmp_path, membership, files):
        return fracvar.solver._cgroup_available(*cgroup_tree(tmp_path, membership, files))

    def test_v2_limit(self, tmp_path):
        files = {
            "jobs/j1/memory.max": "1000000\n",
            "jobs/j1/memory.current": "250000\n",
            "jobs/j1/memory.stat": self.stat("inactive_file", 50000),
        }
        assert self.available(tmp_path, self.V2, files) == 800_000

    def test_v2_max_is_no_limit(self, tmp_path):
        files = {
            "jobs/j1/memory.max": "max\n",
            "jobs/j1/memory.current": "250000\n",
            "jobs/j1/memory.stat": self.stat("inactive_file", 0),
        }
        assert self.available(tmp_path, self.V2, files) == math.inf

    def test_v1_limit(self, tmp_path):
        files = {
            "memory/jobs/j1/memory.limit_in_bytes": "2000000\n",
            "memory/jobs/j1/memory.usage_in_bytes": "500000\n",
            "memory/jobs/j1/memory.stat": self.stat("total_inactive_file", 100000),
        }
        assert self.available(tmp_path, self.V1, files) == 1_600_000

    def test_v1_page_rounded_int64_max_is_no_limit(self, tmp_path):
        files = {
            "memory/jobs/j1/memory.limit_in_bytes": "9223372036854771712\n",
            "memory/jobs/j1/memory.usage_in_bytes": "500000\n",
            "memory/jobs/j1/memory.stat": self.stat("total_inactive_file", 0),
        }
        assert self.available(tmp_path, self.V1, files) == math.inf

    def test_least_of_both_hierarchies(self, tmp_path):
        files = {
            "memory/jobs/j1/memory.limit_in_bytes": "2000000\n",
            "memory/jobs/j1/memory.usage_in_bytes": "500000\n",
            "memory/jobs/j1/memory.stat": self.stat("total_inactive_file", 0),
            "jobs/j1/memory.max": "1000000\n",
            "jobs/j1/memory.current": "0\n",
            "jobs/j1/memory.stat": self.stat("inactive_file", 0),
        }
        assert self.available(tmp_path, "4:memory:/jobs/j1\n0::/jobs/j1\n", files) == 1_000_000

    def test_cache_at_the_limit_is_room(self, tmp_path, monkeypatch):
        # a cgroup whose usage is at its limit, nearly all of it inactive page
        # cache the kernel reclaims on demand, still has room for a solve
        files = {
            "jobs/j1/memory.max": "1073741824\n",
            "jobs/j1/memory.current": "1073741824\n",
            "jobs/j1/memory.stat": self.stat("inactive_file", 1000000000),
        }
        tree = cgroup_tree(tmp_path, self.V2, files)
        available = fracvar.solver._cgroup_available
        assert available(*tree) == 1_000_000_000
        monkeypatch.setattr(fracvar.solver, "_cgroup_available", lambda: available(*tree))
        assert solve_unconstrained(dataclasses.replace(TestMemoryCheck.PROBLEM, grid=Grid(0.0, 1.0, 101))).converged

    def test_missing_file_is_no_limit(self, tmp_path):
        assert self.available(tmp_path, self.V2, {"jobs/j1/memory.max": "1000000\n"}) == math.inf
        files = {"jobs/j1/memory.max": "1000000\n", "jobs/j1/memory.current": "250000\n"}
        assert self.available(tmp_path, self.V2, files) == math.inf
        files["jobs/j1/memory.stat"] = "active_file 0\n"
        assert self.available(tmp_path, self.V2, files) == math.inf
        assert fracvar.solver._cgroup_available(str(tmp_path / "absent"), str(tmp_path)) == math.inf

    def test_unreadable_file_is_no_limit(self, tmp_path):
        proc, root = cgroup_tree(tmp_path, self.V2, {"jobs/j1/memory.current": "250000\n"})
        (tmp_path / "fs" / "jobs" / "j1" / "memory.max").mkdir()
        assert fracvar.solver._cgroup_available(proc, root) == math.inf

    def test_malformed_membership_line_is_skipped(self, tmp_path):
        files = {
            "jobs/j1/memory.max": "1000000\n",
            "jobs/j1/memory.current": "250000\n",
            "jobs/j1/memory.stat": self.stat("inactive_file", 50000),
        }
        assert self.available(tmp_path, "garbage\n" + self.V2, files) == 800_000

    def test_missing_proc_file_is_the_default(self, tmp_path):
        assert fracvar.solver._proc_kib(str(tmp_path / "absent"), "MemAvailable", 7.0) == 7.0

    def test_undecodable_membership_is_no_limit(self, tmp_path):
        proc = tmp_path / "cgroup"
        proc.write_bytes("0::/caf\u00e9\n".encode("utf-8"))
        assert fracvar.solver._cgroup_available(str(proc), str(tmp_path)) == math.inf


class TestHessianBuilds:
    @staticmethod
    def count_builds(monkeypatch):
        builds = []

        class Counted(fracvar.solver._Hessian):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(fracvar.solver, "_Hessian", Counted)
        return builds

    def test_quadratic_with_affine_constraint_builds_one_preconditioner(self, monkeypatch):
        # criterion 4's problem: F - lambda*G has one Hessian for every
        # (y, lambda); it and its preconditioner are built once, for the
        # steps and the final curvature test
        grid = Grid(0.0, 1.0, 201)
        spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
        p = quadratic_problem(0.5, 1.0, 201, boundary_value(spec), xi=1.0)
        builds = self.count_builds(monkeypatch)
        sol = solve_isoperimetric(p)
        assert sol.converged and sol.iterations >= 1
        assert len(builds) == 1

    def test_circulant_is_built_once_per_solve(self, monkeypatch):
        # K is rebuilt at every Newton step of v^4+y^2; the Strang circulant
        # and M's norm bound depend on the grid alone and are built once
        circulants = []
        build = Discretization.__dict__["circulant"].func

        def counted(disc):
            circulants.append(disc)
            return build(disc)

        prop = functools.cached_property(counted)
        prop.__set_name__(Discretization, "circulant")
        monkeypatch.setattr(Discretization, "circulant", prop)
        hessians = self.count_builds(monkeypatch)
        p = Problem(Lagrangian.parse("v^4+y^2"), 0.7, FracOrder(0.3), Grid(0.0, 1.0, 201), 0.0, 1.0)
        sol = solve_unconstrained(p)
        assert sol.converged and sol.iterations >= 3
        assert len(hessians) == sol.iterations + 1
        assert len(circulants) == 1

    @pytest.mark.parametrize(
        "f, g",
        [
            ("v^4 + y^2", None),
            # quadratic F, but the Hessian of F - lambda*G moves with lambda
            ("v^2", "y^2"),
        ],
    )
    def test_nonconstant_builds_one_per_step(self, monkeypatch, f, g):
        # one Hessian and preconditioner per Newton step, and one at the final iterate
        p = Problem(
            f=Lagrangian.parse(f),
            k=1.0,
            order=FracOrder(0.5),
            grid=Grid(0.0, 1.0, 201),
            ya=0.0,
            yb=1.0,
            g=None if g is None else Lagrangian.parse(g),
            xi=None if g is None else 10.0,
        )
        builds = self.count_builds(monkeypatch)
        sol = (solve_unconstrained if g is None else solve_isoperimetric)(p)
        assert sol.converged and sol.iterations >= 2
        assert len(builds) == sol.iterations + 1


@pytest.mark.parametrize(
    "f, g",
    [
        ("v^4 + y^2", None),
        ("v^2", "v"),
        ("v^2", "y^2"),
    ],
)
class TestOneDiscretization:
    @staticmethod
    def problem(f, g):
        return Problem(
            f=Lagrangian.parse(f),
            k=0.7,
            order=FracOrder(0.3),
            grid=Grid(0.0, 1.0, 101),
            ya=0.0,
            yb=1.0,
            g=None if g is None else Lagrangian.parse(g),
            xi=None if g is None else 10.0,
        )

    @staticmethod
    def solve(p):
        sol = (solve_isoperimetric if p.constrained else solve_unconstrained)(p)
        assert sol.converged
        return sol

    def test_assembles_operator_once(self, monkeypatch, f, g):
        # the Newton steps and the certificate share one Discretization
        calls = []
        original = fracvar.variational.assemble_frac_operator

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fracvar.variational, "assemble_frac_operator", counted)
        self.solve(self.problem(f, g))
        assert len(calls) == 1

    def test_residual_is_the_public_certificate(self, f, g):
        p = self.problem(f, g)
        sol = self.solve(p)
        public = el_residual(p, sol.y, sol.lam)
        assert np.array_equal(sol.residual.values.values, public.values.values)
        assert sol.residual.norm_max_interior == public.norm_max_interior
        assert sol.residual.norm_l2_interior == public.norm_l2_interior
