import dataclasses

import numpy as np
import pytest

from fracvar.fracgrid import FracOrder, Grid
from fracvar.lagrange_dsl import Lagrangian
from fracvar.reference import ReferenceSpec, boundary_value, ml_convolution_extremal
from fracvar.solver import (
    BracketFailureError,
    NoMinimizerError,
    Solution,
    SolverOptions,
    solve_isoperimetric,
    solve_unconstrained,
)
from fracvar.variational import Problem, constraint_value, discrete_gradient

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
            dict(lambda_bracket=[1.0]),
            dict(lambda_bracket=5.0),
            dict(lambda_bracket=[100.0, -100.0]),
            dict(lambda_bracket=[0.0, float("inf")]),
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

    def test_nonconvergence_reported(self):
        p = quadratic_problem(0.5, 1.0, 201, 1.0)
        sol = solve_unconstrained(p, SolverOptions(max_iters=1, grad_tol=1e-14))
        assert isinstance(sol, Solution)
        # one iteration cannot reach a 1e-14 gradient from the interpolant
        assert not sol.converged or sol.el_norm <= 1e-12


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

    @pytest.mark.parametrize("bracket", [(-1e6, 1e6), (0.0, 20.0)])
    def test_overshoot_into_indefinite(self, bracket):
        # from lambda = 0 the first bordered step overshoots to lambda = 24.7,
        # where F - lambda*G is indefinite but still definite on the
        # constraint's tangent space; the bracket (0, 20) holds the
        # multiplier but not that iterate
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
        sol = solve_isoperimetric(p, SolverOptions(lambda_bracket=bracket))
        assert sol.converged
        assert abs(sol.constraint_residual) <= 1e-9
        assert np.max(np.abs(discrete_gradient(p, sol.y, lam=sol.lam))) <= 1e-9
        # the multiplier-search solver's value, which met the constraint to 7e-10
        assert sol.lam == pytest.approx(15.919790187215412, rel=1e-9)

    def test_multiplier_outside_bracket(self):
        grid = Grid(0.0, 1.0, 101)
        spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
        p = quadratic_problem(0.5, 1.0, 101, boundary_value(spec), xi=1.0)
        # the multiplier is near 2
        with pytest.raises(BracketFailureError):
            solve_isoperimetric(p, SolverOptions(lambda_bracket=(-1.0, 1.0)))

    def test_bracket_failure(self):
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
        with pytest.raises(BracketFailureError):
            solve_isoperimetric(p, SolverOptions(lambda_bracket=(-100.0, 100.0)))
