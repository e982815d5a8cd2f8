import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import fracvar.solver
import fracvar.variational
from fracvar.fracgrid import FracOrder, Grid
from fracvar.lagrange_dsl import Lagrangian
from fracvar.reference import ReferenceSpec, boundary_value, ml_convolution_extremal
from fracvar.solver import (
    AbnormalConstraintError,
    NoMinimizerError,
    Solution,
    SolverOptions,
    _factor,
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


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("margin", [0.05, -0.05])
def test_tangent_definite_matches_null_space(seed, margin):
    # a symmetric matrix shifted so that its least eigenvalue on the
    # orthogonal complement of a is margin, against an explicit basis of it
    rng = np.random.default_rng(seed)
    n = 30
    b = rng.standard_normal((n, n))
    a = rng.standard_normal(n)
    basis = scipy.linalg.null_space(a[None, :])
    hess = b + b.T
    hess += (margin - np.linalg.eigvalsh(basis.T @ hess @ basis)[0]) * np.eye(n)
    assert np.linalg.eigvalsh(basis.T @ hess @ basis)[0] == pytest.approx(margin, abs=1e-10)
    # the factor's indefinite flag: the tangent-space matrix needed a real shift
    assert _factor(hess, a)[1] == (margin < 0.0)


@pytest.mark.parametrize("constrained", [False, True])
def test_factor_holds_one_try(constrained):
    # a C-ordered Hessian is still copied once per try, inside scipy, and a
    # failed try is released before the next: at most one copy lives next to it
    rng = np.random.default_rng(0)
    b = rng.standard_normal((300, 300))
    hess = b + b.T
    tracemalloc.start()
    try:
        indefinite = _factor(hess, rng.standard_normal(300) if constrained else None)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert indefinite
    assert peak <= 1.1 * hess.nbytes


def _copy_per_try(hess, grad_i):
    # the shift ladder on a fresh Fortran-ordered copy of hess for every try
    scale = max(float(hess.max()), -float(hess.min()), np.finfo(float).tiny)
    mu0 = 1e-8 * scale
    u = None
    if grad_i is not None:
        u = grad_i / float(np.linalg.norm(grad_i))
        w = hess @ u
        z = w - 0.5 * (scale + float(np.dot(u, w))) * u
    for mu in itertools.chain([0.0], (mu0 * 10.0**j for j in itertools.count())):
        shifted = hess.copy(order="F")
        if u is not None:
            shifted = scipy.linalg.blas.dsyr2(-1.0, u, z, a=shifted, overwrite_a=True)
        shifted[np.diag_indices_from(shifted)] += mu
        try:
            return scipy.linalg.cho_factor(shifted, overwrite_a=True, check_finite=False)[0], mu > mu0
        except scipy.linalg.LinAlgError:
            pass


@pytest.mark.parametrize("constrained", [False, True])
def test_factor_in_place(constrained):
    # a Fortran-ordered Hessian is factored in its own buffer: failed tries
    # are undone from its diagonal and its strictly lower triangle, which no
    # try writes, and the factor is the one a fresh copy per try gives
    rng = np.random.default_rng(1)
    b = rng.standard_normal((300, 300))
    hess = np.asfortranarray(b + b.T)
    grad_i = rng.standard_normal(300) if constrained else None
    expected, expected_indefinite = _copy_per_try(hess, grad_i)
    lower = np.tril(hess, -1)
    tracemalloc.start()
    try:
        factor, indefinite = _factor(hess, grad_i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * hess.nbytes
    assert np.shares_memory(factor[0][0], hess)
    assert indefinite and indefinite == expected_indefinite
    np.testing.assert_array_equal(factor[0][0], expected)
    np.testing.assert_array_equal(np.tril(hess, -1), lower)


@pytest.mark.parametrize("g, xi", [("v", 1.0), ("y^2", 40.0)])
def test_solve_peak_memory(g, xi):
    # M and the interior Hessian factored in its own buffer, with no n x n L:
    # about 2.2 n x n matrices of doubles at the peak
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
    assert peak <= 2.5 * 8 * n**2


def test_solve_peak_memory_with_cross_term():
    # H_yv = 1 adds C + C^T to the Hessian block by block, with no n x n
    # temporary of its own: the peak stays that of the solves above
    n = 401
    p = Problem(Lagrangian.parse("v^4+y*v+y^2"), 0.9, FracOrder(0.3), Grid(0.0, 1.0, n), 0.0, 1.0)
    tracemalloc.start()
    try:
        sol = solve_unconstrained(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak <= 2.5 * 8 * n**2


class TestMemoryCheck:
    N = 401
    PROBLEM = Problem(V2, 1.0, FracOrder(0.5), Grid(0.0, 1.0, N), 0.0, 1.0)

    def test_refused_before_the_dense_arrays(self, monkeypatch):
        # room for two n x n arrays, not the 2.25 a solve holds: refused
        # before M or the Hessian is made
        monkeypatch.setattr(fracvar.solver, "_memory_available", lambda: 2.0 * 8 * self.N**2)
        monkeypatch.setattr(Discretization, "m", property(lambda disc: pytest.fail("M was built")))
        with pytest.raises(MemoryError, match=f"a solve at n = {self.N} holds about 3 MB"):
            solve_unconstrained(self.PROBLEM)

    def test_room_for_the_solve(self, monkeypatch):
        monkeypatch.setattr(fracvar.solver, "_memory_available", lambda: 2.3 * 8 * self.N**2 + 64 * 8 * self.N)
        assert solve_unconstrained(self.PROBLEM).converged

    def test_probe_reads_the_address_space_limit(self, monkeypatch):
        assert fracvar.solver._memory_available() > 0.0
        limit = 2**31
        monkeypatch.setattr(fracvar.solver.resource, "getrlimit", lambda which: (limit, limit))
        assert fracvar.solver._memory_available() < limit


class TestHessianReuse:
    @staticmethod
    def count_calls(monkeypatch):
        calls = {"hessian": 0, "cho_factor": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Discretization, "hessian")
        counted(scipy.linalg, "cho_factor")
        return calls

    def test_quadratic_with_linear_constraint_factors_once(self, monkeypatch):
        # criterion 4's problem: F - lambda*G has one Hessian for every
        # (y, lambda), built and factored once for the steps and the final check
        grid = Grid(0.0, 1.0, 201)
        spec = ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
        p = quadratic_problem(0.5, 1.0, 201, boundary_value(spec), xi=1.0)
        calls = self.count_calls(monkeypatch)
        sol = solve_isoperimetric(p)
        assert sol.converged and sol.iterations >= 1
        assert calls == {"hessian": 1, "cho_factor": 1}

    @pytest.mark.parametrize(
        "f, g",
        [
            ("v^4 + y^2", None),
            # quadratic F, but the Hessian of F - lambda*G moves with lambda
            ("v^2", "y^2"),
        ],
    )
    def test_nonconstant_builds_one_per_step(self, monkeypatch, f, g):
        # one Hessian and factor per Newton step, and one at the final iterate
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
        calls = self.count_calls(monkeypatch)
        sol = (solve_unconstrained if g is None else solve_isoperimetric)(p)
        assert sol.converged and sol.iterations >= 2
        assert calls["hessian"] == sol.iterations + 1
        # a Hessian indefinite on the way takes more than one try to factor
        assert calls["cho_factor"] >= sol.iterations + 1


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
