import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from fracvar.fracgrid import (
    FracOrder,
    Grid,
    SampledFunction,
    assemble_frac_operator,
    derivative_stencil,
    derivative_stencil_transpose,
    gl_weights,
    trapezoid_integral,
    variational_weights,
)
from fracvar.lagrange_dsl import Lagrangian
from fracvar.special import gamma
from fracvar.variational import Discretization, Problem


def sampled(grid, fn):
    return SampledFunction(grid, fn(grid.nodes()))


def dense_left(grid, order):
    """The oracle: L as the dense lower-triangular Toeplitz matrix of the scaled GL weights."""
    return scipy.linalg.toeplitz(gl_weights(order, grid.n) / grid.h**order.alpha, np.zeros(grid.n))


class TestGrid:
    def test_nodes(self):
        g = Grid(0.0, 1.0, 11)
        assert g.h == pytest.approx(0.1)
        t = g.nodes()
        assert t[0] == 0.0
        assert t[-1] == 1.0
        assert np.allclose(np.diff(t), g.h)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 11)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)
        for a, b in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="need finite a, b and b - a"):
                Grid(a, b, 5)

    def test_sampled_function_validation(self):
        g = Grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            SampledFunction(g, np.zeros(4))
        with pytest.raises(ValueError):
            SampledFunction(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))

    def test_frac_order_validation(self):
        with pytest.raises(ValueError):
            FracOrder(0.0)
        with pytest.raises(ValueError):
            FracOrder(1.0)


class TestGLWeights:
    def test_alpha_one(self):
        w = gl_weights(FracOrder(0.999999999999), 3)
        assert w == pytest.approx([1.0, -1.0, 0.0], abs=1e-11)

    def test_binomial_oracle(self):
        # w_j = (-1)^j * binom(alpha, j), via scipy's binomial coefficient
        alpha = 0.5
        w = gl_weights(FracOrder(alpha), 4)
        oracle = [(-1.0) ** j * scipy.special.binom(alpha, j) for j in range(4)]
        assert oracle == pytest.approx([1.0, -0.5, -0.125, -0.0625], rel=1e-14)
        assert w == pytest.approx(oracle, rel=1e-13)

    def test_single_weight(self):
        for alpha in (0.1, 0.5, 0.9):
            assert gl_weights(FracOrder(alpha), 1) == pytest.approx([1.0])

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gl_weights(FracOrder(0.5), 0)


class TestFracOperator:
    def test_triangular_structure(self):
        # L is held as its first column, read-only; L x at a node reads x up
        # to that node only, and L^T x from it on: the padded FFT products do
        # not wrap around, to rounding
        g = Grid(0.0, 1.0, 8)
        order = FracOrder(0.4)
        op = assemble_frac_operator(g, order)
        assert op.weights.shape == (g.n,) and not op.weights.flags.writeable
        np.testing.assert_array_equal(op.weights, dense_left(g, order)[:, 0])
        tail = np.r_[np.zeros(4), np.ones(4)]
        tol = 1e-13 * np.sum(np.abs(op.weights))
        assert np.max(np.abs(op.matvec(tail)[:4])) <= tol
        assert np.max(np.abs(op.rmatvec(tail[::-1])[4:])) <= tol

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 1001, 1025])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
    def test_fft_products_match_dense_oracle(self, n, alpha):
        # L x and L^T x by FFT against the dense Toeplitz matrix, to rounding
        # of the convolution: |error| <= 1e-13 |w|_1 |x|_inf
        g = Grid(0.0, 1.0, n)
        order = FracOrder(alpha)
        op = assemble_frac_operator(g, order)
        dense = dense_left(g, order)
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.uniform(-1.0, 1.0, n) * 1e3):
            tol = 1e-13 * np.sum(np.abs(op.weights)) * np.max(np.abs(x))
            assert np.max(np.abs(op.matvec(x) - dense @ x)) <= tol
            assert np.max(np.abs(op.rmatvec(x) - dense.T @ x)) <= tol

    def test_power_function_at_endpoint(self):
        # left half-derivative of t on [0,1] at t=1 is Gamma(2)/Gamma(1.5) = 2/sqrt(pi)
        exact = gamma(2.0) / gamma(1.5)
        assert exact == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)
        errs = []
        for n in (501, 1001, 2001):
            g = Grid(0.0, 1.0, n)
            op = assemble_frac_operator(g, FracOrder(0.5))
            approx = op.matvec(g.nodes())[-1]
            errs.append(abs(approx - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 5e-4

    def test_zero_function(self):
        g = Grid(0.0, 1.0, 21)
        op = assemble_frac_operator(g, FracOrder(0.5))
        out = op.matvec(np.zeros(g.n))
        assert np.all(out == 0.0)

    def test_constant_function_split(self):
        # left half-derivative of 1 is t^(-1/2)/Gamma(1/2); checked at interior
        # nodes via the boundary split, as v / k (D_c of a constant is exactly 0)
        g = Grid(0.0, 1.0, 2001)
        k = 1.0
        p = Problem(f=Lagrangian.parse("v^2"), k=k, order=FracOrder(0.5), grid=g, ya=1.0, yb=1.0)
        out = Discretization(p).v(np.ones(g.n)) / k
        t = g.nodes()
        exact = t[1:] ** (-0.5) / gamma(0.5)
        np.testing.assert_allclose(out[1:], exact, rtol=1e-12)
        assert out[-1] == pytest.approx(1.0 / gamma(0.5), rel=1e-12)

    def test_plain_sum_slow_for_constants(self):
        # the split exists because the raw GL sum converges only slowly
        # through the singular part
        g = Grid(0.0, 1.0, 2001)
        op = assemble_frac_operator(g, FracOrder(0.5))
        raw = op.matvec(np.ones(g.n))
        exact = 1.0 / gamma(0.5)
        assert abs(raw[-1] - exact) > 1e-5

    def test_linearity(self):
        g = Grid(0.0, 2.0, 64)
        op = assemble_frac_operator(g, FracOrder(0.3))
        t = g.nodes()
        f1, f2 = np.sin(t), t**2
        lhs = op.matvec(2.0 * f1 + 3.0 * f2)
        rhs = 2.0 * op.matvec(f1) + 3.0 * op.matvec(f2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_alpha_near_one_matches_classical(self):
        g = Grid(0.0, 1.0, 501)
        y = np.sin(np.pi * g.nodes())
        op = assemble_frac_operator(g, FracOrder(1.0 - 1e-3))
        frac = op.matvec(y)
        classical = derivative_stencil(y, g.h)
        assert np.max(np.abs(frac[1:] - classical[1:])) <= 2e-2

    def test_power_convergence_order(self):
        # (t-a)^2 has left derivative Gamma(3)/Gamma(3-alpha) * (t-a)^(2-alpha);
        # the scheme's observed order in h should be at least 0.9
        alpha = 0.5
        errs = []
        for n in (251, 501, 1001):
            g = Grid(0.0, 1.0, n)
            t = g.nodes()
            op = assemble_frac_operator(g, FracOrder(alpha))
            approx = op.matvec(t**2)
            exact = gamma(3.0) / gamma(3.0 - alpha) * t ** (2.0 - alpha)
            errs.append(np.max(np.abs(approx[1:-1] - exact[1:-1])))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9


class TestIntegrationByParts:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_endpoint_vanishing_pair(self, alpha):
        # f and g vanish at both endpoints, so both sides are regular; with
        # L and its transpose the discrete identity holds to rounding, hence
        # the non-increase check carries a rounding floor
        mismatches = []
        for n in (251, 501, 1001, 2001):
            g = Grid(0.0, 1.0, n)
            t = g.nodes()
            f = SampledFunction(g, t * (1.0 - t))
            q = SampledFunction(g, (t * (1.0 - t)) ** 2)
            left = assemble_frac_operator(g, FracOrder(alpha))
            lhs = trapezoid_integral(SampledFunction(g, f.values * left.matvec(q.values)))
            rhs = trapezoid_integral(SampledFunction(g, q.values * left.rmatvec(f.values)))
            mismatches.append(abs(lhs - rhs))
        assert mismatches[-1] <= 1e-3
        for a, b in zip(mismatches, mismatches[1:]):
            assert b <= a + 1e-14


class TestClassicalDerivative:
    def test_constant(self):
        g = Grid(0.0, 1.0, 17)
        out = derivative_stencil(np.full(g.n, 3.25), g.h)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_exact_on_quadratics(self):
        g = Grid(0.0, 1.0, 33)
        out = derivative_stencil(g.nodes() ** 2, g.h)
        np.testing.assert_allclose(out, 2.0 * g.nodes(), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 41])
    def test_transpose_matches_dense(self, n):
        # D_c^T g against the transposed stencil of the identity
        g = Grid(0.0, 2.0, n)
        x = np.random.default_rng(n).standard_normal(n)
        dense = derivative_stencil(np.eye(n), g.h).T @ x
        np.testing.assert_allclose(derivative_stencil_transpose(x, g.h), dense, rtol=1e-14, atol=1e-14 * np.max(np.abs(dense)))

    def test_second_order_convergence(self):
        errs = []
        for n in (65, 129, 257):
            g = Grid(0.0, 1.0, n)
            out = derivative_stencil(np.sin(g.nodes()), g.h)
            errs.append(np.max(np.abs(out - np.cos(g.nodes()))))
        for e0, e1 in zip(errs, errs[1:]):
            assert e0 / e1 == pytest.approx(4.0, rel=0.25)


class TestTrapezoid:
    def test_constant(self):
        g = Grid(0.0, 1.0, 11)
        assert trapezoid_integral(sampled(g, lambda t: np.ones_like(t))) == pytest.approx(1.0)

    def test_exact_on_affine(self):
        g = Grid(0.0, 1.0, 11)
        assert trapezoid_integral(sampled(g, lambda t: t)) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_error_term(self):
        # trapezoid error h^2/12 * (f'(b) - f'(a)) for f = t^2 on [0,1], n=101
        g = Grid(0.0, 1.0, 101)
        value = trapezoid_integral(sampled(g, lambda t: t**2))
        assert value == pytest.approx(1.0 / 3.0 + g.h**2 / 12.0 * 2.0, abs=1e-12)
        assert value == pytest.approx(0.333350, abs=5e-5)


class TestVariationalWeights:
    def test_total_mass(self):
        for n in (3, 4, 5, 6, 101):
            g = Grid(0.0, 2.0, n)
            assert np.sum(variational_weights(g)) == pytest.approx(2.0, rel=1e-13)

    def test_summation_by_parts(self):
        # the transposed difference stencil must annihilate the weights on
        # interior columns; this is what makes affine extremals stationary
        for n in (3, 4, 41):
            g = Grid(0.0, 1.0, n)
            w = variational_weights(g)
            d = np.zeros((n, n))
            i = np.arange(1, n - 1)
            h = g.h
            d[i, i - 1] = -1.0 / (2.0 * h)
            d[i, i + 1] = 1.0 / (2.0 * h)
            d[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
            d[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
            col_sums = d.T @ w
            np.testing.assert_allclose(col_sums[1:-1], 0.0, atol=1e-13)

    def test_second_order_accuracy(self):
        errs = []
        for n in (101, 201, 401):
            g = Grid(0.0, 1.0, n)
            vals = np.exp(g.nodes())
            errs.append(abs(float(variational_weights(g) @ vals) - (math.e - 1.0)))
        for e0, e1 in zip(errs, errs[1:]):
            assert e0 / e1 == pytest.approx(4.0, rel=0.3)
