import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from fracvar.fracgrid import FracOrder, Grid
from fracvar.lagrange_dsl import Lagrangian
from fracvar.reference import (
    ReferenceSpec,
    boundary_value,
    closed_form_alpha_half,
    ml_convolution_extremal,
)
from fracvar.special import MLParams, erfc, mittag_leffler
from fracvar.variational import Problem, combined_derivative, el_residual


def spec(alpha=0.5, k=1.0, xi=1.0, n=201, b=1.0):
    return ReferenceSpec(k=k, order=FracOrder(alpha), xi=xi, grid=Grid(0.0, b, n))


class TestSpec:
    def test_anchoring(self):
        with pytest.raises(ValueError):
            ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=Grid(0.5, 1.0, 11))


class TestConvolutionExtremal:
    def test_k_zero_is_linear(self):
        s = spec(k=0.0, xi=1.5)
        y = ml_convolution_extremal(s)
        np.testing.assert_allclose(y.values, 1.5 * s.grid.nodes(), rtol=0.0, atol=1e-12)

    def test_linearity_in_xi(self):
        y1 = ml_convolution_extremal(spec(xi=1.0))
        y3 = ml_convolution_extremal(spec(xi=-3.0))
        np.testing.assert_allclose(y3.values, -3.0 * y1.values, rtol=1e-12, atol=1e-15)

    def test_boundary_value_matches_last_node(self):
        s = spec(alpha=0.3, k=2.0, xi=0.7, n=101)
        y = ml_convolution_extremal(s)
        assert boundary_value(s) == pytest.approx(float(y.values[-1]), abs=1e-10)

    def test_monotone_for_positive_xi(self):
        y = ml_convolution_extremal(spec(alpha=0.7, k=1.0))
        assert np.all(np.diff(y.values) > 0.0)

    @pytest.mark.parametrize("b", [1.0, 0.5, 2.0])
    def test_defining_relation(self, b):
        # the combined derivative of the extremal equals xi / b, so that its
        # integral over [0, b] is xi, up to the discretization error of the
        # operators
        devs = []
        for n in (501, 1001, 2001):
            s = spec(n=n, b=b)
            y = ml_convolution_extremal(s)
            p = Problem(
                f=Lagrangian.parse("v^2"),
                k=1.0,
                order=FracOrder(0.5),
                grid=s.grid,
                ya=0.0,
                yb=float(y.values[-1]),
            )
            v = combined_derivative(p, y).values
            devs.append(float(np.max(np.abs(v[1:-1] - 1.0 / b))))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] <= 5e-3

    def test_overflow_names_the_first_node(self):
        # with k = -3, E_{1/2,2}(3 sqrt(t)) grows past 1/t from t = 0.5 on, so
        # xi * t * E is beyond double precision from the third node
        s = spec(k=-3.0, xi=1e308, n=5)
        with pytest.raises(OverflowError, match=r"^reference extremal overflows at t = 0\.5$"):
            ml_convolution_extremal(s)
        with pytest.raises(OverflowError, match=r"^reference extremal overflows at t = 1\.0$"):
            boundary_value(s)

    def test_unit_interval_bytes(self):
        # at b = 1, t / b is t, so the values are those of xi * t * E
        s = spec(alpha=0.3, k=2.0, xi=0.7, n=101)
        t = s.grid.nodes()
        e = mittag_leffler(MLParams(1.0 - 0.3, 2.0), -2.0 * np.float_power(t, 1.0 - 0.3))
        assert np.array_equal(ml_convolution_extremal(s).values, 0.7 * t * e)

    def test_no_overflow_of_xi_over_b(self):
        # xi / b would overflow for a small b; t / b does not
        s = spec(k=0.0, xi=1e308, n=5, b=0.5)
        y = ml_convolution_extremal(s)
        assert np.all(np.isfinite(y.values)) and y.values[-1] == 1e308

    def test_peak_memory_is_linear_in_n(self):
        # k = 1: the shared contour's trapezoid sum runs in blocks of 256
        # nodes; at alpha = 0.9 its 37 contour nodes would make one n x 37
        # complex temporary of 59 MB, 74 x 8n bytes.  k = -1: the series
        # runs in blocks of 2^16 values; its 179 terms would make one
        # n x 179 temporary of 143 MB.  At alpha = 0.5, k = 0.4 every node
        # is on the series with z in [-1/2, 0], and at k = 1 a quarter of them
        n = 100001
        for alpha, k in ((0.9, 1.0), (0.9, -1.0), (0.5, 0.4), (0.5, 1.0)):
            tracemalloc.start()
            try:
                y = ml_convolution_extremal(spec(alpha=alpha, k=k, n=n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(y.values))
            assert peak <= 8 * 8 * n, (alpha, k)


class TestLimitFamilies:
    def test_classical_limit(self):
        # alpha -> 1: the kernel tends to the constant 1/(1 + k), so the
        # extremal tends to xi * t / 2 when k = 1
        devs = []
        for alpha in (0.9, 0.99, 0.999):
            s = spec(alpha=alpha, n=201)
            y = ml_convolution_extremal(s)
            devs.append(float(np.max(np.abs(y.values - 0.5 * s.grid.nodes()))))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] <= 1e-3

    def test_small_order_limit(self):
        # alpha -> 0: the kernel tends to exp(-k*s), so the extremal tends to
        # (1 - exp(-k*t)) / k
        devs = []
        for alpha in (0.2, 0.1, 0.05):
            s = spec(alpha=alpha, n=201)
            t = s.grid.nodes()
            y = ml_convolution_extremal(s)
            devs.append(float(np.max(np.abs(y.values - (1.0 - np.exp(-t))))))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] <= 2e-2


class TestSeriesClosedForm:
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_matches_two_parameter_mittag_leffler(self, alpha, k):
        # the closed form y(t) = xi * t * E_{1-alpha,2}(-k * t^(1-alpha))
        # against adaptive quadrature of the convolution it sums,
        # xi * integral_0^t E_{1-alpha,1}(-k * s^(1-alpha)) ds; with
        # u = s^(1-alpha) this is xi/(1-alpha) * integral_0^(t^(1-alpha))
        # u^(alpha/(1-alpha)) E_{1-alpha,1}(-k*u) du, whose algebraic weight
        # the quadrature takes exactly; 1e-12 of the kernel is ample here
        p = 1.0 - alpha
        params = MLParams(p, 1.0)
        s = spec(alpha=alpha, k=k, xi=1.3, n=5)
        y = ml_convolution_extremal(s)
        for t, value in zip(s.grid.nodes(), y.values):
            integral, _ = scipy.integrate.quad(
                lambda u: mittag_leffler(params, -k * u), 0.0, t**p,
                weight="alg", wvar=(alpha / p, 0.0), epsabs=0.0, epsrel=1e-13, limit=200,
            )
            assert value == pytest.approx(1.3 * integral / p, rel=1e-10, abs=0.0)


class TestNonExtremalityOfConstraint:
    def test_constraint_residual_stays_large(self):
        # the extremal of F is not an extremal of the constraint functional
        # alone: its residual does not vanish under refinement
        norms = []
        for n in (501, 1001):
            s = spec(n=n)
            y = ml_convolution_extremal(s)
            p = Problem(
                f=Lagrangian.parse("v"),
                k=1.0,
                order=FracOrder(0.5),
                grid=s.grid,
                ya=0.0,
                yb=float(y.values[-1]),
            )
            r = el_residual(p, y).values.values
            trim = max(2, int(0.025 * n))
            norms.append(float(np.max(np.abs(r[trim:-trim]))))
        assert min(norms) >= 0.1


class TestClosedFormSignResolution:
    @pytest.mark.parametrize("b, n, tol", [(1.0, 101, 1e-7), (0.25, 1001, 1e-14)])
    def test_winning_variant(self, b, n, tol):
        # on [0, 1/4] every z = -t^(1/2) lies in [-1/2, 0], so the series
        # alone gives each value, to rounding; y on [0, b] is y(t; xi / b)
        s = spec(alpha=0.5, xi=1.0, n=n, b=b)
        y = ml_convolution_extremal(s)
        t = s.grid.nodes()
        closed = np.array([closed_form_alpha_half(float(ti), 1.0 / b) for ti in t])
        assert np.max(np.abs(y.values - closed)) <= tol

    def test_losing_variant(self):
        # the same formula with the sqrt term negated drifts far from the
        # extremal, which settles the sign ambiguity
        s = spec(alpha=0.5, xi=1.0, n=101)
        y = ml_convolution_extremal(s)
        t = s.grid.nodes()
        loser = np.array(
            [
                math.exp(ti) * erfc(math.sqrt(ti)) - 1.0 - 2.0 * math.sqrt(ti / math.pi)
                for ti in t
            ]
        )
        assert np.max(np.abs(y.values - loser)) > 0.5

    def test_boundary_point(self):
        expected = math.e * erfc(1.0) - 1.0 + 2.0 / math.sqrt(math.pi)
        assert expected == pytest.approx(0.5559627432513196, rel=1e-14)
        assert closed_form_alpha_half(1.0, 1.0) == pytest.approx(expected, rel=1e-14)
        assert boundary_value(spec(n=11)) == pytest.approx(expected, abs=1e-9)
