"""Exact extremals of unconstrained F(v), the oracle for solves the
Mittag-Leffler reference does not cover.

With e(tau) = E_{1-alpha}(-k tau^(1-alpha)) and y(0) = 0, the trajectory of v
is y(t) = integral_0^t e(t - s) v(s) ds, so y(1) = yb is one linear condition
on v and the extremal satisfies F'(v(s)) = mu e(1 - s).  Its v is
(F')^{-1}(mu e(1 - s)), mu is the root of y(1) = yb, and y is sampled at a few
interior points by adaptive quadrature.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from fracvar.fracgrid import FracOrder, Grid
from fracvar.lagrange_dsl import Lagrangian
from fracvar.solver import solve_unconstrained
from fracvar.special import MLParams, mittag_leffler
from fracvar.variational import Problem

pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")

SAMPLES = (0.25, 0.5, 0.75)


def kernel(alpha, k):
    """e(tau) = E_{1-alpha}(-k tau^(1-alpha)), the response of y to a unit impulse in v."""
    params = MLParams(1.0 - alpha, 1.0)
    return lambda tau: mittag_leffler(params, -k * tau ** (1.0 - alpha))


def trajectory(e, v_of_w, mu, t):
    """y(t) = integral_0^t e(t - s) v(s) ds, with v(s) = v_of_w(mu e(1 - s))."""
    return scipy.integrate.quad(lambda s: e(t - s) * v_of_w(mu * e(1.0 - s)), 0.0, t)[0]


def arclength_bound(alpha, k):
    """sup of y(1) over the extremals of sqrt(1+v^2), the limit mu -> 1 of
    integral_0^1 e w / sqrt(1 - w^2) with w = mu e: F' = v / sqrt(1 + v^2)
    lies in (-1, 1), and e(0) = 1 is the kernel's largest value."""
    e = kernel(alpha, k)
    return scipy.integrate.quad(lambda tau: e(tau) ** 2 / math.sqrt(1.0 - e(tau) ** 2), 0.0, 1.0)[0]


# F: the inverse of F', and a bracket of mu
EXTREMALS = {
    "v^4": (lambda w: np.cbrt(w / 4.0), (0.1, 100.0)),
    "exp(v)": (math.log, (0.1, 100.0)),
    "sqrt(1+v^2)": (lambda w: w / math.sqrt(1.0 - w * w), (0.0, 0.999)),
}

# F and yb at alpha = 0.3, k = 0.7; at alpha = 0.5, k = 1 no mu < 1 brings
# sqrt(1+v^2) to yb = 0.5, and no minimizer exists there (test_arclength_bound):
# the problem is posed where one does
CASES = [("v^4", 1.0), ("exp(v)", 1.0), ("sqrt(1+v^2)", 0.5)]


def solved_y(source, alpha, k, yb, n, samples):
    """The converged solve's y at the samples, each a node of the grid."""
    p = Problem(f=Lagrangian.parse(source), k=k, order=FracOrder(alpha), grid=Grid(0.0, 1.0, n), ya=0.0, yb=yb)
    sol = solve_unconstrained(p)
    assert sol.converged
    return sol.y.values[[round(t * (n - 1)) for t in samples]]


def solve_errors(source, alpha, k, yb, grids):
    """The max error of the solves on the grids at SAMPLES, against the exact extremal."""
    v_of_w, bracket = EXTREMALS[source]
    e = kernel(alpha, k)
    mu = scipy.optimize.brentq(lambda mu: trajectory(e, v_of_w, mu, 1.0) - yb, *bracket)
    exact = np.array([trajectory(e, v_of_w, mu, t) for t in SAMPLES])
    return [float(np.max(np.abs(solved_y(source, alpha, k, yb, n, SAMPLES) - exact))) for n in grids]


def orders(errors):
    """The observed orders between successive grids, each twice the last."""
    return [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]


@pytest.mark.parametrize("source, yb", CASES, ids=[c[0] for c in CASES])
def test_solves_approach_the_exact_extremal(source, yb):
    errors = solve_errors(source, 0.3, 0.7, yb, (501, 1001, 2001))
    assert all(order >= 0.85 for order in orders(errors)), (errors, orders(errors))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("source, yb", [("v^4", 1.0), ("exp(v)", 1.0), ("sqrt(1+v^2)", 0.4)])
def test_first_order_across_alpha(source, yb, alpha):
    # sqrt(1+v^2) is posed at yb = 0.4, below the arclength bound at each
    # alpha (0.49458 at alpha = 0.75); v^4 at alpha = 0.75 approaches first
    # order from below, 0.82 to 0.89 on these grids
    errors = solve_errors(source, alpha, 0.7, yb, (501, 1001, 2001, 4001))
    got = orders(errors)
    assert all(order >= 0.8 for order in got) and got[-1] >= 0.85, (errors, got)
    gaps = [abs(order - 1.0) for order in got]
    assert all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:])), (errors, got)


def test_arclength_bound():
    # y(1) grows with mu and tends to the bound as mu -> 1: at alpha = 0.3,
    # k = 0.7 it is above the yb = 0.5 of the case above, at alpha = 0.5, k = 1
    # below it, so there brentq has no bracket and the problem no minimizer
    assert arclength_bound(0.3, 0.7) == pytest.approx(0.78858, abs=1e-5)
    assert arclength_bound(0.5, 1.0) == pytest.approx(0.43270, abs=1e-5)
    # at k = 0.7 the bound falls with alpha, and stays above the yb = 0.4 of
    # test_first_order_across_alpha
    assert arclength_bound(0.25, 0.7) == pytest.approx(0.84419, abs=1e-5)
    assert arclength_bound(0.5, 0.7) == pytest.approx(0.61970, abs=1e-5)
    assert arclength_bound(0.75, 0.7) == pytest.approx(0.49458, abs=1e-5)


def test_approach_to_the_relaxed_arclength_extremal():
    # yb = 1 lies above the arclength bound 0.78858 at alpha = 0.3, k = 0.7, so
    # no minimizer exists. The solves approach the relaxed extremal, mu = 1,
    # whose y jumps at t = 1 (y(1-) = 0.78858). At t = 1/4 the error changes
    # sign between grids (6.7e-4, -1.5e-4, -9.1e-5 at n = 1001, 4001, 16001),
    # so it is not sampled
    samples = (0.5, 0.75)
    e = kernel(0.3, 0.7)
    exact = np.array([trajectory(e, EXTREMALS["sqrt(1+v^2)"][0], 1.0, t) for t in samples])
    np.testing.assert_allclose(exact, [0.272979, 0.438011], atol=1e-6)
    coarse, fine = (np.abs(solved_y("sqrt(1+v^2)", 0.3, 0.7, 1.0, n, samples) - exact) for n in (1001, 4001))
    assert np.all(fine <= coarse / 2.0) and np.all(fine <= [1e-3, 2e-2]), (coarse, fine)
