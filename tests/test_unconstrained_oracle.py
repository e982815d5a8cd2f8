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


# F, the inverse of F', a bracket of mu, and alpha, k, yb
CASES = [
    ("v^4", lambda w: np.cbrt(w / 4.0), (0.1, 100.0), 0.3, 0.7, 1.0),
    ("exp(v)", math.log, (0.1, 100.0), 0.3, 0.7, 1.0),
    # at alpha = 0.5, k = 1 no mu < 1 reaches yb = 0.5, and no minimizer exists
    # there (test_arclength_bound): the problem is posed where one does
    ("sqrt(1+v^2)", lambda w: w / math.sqrt(1.0 - w * w), (0.0, 0.999), 0.3, 0.7, 0.5),
]


@pytest.mark.parametrize("source, v_of_w, bracket, alpha, k, yb", CASES, ids=[c[0] for c in CASES])
def test_solves_approach_the_exact_extremal(source, v_of_w, bracket, alpha, k, yb):
    e = kernel(alpha, k)
    mu = scipy.optimize.brentq(lambda mu: trajectory(e, v_of_w, mu, 1.0) - yb, *bracket)
    exact = np.array([trajectory(e, v_of_w, mu, t) for t in SAMPLES])

    errors = []
    for n in (501, 1001, 2001):
        grid = Grid(0.0, 1.0, n)
        p = Problem(f=Lagrangian.parse(source), k=k, order=FracOrder(alpha), grid=grid, ya=0.0, yb=yb)
        sol = solve_unconstrained(p)
        assert sol.converged
        # every sample is a node of these grids
        nodes = [round(t * (n - 1)) for t in SAMPLES]
        errors.append(float(np.max(np.abs(sol.y.values[nodes] - exact))))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    assert all(order >= 0.85 for order in orders), (errors, orders)


def test_arclength_bound():
    # y(1) grows with mu and tends to the bound as mu -> 1: at alpha = 0.3,
    # k = 0.7 it is above the yb = 0.5 of the case above, at alpha = 0.5, k = 1
    # below it, so there brentq has no bracket and the problem no minimizer
    assert arclength_bound(0.3, 0.7) == pytest.approx(0.78858, abs=1e-5)
    assert arclength_bound(0.5, 1.0) == pytest.approx(0.43270, abs=1e-5)
