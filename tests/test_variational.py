import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

import fracvar.variational
from dense_oracle import dense_m
from fracvar.fracgrid import (
    FracOperator,
    FracOrder,
    Grid,
    GridMismatchError,
    SampledFunction,
    assemble_frac_operator,
    derivative_stencil,
    gl_weights,
)
from fracvar.lagrange_dsl import AugmentedLagrangian, Lagrangian
from fracvar.reference import ReferenceSpec, ml_convolution_extremal
from fracvar.solver import solve_isoperimetric
from fracvar.special import gamma
from fracvar.variational import (
    BoundaryMismatchError,
    Discretization,
    MissingConstraintError,
    Problem,
    combined_derivative,
    constraint_value,
    discrete_gradient,
    _fast_length,
    discrete_operators,
    el_residual,
    functional_value,
)

V2 = Lagrangian.parse("v^2")
V = Lagrangian.parse("v")


def make_problem(f=V2, k=0.0, alpha=0.5, n=101, ya=0.0, yb=1.0, g=None, xi=None):
    return Problem(
        f=f,
        k=k,
        order=FracOrder(alpha),
        grid=Grid(0.0, 1.0, n),
        ya=ya,
        yb=yb,
        g=g,
        xi=xi,
    )


def on_grid(p, fn):
    return SampledFunction(p.grid, fn(p.grid.nodes()))


class TestProblem:
    def test_constraint_pairing(self):
        with pytest.raises(ValueError):
            make_problem(g=V)
        with pytest.raises(ValueError):
            make_problem(xi=1.0)
        assert make_problem().constrained is False
        assert make_problem(g=V, xi=1.0).constrained is True

    def test_finite_boundaries(self):
        with pytest.raises(ValueError):
            make_problem(yb=math.inf)
        for k, xi in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="k and xi must be finite"):
                make_problem(k=k, g=V, xi=xi)


def dense_difference_matrix(grid):
    """The classical stencil D_c as a dense matrix, written out row by row."""
    n, h = grid.n, grid.h
    d = np.zeros((n, n))
    i = np.arange(1, n - 1)
    d[i, i - 1] = -1.0 / (2.0 * h)
    d[i, i + 1] = 1.0 / (2.0 * h)
    d[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    d[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    return d


def dense_left(grid, order):
    """The oracle: L as the dense lower-triangular Toeplitz matrix of the scaled GL weights."""
    return scipy.linalg.toeplitz(gl_weights(order, grid.n) / grid.h**order.alpha, np.zeros(grid.n))


class TestDiscreteOperators:
    def test_one_matrix_per_entry(self):
        # the right operator and D_c are not stored, and L is its n weights
        # and their transform, which its first product computes: O(n) bytes
        n = 301
        ops = discrete_operators(Grid(0.0, 1.0, n), FracOrder(0.45))
        ops.matvec(np.ones(n))
        owners = {}
        for value in vars(ops).values():
            if isinstance(value, FracOperator):
                value = value.weights
            if isinstance(value, np.ndarray):
                owner = value if value.base is None else value.base
                owners[id(owner)] = owner
        assert len(owners) == 2
        assert sum(a.nbytes for a in owners.values()) <= 64 * n

    def test_last_operator_only(self):
        # a sweep over grids keeps no more than the last grid's n x n matrix
        order = FracOrder(0.45)
        first = weakref.ref(discrete_operators(Grid(0.0, 1.0, 41), order))
        discrete_operators(Grid(0.0, 1.0, 43), order)
        assert first() is None

    def test_last_operator_dropped_before_next_assembly(self, monkeypatch):
        # the peak of a sweep over grids holds one n x n matrix, not two
        order = FracOrder(0.45)
        first = weakref.ref(discrete_operators(Grid(0.0, 1.0, 41), order))
        alive = []

        def recording(*args):
            alive.append(first() is not None)
            return assemble_frac_operator(*args)

        monkeypatch.setattr(fracvar.variational, "assemble_frac_operator", recording)
        discrete_operators(Grid(0.0, 1.0, 43), order)
        assert alive == [False]

    def test_solve_leaves_no_operator_alive(self, monkeypatch):
        # each Discretization owns its L, and none outlives the solve
        made = []

        def recording(*args):
            op = assemble_frac_operator(*args)
            made.append(weakref.ref(op))
            return op

        monkeypatch.setattr(fracvar.variational, "assemble_frac_operator", recording)
        solve_isoperimetric(make_problem(k=1.0, n=41, g=V, xi=1.0))
        assert made and all(ref() is None for ref in made)

    def test_m_products_match_dense_m(self):
        # M = k L + D_c: the oracle's dense M is k times the dense L plus the
        # stencil's bands, bit for bit, down to the sign of its zeros; M x and
        # M^T x by the stencil and the FFT products agree with it
        rng = np.random.default_rng(3)
        for k in (0.8, 0.0, -0.6):
            p = make_problem(k=k, alpha=0.35, n=41)
            disc = Discretization(p)
            m = dense_m(disc)
            want = k * dense_left(p.grid, p.order)
            d = dense_difference_matrix(p.grid)
            band = d != 0.0
            want[band] += d[band]
            assert m.tobytes() == want.tobytes()
            x = rng.standard_normal(p.grid.n)
            scale = np.max(np.abs(m)) * np.sum(np.abs(x))
            assert np.max(np.abs(disc.m_matvec(x) - m @ x)) <= 1e-14 * scale
            assert np.max(np.abs(disc.m_rmatvec(x) - m.T @ x)) <= 1e-14 * scale


class TestCombinedDerivative:
    def test_k_zero_reduces_to_classical(self):
        p = make_problem(k=0.0)
        y = on_grid(p, lambda t: np.sin(t))
        v = combined_derivative(p, y).values
        np.testing.assert_array_equal(v, derivative_stencil(y.values, p.grid.h))

    def test_small_k_continuity(self):
        p0 = make_problem(k=0.0)
        p1 = make_problem(k=1e-10)
        y = on_grid(p0, lambda t: t * (1.0 - t))
        v0 = combined_derivative(p0, y).values
        v1 = combined_derivative(p1, y).values
        np.testing.assert_allclose(v1, v0, atol=1e-9)

    def test_v_is_the_boundary_split(self):
        # D^alpha y is L (y - ya) plus the derivative of the constant ya,
        # ya (t-a)^(-alpha) / Gamma(1-alpha), at interior nodes, and L_00 ya at node 0
        ya, k, alpha = 0.3, 0.7, 0.3
        p = make_problem(k=k, alpha=alpha, n=41, ya=ya)
        t = p.grid.nodes()
        y = ya + (1.0 - ya) * t + 0.2 * np.sin(math.pi * t)
        y[0] = ya
        left = assemble_frac_operator(p.grid, p.order)
        frac = left.matvec(y - ya)
        frac[1:] += ya * (t[1:] - p.grid.a) ** (-alpha) / gamma(1.0 - alpha)
        frac[0] = left.weights[0] * ya
        v = Discretization(p).v(y)
        # v rounds L (y - ya) as L y - ya L 1
        want = derivative_stencil(y, p.grid.h) + k * frac
        assert np.max(np.abs(v - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("ya", [0.0, 0.3, -0.4])
    def test_v_is_m_plus_the_boundary_column(self, ya):
        p = make_problem(k=-0.5, alpha=0.4, n=41, ya=ya)
        disc = Discretization(p)
        t = p.grid.nodes()
        y = ya + (1.0 - ya) * t + 0.2 * np.sin(math.pi * t)
        c = disc.boundary_column
        assert c[0] == 0.0
        want = disc.m_matvec(y) if ya == 0.0 else disc.m_matvec(y) + ya * c
        assert disc.v(y).tobytes() == want.tobytes()

    def test_grid_mismatch(self):
        p = make_problem(n=101)
        other = Grid(0.0, 1.0, 51)
        y = SampledFunction(other, other.nodes())
        with pytest.raises(GridMismatchError):
            combined_derivative(p, y)


class TestFunctionalValue:
    def test_affine_exact(self):
        # v == 1 identically for y = t with k = 0, and the weights have unit mass
        p = make_problem()
        assert functional_value(p, on_grid(p, lambda t: t)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_zero_trajectory(self):
        p = make_problem(yb=0.0)
        assert functional_value(p, on_grid(p, lambda t: 0.0 * t)) == 0.0

    def test_quadratic(self):
        # integral of (2t)^2 over [0,1] is 4/3
        p = make_problem()
        assert functional_value(p, on_grid(p, lambda t: t**2)) == pytest.approx(
            4.0 / 3.0, abs=1e-3
        )


class TestConstraintValue:
    def test_requires_constraint(self):
        p = make_problem()
        with pytest.raises(MissingConstraintError):
            constraint_value(p, on_grid(p, lambda t: t))

    def test_linear_constraint_exact(self):
        # integral of v for y = t, k = 0 telescopes to yb - ya
        p = make_problem(g=V, xi=1.0)
        assert constraint_value(p, on_grid(p, lambda t: t)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_small_order_limit_family(self):
        # for small alpha the extremal of the quadratic constrained family is
        # close to 1 - exp(-k*t); with G = y the constraint value approaches
        # integral of that, which is exp(-1) on [0,1] with k = 1
        grid = Grid(0.0, 1.0, 501)
        y = ml_convolution_extremal(
            ReferenceSpec(k=1.0, order=FracOrder(0.05), xi=1.0, grid=grid)
        )
        p = Problem(
            f=V2,
            k=1.0,
            order=FracOrder(0.05),
            grid=grid,
            ya=0.0,
            yb=y.values[-1],
            g=Lagrangian.parse("y"),
            xi=1.0,
        )
        assert constraint_value(p, y) == pytest.approx(math.exp(-1.0), abs=1e-2)


class TestELResidual:
    def test_affine_stationary_k_zero(self):
        p = make_problem()
        r = el_residual(p, on_grid(p, lambda t: t))
        assert r.norm_max_interior <= 1e-12
        assert r.norm_l2_interior <= 1e-12

    @pytest.mark.parametrize("ya", [0.0, 0.4])
    def test_matches_dense_oracle(self, ya):
        # r = dH/dy - D_c[dH/dv] + k R dH/dv with a dense D_c and the dense
        # right operator R = L^T
        p = make_problem(
            f=Lagrangian.parse("v^2 + sin(t) * y^2"), k=0.7, alpha=0.3, n=201, ya=ya, g=V, xi=1.0
        )
        t = p.grid.nodes()
        y = on_grid(p, lambda t: ya + (1.0 - ya) * t + 0.2 * np.sin(math.pi * t))
        v = combined_derivative(p, y).values
        h = AugmentedLagrangian(p.f, p.g, 1.5)
        right = dense_left(p.grid, p.order).T
        d3 = h.dv(t, y.values, v)
        want = h.dy(t, y.values, v) - dense_difference_matrix(p.grid) @ d3 + p.k * (right @ d3)
        got = el_residual(p, y, lam=1.5).values.values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_peak_memory_is_linear_in_n(self):
        # L and L^T act by FFT: the residual holds O(n) values, no n x n matrix
        n = 100001
        p = make_problem(k=1.0, n=n)
        y = on_grid(p, lambda t: t**2)
        tracemalloc.start()
        try:
            el_residual(p, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * n

    def test_constrained_requires_multiplier(self):
        p = make_problem(g=V, xi=1.0)
        with pytest.raises(MissingConstraintError):
            el_residual(p, on_grid(p, lambda t: t))

    def test_multiplier_without_constraint(self):
        p = make_problem()
        with pytest.raises(MissingConstraintError):
            el_residual(p, on_grid(p, lambda t: t), lam=1.0)

    def test_multiplier_affinity(self):
        # the residual is affine in lambda: r(2) = 2 r(1) - r(0)
        p = make_problem(k=1.0, g=V, xi=1.0)
        y = on_grid(p, lambda t: t * (2.0 - t) / 1.0)
        r0 = el_residual(p, y, lam=0.0).values.values
        r1 = el_residual(p, y, lam=1.0).values.values
        r2 = el_residual(p, y, lam=2.0).values.values
        scale = np.max(np.abs(r0)) + 1.0
        np.testing.assert_allclose(r2, 2.0 * r1 - r0, atol=1e-12 * scale)

    def test_reference_extremal_residual_shrinks(self):
        # away from a thin layer at the singular left endpoint, the residual of
        # the convolution extremal under H = v^2 - 2 v decreases under
        # refinement
        norms = []
        for n in (501, 1001, 2001):
            grid = Grid(0.0, 1.0, n)
            y = ml_convolution_extremal(
                ReferenceSpec(k=1.0, order=FracOrder(0.5), xi=1.0, grid=grid)
            )
            p = Problem(
                f=V2,
                k=1.0,
                order=FracOrder(0.5),
                grid=grid,
                ya=0.0,
                yb=y.values[-1],
                g=V,
                xi=1.0,
            )
            r = el_residual(p, y, lam=2.0).values.values
            trim = max(2, int(0.025 * n))
            norms.append(np.max(np.abs(r[trim:-trim])))
        assert norms[0] > norms[1] > norms[2]
        assert norms[-1] <= 5e-2


class TestDiscreteGradient:
    def test_boundary_mismatch(self):
        p = make_problem()
        y = on_grid(p, lambda t: t + 0.5)
        with pytest.raises(BoundaryMismatchError):
            discrete_gradient(p, y)

    def test_zero_at_affine_k_zero(self):
        p = make_problem()
        g = discrete_gradient(p, on_grid(p, lambda t: t))
        assert np.max(np.abs(g)) <= 1e-13

    def test_finite_difference_invariant(self):
        # directional derivatives of the discretized functional must match the
        # gradient for arbitrary interior perturbations
        p = make_problem(
            f=Lagrangian.parse("v^2 + sin(t) * y^2"), k=0.7, alpha=0.3, n=61
        )
        rng = np.random.default_rng(3)
        t = p.grid.nodes()
        base = t + 0.2 * np.sin(math.pi * t)
        y = SampledFunction(p.grid, base)
        grad = discrete_gradient(p, y)
        eps = 1e-6
        for _ in range(20):
            d = rng.standard_normal(p.grid.n)
            d[0] = d[-1] = 0.0
            d /= np.linalg.norm(d)
            plus = SampledFunction(p.grid, base + eps * d)
            minus = SampledFunction(p.grid, base - eps * d)
            fd = (functional_value(p, plus) - functional_value(p, minus)) / (2.0 * eps)
            assert fd == pytest.approx(float(np.dot(grad, d[1:-1])), rel=1e-6, abs=1e-9)

    def test_aligns_with_residual(self):
        # the gradient is the weighted residual in the continuum limit; compare
        # directions away from the endpoint layers
        p = make_problem(f=Lagrangian.parse("v^2 + y^2"), k=1.0, alpha=0.5, n=401)
        t = p.grid.nodes()
        y = SampledFunction(p.grid, t + 0.3 * t * (1.0 - t))
        r = el_residual(p, y).values.values[1:-1]
        g = discrete_gradient(p, y) / p.grid.h
        trim = 5
        a, b = r[trim:-trim], g[trim:-trim]
        cos = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos >= 0.99
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 0.1


class TestCirculant:
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 101, 1001])
    @pytest.mark.parametrize("k", [0.0, 0.7, -1.0])
    def test_is_the_strang_circulant_of_the_interior_block(self, n, k):
        # C's first column copies the diagonals of the dense M's interior
        # block: lag j up to size / 2, lag j - size past it
        disc = Discretization(make_problem(k=k, alpha=0.3, n=n))
        m_norm, size, sym = disc.circulant
        assert size == _fast_length(n - 2)
        m = dense_m(disc)
        block = m[1:-1, 1:-1]
        lag = [j if j <= size // 2 else j - size for j in range(size)]
        col = np.array([block[j, 0] if j >= 0 else block[0, -j] for j in lag])
        raw = np.abs(np.fft.fft(col)[: size // 2 + 1]) ** 2
        floor = np.sort(raw)[: 3][-1] or 1.0
        np.testing.assert_allclose(sym, np.maximum(raw, floor), rtol=1e-12)
        # m_norm bounds M's row and column sums alike, and not loosely
        norm = max(np.max(np.sum(np.abs(m), axis=0)), np.max(np.sum(np.abs(m), axis=1)))
        assert norm <= m_norm <= 2.0 * norm

    def test_fast_length_is_the_least_5_smooth_length(self):
        def smooth(x):
            for p in (2, 3, 5):
                while x % p == 0:
                    x //= p
            return x == 1

        for m in itertools.chain(range(1, 2000), [15999, 99999, 199999]):
            assert _fast_length(m) == next(x for x in itertools.count(m) if smooth(x))
