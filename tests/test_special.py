import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from fracvar.special import (
    MittagLefflerError,
    MLParams,
    erfc,
    gamma,
    mittag_leffler,
)


class TestGamma:
    def test_factorial_point(self):
        assert gamma(1.0) == 1.0

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-15)

    def test_recurrence_oracle(self):
        # gamma(4.5) built up from gamma(0.5) by the recurrence, independently
        # of the implementation under test
        expected = math.sqrt(math.pi)
        for x in (0.5, 1.5, 2.5, 3.5):
            expected *= x
        assert expected == pytest.approx(11.631728396567449, rel=1e-14)
        assert gamma(4.5) == pytest.approx(expected, rel=1e-12)

    def test_recurrence_property(self):
        for x in np.linspace(0.5, 20.0, 79):
            assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * gamma(x + 1.0)

    def test_pole(self):
        for x in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(ValueError):
                gamma(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(200.0)

    def test_accuracy_range(self):
        # spot-check 12 significant digits across [0.01, 170] against the
        # log-gamma route
        for x in (0.01, 0.1, 1.0, 7.3, 42.0, 120.0, 170.0):
            assert gamma(x) == pytest.approx(math.exp(math.lgamma(x)), rel=1e-12)


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_tail(self):
        assert erfc(10.0) < 1e-40

    def test_quadrature_oracle(self):
        # erfc(1) from adaptive quadrature of the defining integral
        integral, _ = scipy.integrate.quad(lambda s: math.exp(-s * s), 0.0, 1.0, epsabs=1e-14)
        expected = 1.0 - 2.0 / math.sqrt(math.pi) * integral
        assert expected == pytest.approx(0.15729920705028513, rel=1e-13)
        assert erfc(1.0) == pytest.approx(expected, rel=1e-10)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.0):
            assert erfc(-x) == pytest.approx(2.0 - erfc(x), rel=1e-14)


class TestMittagLeffler:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            MLParams(0.0, 1.0)
        with pytest.raises(ValueError):
            MLParams(1.0, -2.0)
        # the program's only first parameter is 1 - alpha of a FracOrder in (0, 1)
        with pytest.raises(ValueError):
            MLParams(1.5, 1.0)
        with pytest.raises(ValueError):
            MLParams(4.0, 1.0)

    @pytest.mark.parametrize(
        "alpha, beta", [(0.5, math.inf), (0.5, math.nan), (math.nan, 2.0), (math.inf, 2.0), (0.5, -math.inf)]
    )
    def test_params_refuse_non_finite(self, alpha, beta):
        # beta = inf once sent the contour's parameter search into an endless loop
        with pytest.raises(ValueError):
            MLParams(alpha, beta)

    def test_exponential_point(self):
        assert mittag_leffler(MLParams(1.0, 1.0), 1.0) == pytest.approx(
            2.718281828459045, rel=1e-14
        )

    def test_at_zero(self):
        assert mittag_leffler(MLParams(0.7, 2.5), 0.0) == pytest.approx(
            1.0 / gamma(2.5), rel=1e-15
        )
        assert mittag_leffler(MLParams(0.7, 1.0), 0.0) == 1.0
        # past beta = 171.6 gamma(beta) overflows, and 1/gamma(beta) is subnormal
        p = MLParams(0.7, 172.0)
        assert mittag_leffler(p, 0.0) == mittag_leffler(p, 1e-300) > 0.0

    def test_erfc_identity_point(self):
        # E_{1/2,1}(-1) = e * erfc(1), with erfc from the verified oracle above
        expected = math.e * erfc(1.0)
        assert expected == pytest.approx(0.4275835761558070, rel=1e-12)
        assert mittag_leffler(MLParams(0.5, 1.0), -1.0) == pytest.approx(expected, rel=1e-12)

    def test_exponential_range(self):
        p = MLParams(1.0, 1.0)
        for z in np.linspace(-5.0, 5.0, 41):
            assert abs(mittag_leffler(p, float(z)) - math.exp(z)) <= 1e-12 * math.exp(abs(z))

    def test_erfc_identity_range(self):
        p = MLParams(0.5, 1.0)
        for x in np.linspace(0.0, 5.0, 26):
            expected = math.exp(x * x) * erfc(float(x))
            assert abs(mittag_leffler(p, -float(x)) - expected) <= 1e-10

    def test_small_first_parameter(self):
        # the terms decay too slowly for direct summation; the value must
        # still agree with the alpha -> 0 limit 1/(1 - z) to O(alpha)
        value = mittag_leffler(MLParams(0.001, 1.0), -1.0)
        assert value == pytest.approx(0.5, abs=2e-3)
        assert value == pytest.approx(0.499855696078524, rel=1e-10)

    @pytest.mark.parametrize(
        "alpha, beta, z, expected",
        [
            # oracle: the series summed in 60-digit arithmetic to full
            # convergence, with the double parameters taken exactly
            (0.1, 1.0, -1.35, 0.4111769447433595),
            (0.1, 1.0, -2.0, 0.3200153359597274),
            (0.1, 2.0, -2.0, 0.3425703501877402),
            (0.3, 1.0, -3.0, 0.21180263319643577),
            (0.7, 1.0, -10.0, 0.03617326554230916),
            (0.7, 1.0, -14.0, 0.025274265989082535),
            # beta is lowered a thousand times by steps of alpha; oracle: the
            # integral representation and that recurrence in 40-digit mpmath
            (0.001, 2.0, -2.0, 0.3334272681557549),
        ],
    )
    def test_large_peak_term(self, alpha, beta, z, expected):
        # the terms peak far above the sum, or beyond the term budget
        value = mittag_leffler(MLParams(alpha, beta), z)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta, z, expected",
        [
            # oracle: the series summed in 60-digit arithmetic
            (0.42972, 1.0, -2.02385, 0.2657873855142672),
            (0.21457, 2.5, -1.56706, 0.3201590344782786),
            (0.5, 2.0, -3.0, 0.28490429471865863),
            # the reference extremal's kernels, with little cancellation
            (0.5, 2.0, -1.0, 0.5559627432513196),
            (0.01, 2.0, -0.99, 0.5035695501277526),
            (0.05, 2.0, -1.06, 0.49071595376849525),
            # a node of the benchmark's cancellation item (alpha = 0.5, k = 3)
            (0.5, 2.0, -2.294558781116753, 0.344983721917681),
        ],
    )
    def test_moderate_cancellation(self, alpha, beta, z, expected):
        # the first three: the terms peak 60 to 420 times above the sum,
        # which costs a double-precision sum of the series up to ~1e-12 of
        # the value
        value = mittag_leffler(MLParams(alpha, beta), z)
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_erfc_identity_beyond_term_budget(self):
        # E_{1/2,1}(-x) = erfcx(x); the terms keep growing past 2000 of them
        p = MLParams(0.5, 1.0)
        for x in (30.0, 50.0, 100.0):
            assert mittag_leffler(p, -x) == pytest.approx(scipy.special.erfcx(x), rel=1e-12)

    @pytest.mark.parametrize("alpha, beta, z", [(0.9, 2.0, -1e-4), (1.0, 2.0, -1e-12)])
    def test_small_argument(self, alpha, beta, z):
        # near z = 0 the value is 1/gamma(beta) plus a tiny correction that
        # a contour integral cannot resolve to full relative accuracy
        value = mittag_leffler(MLParams(alpha, beta), z)
        assert value == pytest.approx(series_60_digits(alpha, beta, z), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha, beta, z", [(1.0, 1.0, 800.0), (0.1, 2.0, 5.0)])
    def test_overflow(self, alpha, beta, z):
        # the values are about e^800 and e^(5^10)
        with pytest.raises(MittagLefflerError, match="Mittag-Leffler"):
            mittag_leffler(MLParams(alpha, beta), z)

    def test_infinite_argument(self):
        # no arithmetic on an infinite z, so no RuntimeWarning
        p = MLParams(0.5, 2.0)
        with pytest.raises(MittagLefflerError, match=r"E_\{0.5,2\}\(inf\) overflows"):
            mittag_leffler(p, math.inf)
        assert mittag_leffler(p, -math.inf) == 0.0

    def test_large_beta_against_laplace_inversion(self):
        # beta >= 1.5 and |z| up to 1e3, where no series oracle converges and
        # the contour often trades digits for nodes; oracle: mpmath's Talbot
        # inversion of the Laplace transform s^(alpha-beta)/(s^alpha - z) at
        # 50 digits; the draws with alpha > 1 must be refused
        rng = np.random.default_rng(7)
        for _ in range(30):
            alpha = rng.uniform(0.01, 1.5)
            beta = rng.uniform(1.5, 4.0)
            z = -(10.0 ** rng.uniform(-0.3, 3.0))
            if alpha > 1.0:
                with pytest.raises(ValueError):
                    MLParams(alpha, beta)
                continue
            value = mittag_leffler(MLParams(alpha, beta), z)
            assert value == pytest.approx(talbot_50_digits(alpha, beta, z), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "alpha, beta, z",
        [
            # the reference extremal's kernel at alpha = 0.7, k = -5, t = 0.3,
            # z to six digits: terms peak near e^57 at j = 209
            (0.3, 2.0, 3.48423),
            # terms peak near e^145 at j = 514
            (0.294167, 1.83971, 4.38827),
            # large beta, where a contour's terms outgrow the value: it came
            # out 2.7e-7, 2.5e4 times and 2e17 times off on these
            (0.5, 25.0, 3.0),
            (0.5, 40.0, 3.0),
            (0.5, 40.0, 2.0),
        ],
    )
    def test_positive_argument_peak_past_256_terms(self, alpha, beta, z):
        # every term is positive: whether the terms peak past j = 256 or
        # at j = 0, the sum scaled by its largest term keeps its digits
        value = mittag_leffler(MLParams(alpha, beta), z)
        assert value == pytest.approx(series_60_digits(alpha, beta, z), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "alpha, beta, z",
        [
            # lgamma falls at first, so the terms rise before they fall
            (0.3, 0.3, -0.5),
            (1.0, 0.1, -0.4),
            (0.01, 0.01, -0.5),
            (0.001, 2.0, -0.5),
            (0.7, 2.5, -0.49),
            # lgamma(40) = 106, whose rounding bounds the relative error
            (0.5, 40.0, -0.3),
            (0.5, 40.0, 0.3),
        ],
    )
    def test_series_near_zero(self, alpha, beta, z):
        # for |z| <= 1/2 the signed terms of the series in logarithms fall
        # after at most a first peak, so the alternating sum keeps its digits
        value = mittag_leffler(MLParams(alpha, beta), z)
        assert value == pytest.approx(series_60_digits(alpha, beta, z), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("z", [1e-300, -1e-300, 5e-324, -5e-324])
    def test_tiny_argument(self, z):
        # log|z| near -745 sizes the lgamma table without an overflow
        # warning, and every term past the first underflows
        assert mittag_leffler(MLParams(0.5, 2.0), z) == 1.0 / gamma(2.0)


class TestArrays:
    @pytest.mark.parametrize("alpha, beta", [(0.6, 2.0)])
    def test_each_element_is_its_one_node_call(self, alpha, beta):
        # both sums in one array: the series for z >= -1/2 (as for k < 0 in
        # the reference extremal), whose lgamma table is sized by the largest
        # |z| and never by a zero, and the contour that every z < -1/2
        # shares; 2 * 256 + 6 elements cross the shared contour's blocks
        p = MLParams(alpha, beta)
        z = np.concatenate([[-0.0, 0.5, -0.5, 0.0, 1e-300, -1e-300], np.linspace(-30.0, 3.0, 2 * 256)])
        values = mittag_leffler(p, z)
        assert values.shape == z.shape
        assert values[0] == 1.0 / gamma(beta)
        for zi, value in zip(z, values):
            assert value == pytest.approx(mittag_leffler(p, float(zi)), rel=1e-13, abs=0.0)

    def test_float_in_float_out(self):
        p = MLParams(0.5, 2.0)
        for z in (0.3, -2.0, 2.0, np.float64(-2.0)):
            assert type(mittag_leffler(p, z)) is float
        assert mittag_leffler(p, np.full((2, 3), -2.0)).shape == (2, 3)

    @pytest.mark.parametrize(
        "k, alpha",
        [(k, alpha) for k in (1.0, 3.0) for alpha in (0.25, 0.5, 0.75, 0.9, 0.999)]
        + [(-1.0, alpha) for alpha in (0.25, 0.5, 0.75, 0.9)],
    )
    def test_reference_kernel_on_the_shared_contour(self, alpha, k):
        # E_{1-alpha,2}(-k t^(1-alpha)) at five grid nodes past |z| = 1/2:
        # on the shared contour for k > 0, on the series for k < 0
        # (alpha = 0.999 there is tests/test_cli.py's first_parameter_near_zero).
        # Oracle: the series in arithmetic of 40 digits more than its peak
        # term, except where it needs over 10^4 terms (alpha = 0.999) or
        # digits (alpha = 0.9, k = 3); there the Talbot inversion in 50-digit
        # arithmetic
        a = 1.0 - alpha
        z = -k * np.float_power(np.linspace(0.0, 1.0, 21), a)
        z = z[np.abs(z) > 0.5]
        z = z[np.linspace(0, z.size - 1, 5).round().astype(int)]
        oracle = talbot_50_digits if alpha == 0.999 or (alpha == 0.9 and k == 3.0) else series_40_digits
        values = mittag_leffler(MLParams(a, 2.0), z)
        for zi, value in zip(z, values):
            assert value == pytest.approx(oracle(a, 2.0, float(zi)), rel=1e-13, abs=0.0)


def series_40_digits(alpha, beta, z):
    """The Mittag-Leffler series to 40 significant digits, with the double
    parameters taken exactly: its terms peak near e^(|z|^(1/alpha)), so the
    working precision carries the digits of that peak on top."""
    digits = 40 + math.ceil(abs(z) ** (1.0 / alpha) / math.log(10.0))
    with mpmath.workdps(digits):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total = mpmath.mpf(0)
        for j in range(10000):
            term = zz**j * mpmath.rgamma(a * j + b)
            total += term
            if j > 10 and abs(term) < mpmath.mpf(10) ** -45 * abs(total):
                return float(total)
    raise AssertionError("oracle series did not converge")


def series_60_digits(alpha, beta, z):
    """The Mittag-Leffler series summed in 60-digit arithmetic, with the double
    parameters taken exactly, until a term falls below 1e-70 of the sum."""
    with mpmath.workdps(60):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total = mpmath.mpf(0)
        for j in range(100000):
            term = zz**j * mpmath.rgamma(a * j + b)
            total += term
            if j > 10 and abs(term) < mpmath.mpf(10) ** -70 * abs(total):
                return float(total)
    raise AssertionError("oracle series did not converge")


def talbot_50_digits(alpha, beta, z):
    """E_{alpha,beta}(z) as the inverse Laplace transform of
    s^(alpha-beta)/(s^alpha - z) at t = 1, by Talbot's method in 50-digit
    arithmetic, with the double parameters taken exactly."""
    with mpmath.workdps(50):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        return float(mpmath.invertlaplace(lambda s: s ** (a - b) / (s**a - zz), 1, method="talbot"))
