"""Special functions: gamma and the complementary error function, which are
math's, and the two-parameter Mittag-Leffler function E_{alpha,beta}(z),
0 < alpha <= 1, over arrays of real z, by one of two sums chosen from z: for
z >= -1/2 its power series in logarithms, each term scaled by the largest,
and for z < -1/2 Garrappa's inversion of the Laplace transform
s^(alpha-beta) / (s^alpha - z) (SIAM J. Numer. Anal. 53, 2015) on one
parabolic contour s = mu (1 + iu)^2 (Weideman and Trefethen, Math. Comp. 76,
2007), which for alpha <= 1 has no pole right of the cut."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erfc, gamma

import numpy as np

__all__ = [
    "MittagLefflerError",
    "MLParams",
    "gamma",
    "erfc",
    "mittag_leffler",
]

_EPS = 2.220446049250313e-16
_LOG_EPS = math.log(_EPS)
#: Natural logarithm of the largest double: a value past it overflows.
_LOG_MAX = math.log(np.finfo(float).max)
#: Target relative accuracy of the contour integral, as a logarithm.
_LOG_TOL = math.log(1e-15)
#: z per block of the trapezoid sum: a complex temporary of <= 256 x 201 values.
_BLOCK = 256
#: Values per block of the series: a temporary of 512 kB.
_BLOCK_VALUES = 1 << 16


class MittagLefflerError(ArithmeticError):
    """E_{alpha,beta}(z) overflows double precision, or needs over 2^20 terms."""


@dataclass(frozen=True)
class MLParams:
    """Parameters of E_{alpha,beta}: 0 < alpha <= 1 and a finite beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0 and 0.0 < self.beta < math.inf):
            raise ValueError(
                f"Mittag-Leffler parameters need 0 < alpha <= 1 and a finite beta > 0, "
                f"got alpha={self.alpha!r}, beta={self.beta!r}"
            )


def mittag_leffler(p: MLParams, z: float | np.ndarray) -> float | np.ndarray:
    """Evaluate sum_{j>=0} z^j / gamma(alpha*j + beta) at each real z.

    A float z gives a float; an array of z gives an array of its shape.  For
    |z| <= 1/2 the relative error is a few eps, at large beta up to
    eps * lgamma(beta), the rounding of the largest term's logarithm.  For
    z < -1/2 it is a few eps, but past beta ~ 15 the contour's terms outgrow
    the value: E_{0.5,40}(-2) is 3.72e-47, the contour gives 5.79e-47.  For
    z > 1/2 the value is about e^(z^(1/alpha)), its relative error up to
    eps * z^(1/alpha) / alpha, the rounding of j log z at the largest term,
    and near z = 1 it takes about 20 / alpha terms.
    MittagLefflerError is raised where a value overflows double precision,
    or where z > 1/2 needs more than 2^20 terms (alpha < 2e-5, z near 1).
    """
    zs = np.asarray(z, dtype=float)
    flat = zs.reshape(-1)
    if np.isposinf(flat).any():
        raise _overflow(p, math.inf)
    out = np.empty(flat.size)
    contour = ~(flat >= -0.5)  # and NaN
    zero = flat == 0.0
    series = ~(contour | zero)
    if zero.any():
        # the first term alone, subnormal past beta = 171.6
        out[zero] = 1.0 / math.gamma(p.beta) if p.beta < 171.0 else math.exp(-math.lgamma(p.beta))
    if series.any():
        out[series] = _series(p, flat[series])
    if contour.any():
        out[contour] = _contour(p, flat[contour])
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _series(p: MLParams, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} at each z >= -1/2, z != 0, as the sum of (-1)^j e^(j w -
    lgamma(alpha j + beta)) for z < 0 (without the sign for z > 0), w = log|z|,
    scaled by its largest term: lgamma is convex, so its increments grow and
    the terms rise until the first increment past w, then fall: for
    -1/2 <= z < 0 the signed terms fall after at most a first peak, so little
    cancels.  z is overwritten by w."""
    negative = z < 0.0
    w = np.log(np.abs(z, out=z), out=z)
    lg = _log_gamma_table(p, float(w.max()))
    rise = np.diff(lg)
    j = np.arange(lg.size, dtype=float)
    out = np.empty(w.size)
    rows = max(1, _BLOCK_VALUES // lg.size)
    block = np.empty((min(rows, w.size), lg.size))
    for b0 in range(0, w.size, rows):
        wb = w[b0:b0 + rows]
        peak = np.searchsorted(rise, wb)
        top = peak * wb - lg[peak]
        t = np.multiply.outer(wb, j, out=block[:wb.size])
        t -= lg
        t -= top[:, None]
        np.exp(t, out=t)
        odd = t[:, 1::2]
        np.negative(odd, out=odd, where=negative[b0:b0 + rows, None])
        with np.errstate(over="ignore"):
            out[b0:b0 + rows] = np.exp(top) * t.sum(axis=1)
    finite = np.isfinite(out)
    if not finite.all():  # only a z > 1/2 overflows
        raise _overflow(p, math.exp(w[np.argmin(finite)]))
    return out


def _overflow(p: MLParams, z: float) -> MittagLefflerError:
    return MittagLefflerError(
        f"Mittag-Leffler function E_{{{p.alpha:g},{p.beta:g}}}({z:g}) overflows double precision"
    )


def _log_gamma_table(p: MLParams, w: float) -> np.ndarray:
    """lgamma(alpha j + beta) for j = 0 to J, where the terms at z = e^w (and
    below) leave a tail under eps/4 of the sum, or one term overflows."""
    lg = np.empty(0)
    for size in 2 ** np.arange(6, 21):
        lg = np.append(lg, [math.lgamma(p.alpha * j + p.beta) for j in range(lg.size, size)])
        t = w * np.arange(size) - lg
        top = t.max()
        if not top <= _LOG_MAX:
            return lg
        # past the peak, term j + 1 / term j = e^(w - rise_j) only shrinks, so
        # the tail past term j is below e^t_j / (e^(rise_j - w) - 1)
        rise = np.diff(lg)
        falling = np.flatnonzero(rise > w)
        with np.errstate(over="ignore"):  # rise - w passes 709 for z near 0
            log_tail = t[falling] - np.log(np.expm1(rise[falling] - w))
        done = falling[log_tail < top + _LOG_EPS - math.log(4.0)]
        if done.size:
            return lg[:done[0] + 1]
    raise MittagLefflerError(
        f"Mittag-Leffler function E_{{{p.alpha:g},{p.beta:g}}}({math.exp(w):g}) needs more than "
        f"2^20 terms of its series"
    )


def _contour(p: MLParams, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} at each z < 0 by the trapezoid rule on one parabolic contour."""
    strength = max(0.0, -2.0 * (p.alpha - p.beta + 1.0))
    log_tol = _LOG_TOL
    # as published: past 200 nodes, a tenth of the accuracy
    while (params := _contour_parameters(strength, log_tol))[0] > 200:
        log_tol += math.log(10.0)
    n, mu, h = params
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    s_alpha = s**p.alpha
    num = np.exp(s) * s ** (p.alpha - p.beta)
    ds = 2.0 * mu * (1j - u)
    integral = np.empty(z.size)
    for b0 in range(0, z.size, _BLOCK):
        f = s_alpha - z[b0:b0 + _BLOCK, None]
        np.divide(num, f, out=f)
        f *= ds
        # for real z the nodes at -u give the conjugates: f(-u) = -conj(f(u))
        integral[b0:b0 + _BLOCK] = 2.0 * f.imag.sum(axis=1) - f[:, 0].imag
    integral *= h / (2.0 * math.pi)
    return integral


def _contour_parameters(strength: float, log_tol: float) -> tuple[float, float, float]:
    """Garrappa's OptimalParam_RU right of the branch point: (nodes N, mu, step h)."""
    phi_bar = 0.01
    sq_bar = math.sqrt(phi_bar)
    while True:
        log_eps_phi = log_tol / phi_bar
        n = math.ceil(phi_bar / math.pi * (1.0 - 1.5 * log_eps_phi + math.sqrt(1.0 - 2.0 * log_eps_phi)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        f_bar = (sq_bar / sq_mu) ** (-strength)
        if strength < 1e-14 or 1.0 < f_bar < 10.0:
            break
        sq_bar = 5.0 ** (-1.0 / strength) * sq_mu
        phi_bar = sq_bar**2
    mu = sq_mu**2
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # past mu = log(tol/eps), e^s on the contour would swamp the value in
    # roundoff: shrink the contour to that mu
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if strength < 1e-14 else 5.0 ** (-1.0 / strength) * math.sqrt(mu)
        phi_bar = q**2
        if phi_bar >= threshold:
            return math.inf, 0.0, 0.0
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phi_bar / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi * (u * w - 1.0)))
        h = w / n
    return n, mu, h
