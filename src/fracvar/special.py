"""Special functions: gamma and the complementary error function, which are
math's, and the two-parameter Mittag-Leffler function over arrays of real z.

The Mittag-Leffler function E_{alpha,beta}(z) has two routes:

* |z| <= 1/2: its power series, which converges within ~60 terms and
  cancels at most a few times over;
* every other real z: Garrappa's inversion of its Laplace transform
  s^(alpha-beta) / (s^alpha - z) (R. Garrappa, "Numerical evaluation of two
  and three parameter Mittag-Leffler functions", SIAM J. Numer. Anal. 53,
  2015).  The trapezoid rule runs on the parabolic contour
  s = mu (1 + iu)^2 (Weideman and Trefethen, Math. Comp. 76, 2007), placed
  between the singularities where it needs the fewest nodes, and the
  residues of the poles to its right are added exactly.  For z < 0 and
  alpha < 1 the transform has no pole on the principal sheet, so the
  contour depends on (alpha, beta) alone and one contour serves every such
  z; every other z places a contour of its own.
"""

from __future__ import annotations

import cmath
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

#: Largest x for which gamma(x) is finite in IEEE double precision.
_GAMMA_MAX = 171.624376956302

_EPS = 2.220446049250313e-16
_LOG_EPS = math.log(_EPS)
#: Target relative accuracy of the contour integral, as a logarithm.
_LOG_TOL = math.log(1e-15)
#: e^s overflows double precision past this real part.
_RE_MAX = 709.0
#: z per block of the trapezoid sum, so that its complex temporary of
#: 256 x (N + 1) <= 256 x 201 values stays under 1 MB at any number of z.
_BLOCK = 256


class MittagLefflerError(ArithmeticError):
    """The Mittag-Leffler function overflows double precision."""


@dataclass(frozen=True)
class MLParams:
    """Parameters of the two-parameter Mittag-Leffler series; both must be > 0."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"Mittag-Leffler parameters must be positive, got "
                f"alpha={self.alpha!r}, beta={self.beta!r}"
            )


def mittag_leffler(p: MLParams, z: float | np.ndarray) -> float | np.ndarray:
    """Evaluate sum_{j>=0} z^j / gamma(alpha*j + beta) at each real z.

    A float z gives a float; an array of z gives an array of its shape.  The
    series serves |z| <= 1/2 and the contour integral every other z.  For
    z < 0 the relative error is a few eps.  For z > 0 the value is about
    e^(z^(1/alpha)) and its relative error about eps * z^(1/alpha), the
    rounding of that exponent.  Past beta ~ 15 the contour's terms outgrow
    the value, which loses digits: E_{1.5,20}(-5) is 2e-9 off.
    MittagLefflerError is raised where a value overflows double precision.
    """
    zs = np.asarray(z, dtype=float)
    flat = zs.reshape(-1)
    out = np.empty(flat.size)
    series = np.abs(flat) <= 0.5
    shared = ~series & (flat < 0.0) & (p.alpha < 1.0)
    if series.any():
        out[series] = _series(p, flat[series])
    if shared.any():
        out[shared] = _contour(p, flat[shared], [])
    for i in np.flatnonzero(~(series | shared)):
        out[i] = _contour(p, flat[i:i + 1], _poles(p, float(flat[i])))[0]
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _series(p: MLParams, z: np.ndarray) -> np.ndarray:
    # for |z| <= 1/2 the term ratio |z| gamma(x) / gamma(x + alpha) is at
    # most 1 after the first term and falls from there, so the tail is
    # within a few times the last term; each z stops at its own term
    total = np.zeros(z.size)
    live = np.arange(z.size)
    j = 0
    while live.size and (x := p.alpha * j + p.beta) < _GAMMA_MAX:  # 1/gamma(x) underflows past it
        term = z[live] ** j / math.gamma(x)
        total[live] += term
        if j > 0:
            live = live[~(np.abs(term) <= 0.25 * _EPS * np.abs(total[live]))]
        j += 1
    return total


def _poles(p: MLParams, z: float) -> list[complex]:
    """Poles of s^(alpha-beta) / (s^alpha - z) on the principal sheet,
    s* = |z|^(1/alpha) e^(i(theta + 2k pi)/alpha) with |arg s*| <= pi."""
    theta = 0.0 if z > 0.0 else math.pi
    k_min = math.ceil(-p.alpha / 2.0 - theta / (2.0 * math.pi))
    k_max = math.floor(p.alpha / 2.0 - theta / (2.0 * math.pi))
    poles = []
    # |z|^(1/alpha) may overflow where no pole exists (z < 0 and alpha < 1),
    # so it is taken only from here on
    log_r = math.log(abs(z)) / p.alpha
    for k in range(k_min, k_max + 1):
        angle = (theta + 2.0 * math.pi * k) / p.alpha
        cos = math.cos(angle)
        if cos > 0.0 and log_r + math.log(cos) > math.log(_RE_MAX):
            raise MittagLefflerError(
                f"Mittag-Leffler function E_{{{p.alpha:g},{p.beta:g}}}({z:g}) overflows "
                f"double precision: a pole s of its Laplace transform has Re s > {_RE_MAX:g}"
            )
        poles.append(cmath.rect(math.exp(log_r), angle))
    return poles


def _contour(p: MLParams, z: np.ndarray, poles: list[complex]) -> np.ndarray:
    """E_{alpha,beta} at each z by the trapezoid rule on one parabolic
    contour, which needs the poles of the transform to be the same at every
    z: those of a single z, or none."""
    # a pole s* bounds the parabolas that pass left of it by
    # phi = (Re s* + |s*|) / 2; poles with phi = 0 lie on the branch cut,
    # which every contour keeps to its left
    def phi_of(s: complex) -> float:
        return (s.real + abs(s)) / 2.0

    poles = sorted((s for s in poles if phi_of(s) > 1e-15), key=phi_of)
    # singularities by phi: the origin, whose strength comes from the branch
    # point of s^(alpha-beta), then the simple poles; region j lies between
    # singularity j and j + 1, and on the contour through it e^s must stay
    # within tol/eps of the value
    phi = [0.0, *map(phi_of, poles), math.inf]
    strength = [max(0.0, -2.0 * (p.alpha - p.beta + 1.0)), *[1.0] * len(poles)]
    regions = [
        j for j in range(len(poles) + 1) if phi[j] < _LOG_TOL - _LOG_EPS and phi[j] < phi[j + 1]
    ]
    log_tol = _LOG_TOL
    while True:
        n, mu, h, j = min(
            (*_unbounded_region(phi[j], strength[j], log_tol), j)
            if math.isinf(phi[j + 1])
            else (*_bounded_region(phi[j], phi[j + 1], strength[j], log_tol), j)
            for j in regions
        )
        if n <= 200:
            break
        # as published: past 200 nodes, a tenth of the accuracy
        log_tol += math.log(10.0)
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
    # the poles right of the contour
    residues = sum((s ** (1.0 - p.beta) * cmath.exp(s) for s in poles[j:]), 0j) / p.alpha
    integral += residues.real
    return integral


def _bounded_region(
    phi_j: float, phi_j1: float, p_j: float, log_tol: float
) -> tuple[float, float, float]:
    """Garrappa's OptimalParam_RB: (nodes N, mu, step h) of the contour
    between singularity j of strength p_j and the simple pole j + 1."""
    fac = 1.01
    f_max = math.exp(log_tol - _LOG_EPS)
    sq_j = math.sqrt(phi_j)
    sq_j1 = min(math.sqrt(phi_j1), 2.0 * math.sqrt(log_tol - _LOG_EPS) - sq_j)
    if p_j < 1e-14:
        # only the origin (sq_j = 0) can be this weak
        f_bar = fac + fac / f_max * (f_max - fac)
        bar_j = sq_j
        bar_j1 = 2.0 * sq_j1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = fac * ((sq_j + sq_j1) / (sq_j1 - sq_j)) ** max(p_j, 1.0)
        if f_min >= f_max:
            return math.inf, 0.0, 0.0
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p_j)
        fq = 1.0 / f_bar
        w = -phi_j1 / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        bar_j = ((2.0 + w + fq) * sq_j + fp * sq_j1) / den
        bar_j1 = (-(1.0 + w) * fq * sq_j + (2.0 + w - (1.0 + w) * fp) * sq_j1) / den
    log_tol -= math.log(f_bar)
    w = -bar_j1**2 / log_tol
    mu = (((1.0 + w) * bar_j + bar_j1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (bar_j1 - bar_j) / ((1.0 + w) * bar_j + bar_j1)
    return math.ceil(math.sqrt(1.0 - log_tol / mu) / h), mu, h


def _unbounded_region(phi_j: float, p_j: float, log_tol: float) -> tuple[float, float, float]:
    """Garrappa's OptimalParam_RU: (nodes N, mu, step h) of the contour
    right of the last singularity j, of strength p_j."""
    sq_j = math.sqrt(phi_j)
    phi_bar = 1.01 * phi_j if phi_j > 0.0 else 0.01
    sq_bar = math.sqrt(phi_bar)
    f_tar = 5.0
    while True:
        log_eps_phi = log_tol / phi_bar
        n = math.ceil(phi_bar / math.pi * (1.0 - 1.5 * log_eps_phi + math.sqrt(1.0 - 2.0 * log_eps_phi)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        f_bar = ((sq_bar - sq_j) / sq_mu) ** (-p_j)
        if p_j < 1e-14 or 1.0 < f_bar < 10.0:
            break
        sq_bar = f_tar ** (-1.0 / p_j) * sq_mu + sq_j
        phi_bar = sq_bar**2
    mu = sq_mu**2
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # past mu = log(tol/eps), e^s on the contour would swamp the value in
    # roundoff: shrink the contour to that mu
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p_j < 1e-14 else f_tar ** (-1.0 / p_j) * math.sqrt(mu)
        phi_bar = (q + sq_j) ** 2
        if phi_bar >= threshold:
            return math.inf, 0.0, 0.0
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phi_bar / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi * (u * w - 1.0)))
        h = w / n
    return n, mu, h
