"""Semi-analytic reference extremals of every F(v) with G = v.

On [0, b] the constraint integral_0^b v dt = xi holds with v = xi / b
everywhere, F'(v) = lambda holds with lambda = F'(xi / b), and the extremal
is the convolution

    y(t) = (xi / b) * integral_0^t E_{1-alpha,1}(-k * s^(1-alpha)) ds.

Integrating the kernel series term by term gives its closed form

    y(t) = xi * (t / b) * E_{1-alpha,2}(-k * t^(1-alpha)),

evaluated at all nodes by one Mittag-Leffler call, and y(0) = 0.  Dividing
t, not xi, by b keeps xi / b from overflowing.  The tests check it against
adaptive quadrature of the convolution.  For k = 1 and b = 1 its
alpha -> 0 limit is 1 - e^{-t}, approached at first order in alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracgrid import FracOrder, Grid, SampledFunction
from .special import MLParams, erfc, mittag_leffler

__all__ = [
    "ReferenceSpec",
    "ml_convolution_extremal",
    "boundary_value",
    "closed_form_alpha_half",
]


@dataclass(frozen=True)
class ReferenceSpec:
    """Data of the isoperimetric family F(v), G = v, anchored at a = 0."""

    k: float
    order: FracOrder
    xi: float
    grid: Grid

    def __post_init__(self) -> None:
        if self.grid.a != 0.0:
            raise ValueError("reference extremals are anchored at a = 0")
        if not (math.isfinite(self.k) and math.isfinite(self.xi)):
            raise ValueError("reference extremals need finite k and xi")


def _extremal(spec: ReferenceSpec, t: np.ndarray) -> np.ndarray:
    """xi * (t / b) * E_{1-alpha,2}(-k * t^(1-alpha)) at the nodes t."""
    alpha = spec.order.alpha
    # float_power rounds as the C library's pow, which Python floats use, so
    # z does not depend on whether t is one node or the whole grid; z = +-inf
    # is a meaningful argument, so its overflow is not warned of
    with np.errstate(over="ignore"):
        z = -spec.k * np.float_power(t, 1.0 - alpha)
    e = mittag_leffler(MLParams(1.0 - alpha, 2.0), z)
    with np.errstate(over="ignore", invalid="ignore"):
        y = spec.xi * (t / spec.grid.b) * e
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise OverflowError(f"reference extremal overflows at t = {float(t[bad[0]])!r}")
    return y


def ml_convolution_extremal(spec: ReferenceSpec) -> SampledFunction:
    """Sampled reference extremal from its closed form."""
    return SampledFunction(spec.grid, _extremal(spec, spec.grid.nodes()))


def boundary_value(spec: ReferenceSpec) -> float:
    """y(b) of the reference extremal, supplied to solves as the right BC."""
    return float(_extremal(spec, np.array([spec.grid.b]))[0])


def closed_form_alpha_half(t: float, xi: float) -> float:
    """Closed form of the k = 1, alpha = 1/2 extremal.

    Of the two sign variants of the closed form, the convolution extremal
    confirms

        y(t) = xi * (e^t * erfc(sqrt(t)) - 1 + 2*sqrt(t)/sqrt(pi));

    the variant with a negative 2*sqrt(t)/sqrt(pi) term does not match
    (see the sign-resolution test).
    """
    return xi * (math.exp(t) * erfc(math.sqrt(t)) - 1.0 + 2.0 * math.sqrt(t / math.pi))
