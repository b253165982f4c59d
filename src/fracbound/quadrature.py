"""Gamma function and robust Riemann-Liouville fractional integration.

The integrals here (the left-kernel and right-kernel panel integrals
rl_left and rl_mid, and the moment oracle abs_moment_quadrature) all
reduce to one core problem,

    integral_0^W u^(alpha-1) g(u) du

with g bounded.  For alpha < 1 the kernel is singular at u = 0; the change
of variables s = u^alpha removes it, turning the integral into

    (1/alpha) * integral_0^(W^alpha) g(s^(1/alpha)) ds

with a bounded integrand.  For alpha >= 1 the raw integrand is already
bounded and is integrated directly.  Either way the work is done by
adaptive Gauss-Kronrod quadrature (QUADPACK via scipy).  Known kink
locations of g (breakpoints of a piecewise-linear function, the corner of
|x - t|) can be forwarded so subdivision starts on them.

Everything in this module is a pure function of its arguments; there is no
shared mutable state and concurrent use is safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

__all__ = [
    "ALPHA_MAX",
    "ALPHA_MIN",
    "DEFAULT_SETTINGS",
    "DomainError",
    "Interval",
    "Order",
    "QuadratureSettings",
    "QuadratureToleranceError",
    "abs_moment_quadrature",
    "gamma_fn",
    "per_order",
    "power_array",
    "rl_left",
    "rl_mid",
    "rl_right",
]

# Orders below this make the bound coefficients (which divide by alpha)
# numerically meaningless; orders above ALPHA_MAX overflow Gamma(alpha + 1).
ALPHA_MIN = 1e-6
ALPHA_MAX = 170.0


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class QuadratureToleranceError(RuntimeError):
    """Adaptive quadrature could not meet the requested tolerances.

    Carries the best available estimate and its error bound so callers can
    decide whether the degraded result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def gamma_fn(alpha: float) -> float:
    """Gamma(alpha) for 0 < alpha <= 171, via the platform implementation.

    The platform gamma is verified at import time against exact anchor
    values and the recurrence Gamma(a+1) = a*Gamma(a); see
    :func:`_gamma_self_check`.
    """
    if not isinstance(alpha, (int, float)) or not math.isfinite(alpha):
        raise DomainError(f"gamma_fn needs a finite positive argument, got {alpha!r}")
    if alpha <= 0.0:
        raise DomainError(f"gamma_fn is restricted to alpha > 0, got {alpha}")
    if alpha > 171.0:
        raise DomainError(f"Gamma({alpha}) overflows binary64")
    return math.gamma(alpha)


def _gamma_self_check() -> None:
    # Anchors are analytically forced: Gamma(1) = 0!, Gamma(1/2) = sqrt(pi),
    # Gamma(5) = 4!.  Run once at import; a failure means the platform
    # libm is unusable for this package.
    anchors = ((1.0, 1.0), (0.5, math.sqrt(math.pi)), (5.0, 24.0))
    for arg, want in anchors:
        got = math.gamma(arg)
        if abs(got - want) > 1e-13 * want:
            raise AssertionError(f"platform gamma({arg}) = {got}, expected {want}")
    for arg in (0.25, 0.5, 1.5, 3.75, 10.0, 42.5, 101.25, 169.0):
        lhs = math.gamma(arg + 1.0)
        rhs = arg * math.gamma(arg)
        if abs(lhs - rhs) > 1e-12 * abs(rhs):
            raise AssertionError(f"gamma recurrence fails at {arg}: {lhs} vs {rhs}")


_gamma_self_check()


def power_array(base, exponent) -> np.ndarray:
    """Elementwise base ** exponent, with 0 for every base <= 0.

    ``exponent`` broadcasts against ``base``.  Each power is Python's
    float ``**`` (``operator.pow``), i.e. the platform libm ``pow``, so an
    array result equals the scalar expression bit for bit.
    ``np.power`` does not: its SIMD loops differ from libm in the last bit
    on a few percent of arguments.  The clamp is the limit convention
    0^e = 0 for e > 0, applied also to bases that rounding pushed a hair
    below zero.  Overflow raises OverflowError, as the scalar ``**`` does.
    """
    base = np.asarray(base, dtype=float)
    exps = np.broadcast_to(np.asarray(exponent, dtype=float), base.shape)
    clamped = np.where(base <= 0.0, 0.0, base)
    powers = map(operator.pow, clamped.ravel().tolist(), exps.ravel().tolist())
    return np.fromiter(powers, dtype=float, count=base.size).reshape(base.shape)


def per_order(fn, alpha) -> np.ndarray:
    """fn(al) for every entry al of the order array ``alpha``, called once
    per distinct order: a batch holds few orders and many rows."""
    distinct, inverse = np.unique(np.asarray(alpha, dtype=float), return_inverse=True)
    return np.array([fn(al) for al in distinct.tolist()], dtype=float)[inverse]


@dataclass(frozen=True)
class Order:
    """Fractional integration order alpha, restricted to [1e-6, 170]."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        a = self.alpha
        if not math.isfinite(a):
            raise DomainError(f"order must be finite, got {a!r}")
        if a < ALPHA_MIN:
            raise DomainError(f"order {a} below minimum {ALPHA_MIN}")
        if a > ALPHA_MAX:
            raise DomainError(f"order {a} above maximum {ALPHA_MAX}")


@dataclass(frozen=True)
class Interval:
    """Finite interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite: [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and subdivision budget for the adaptive integrator."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol >= 1e-14 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be >= 1e-14, got {self.abs_tol}")
        if not (self.rel_tol >= 1e-14 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be >= 1e-14, got {self.rel_tol}")
        if not (0 < self.max_subdivisions <= 10_000):
            raise DomainError(f"max_subdivisions must be in (0, 10000], got {self.max_subdivisions}")


DEFAULT_SETTINGS = QuadratureSettings()


def _adaptive(fn: Callable[[float], float], lo: float, hi: float,
              settings: QuadratureSettings, points: Sequence[float] = ()) -> float:
    """Adaptive Gauss-Kronrod integration of fn over [lo, hi].

    Raises QuadratureToleranceError when QUADPACK flags the result and the
    reported error bound exceeds the requested tolerances.
    """
    if lo == hi:
        return 0.0
    pts = sorted(p for p in points if lo < p < hi)
    result = integrate.quad(
        fn, lo, hi,
        epsabs=settings.abs_tol,
        epsrel=settings.rel_tol,
        limit=settings.max_subdivisions,
        points=pts or None,
        full_output=1,
    )
    value, abserr = result[0], result[1]
    if len(result) > 3 and abserr > max(settings.abs_tol, settings.rel_tol * abs(value)):
        raise QuadratureToleranceError(str(result[3]), value, abserr)
    return value


def _power_kernel_integral(g: Callable[[float], float], width: float, alpha: float,
                           settings: QuadratureSettings,
                           kinks: Sequence[float] = ()) -> float:
    """integral_0^width u^(alpha-1) g(u) du for bounded g.

    `kinks` are u-locations where g has corners.
    """
    if width < 0.0:
        raise DomainError(f"integration width must be nonnegative, got {width}")
    if width == 0.0:
        return 0.0
    if alpha >= 1.0:
        return _adaptive(lambda u: u ** (alpha - 1.0) * g(u), 0.0, width, settings, kinks)
    # Singular kernel: substitute s = u^alpha.
    span = width ** alpha
    inv = 1.0 / alpha
    mapped = [k ** alpha for k in kinks if k > 0.0]
    value = _adaptive(lambda s: g(s ** inv), 0.0, span, settings, mapped)
    return value / alpha


def rl_left(f: Callable[[float], float], interval: Interval, order: Order,
            upper: float, settings: QuadratureSettings = DEFAULT_SETTINGS,
            kinks: Sequence[float] = ()) -> float:
    """Left-kernel fractional integral (1/Gamma(a)) int_a^upper (t-a)^(a-1) f(t) dt.

    The kernel singularity sits at the interval's left endpoint.  `kinks`
    may list t-locations where f has corners.  Returns 0 when upper == a.
    """
    a, b = interval.a, interval.b
    if not (a <= upper <= b):
        raise DomainError(f"upper={upper} outside [{a}, {b}]")
    moved = [k - a for k in kinks]
    value = _power_kernel_integral(lambda u: f(a + u), upper - a, order.alpha, settings, moved)
    return value / gamma_fn(order.alpha)


def rl_right(f: Callable[[float], float], interval: Interval, order: Order,
             lower: float, settings: QuadratureSettings = DEFAULT_SETTINGS,
             kinks: Sequence[float] = ()) -> float:
    """(1/Gamma(a)) int_lower^b (b-t)^(a-1) f(t) dt: the last panel of :func:`rl_mid`."""
    return rl_mid(f, lower, interval.b, order, settings, kinks)


def rl_mid(f: Callable[[float], float], v1: float, v2: float, order: Order,
           settings: QuadratureSettings = DEFAULT_SETTINGS,
           kinks: Sequence[float] = ()) -> float:
    """Right-kernel fractional integral over a sub-panel:

        (1/Gamma(a)) int_v1^v2 (v2-t)^(a-1) f(t) dt

    Mirror image of :func:`rl_left` under t -> v1 + v2 - t.  Returns 0
    when v1 == v2.
    """
    if v1 > v2:
        raise DomainError(f"need v1 <= v2, got v1={v1}, v2={v2}")
    moved = [v2 - k for k in kinks]
    value = _power_kernel_integral(lambda u: f(v2 - u), v2 - v1, order.alpha, settings, moved)
    return value / gamma_fn(order.alpha)


def abs_moment_quadrature(x: float, lower: float, upper: float, kernel_anchor: float,
                          kernel_side: str, order: Order,
                          settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Quadrature oracle for weighted absolute moments (no Gamma division):

        side="left":   int_lower^upper |x - t| (t - anchor)^(alpha-1) dt
        side="right":  int_lower^upper |x - t| (anchor - t)^(alpha-1) dt

    The anchor must coincide with the singular endpoint of the kernel
    (lower for the left kernel, upper for the right one).  The |x - t|
    corner is forwarded to the integrator as a breakpoint.  This routine
    is intentionally independent of every closed-form moment expression in
    the package: it is the ground truth they are tested against.
    """
    if lower > upper:
        raise DomainError(f"need lower <= upper, got {lower} > {upper}")
    width = upper - lower
    if kernel_side == "left":
        if kernel_anchor != lower:
            raise DomainError(f"left kernel anchor must equal lower={lower}, got {kernel_anchor}")
        g = lambda u: abs(x - lower - u)
        kink = x - lower
    elif kernel_side == "right":
        if kernel_anchor != upper:
            raise DomainError(f"right kernel anchor must equal upper={upper}, got {kernel_anchor}")
        g = lambda u: abs(x - upper + u)
        kink = upper - x
    else:
        raise DomainError(f"kernel_side must be 'left' or 'right', got {kernel_side!r}")
    return _power_kernel_integral(g, width, order.alpha, settings, (kink,))
