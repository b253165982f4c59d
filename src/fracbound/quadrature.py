"""Gamma function and the batched Riemann-Liouville quadrature oracle.

The integrals here (the left-kernel and right-kernel panel integrals
rl_left and rl_mid, and the moment oracle abs_moment_quadrature) all
reduce to one core problem,

    integral_0^W u^(alpha-1) g(u) du

with g bounded.  Callers pass g as g(u) = h(origin + u) or h(origin - u):
rl_left passes the function and the left end a, rl_mid the function and
the right end v2, and the moment oracle passes h = abs with origin
x - lower or x - upper.

:func:`kernel_integrals` solves it for many rows at once.  It integrates W^alpha int_0^1 s^(alpha-1) g(W s) ds over the
pieces of [0, 1] between the known kinks of g (breakpoints of a
piecewise-linear function, the corner of |x - t|).  The piece that
touches s = 0, where the kernel is singular for alpha < 1, takes a pair
of Gauss-Jacobi rules for the weight s^(alpha-1), with nodes from Golub
and Welsch (Math. Comp. 23, 1969) through numpy.linalg.eigh, cached per
order; they are exact for an integrand linear on that piece, and the
piece is halved while the two disagree beyond the tolerance.  Every
other piece takes Gauss-Kronrod 10/21 and is split likewise.  The fixed
tolerances ABS_TOL and REL_TOL (1e-11 each) apply to each row's total
error bound within MAX_SUBDIVISIONS (200) pieces; a row that misses them
reports its estimate and error bound, and the one-row wrappers raise
QuadratureToleranceError with both.  A row's value does not depend on
the batch it is in, so rl_left, rl_mid, rl_right and
abs_moment_quadrature, one-row calls of the same core, give the bits of
that row in any batch.  QUADPACK (Piessens et al., 1983) is the
reference the test suite holds the oracle to; this module needs numpy
alone.

Everything in this module is a pure function of its arguments; the only
shared state is the per-order cache of Gauss-Jacobi rules, whose arrays
are read-only, and concurrent use is safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ALPHA_MAX",
    "ALPHA_MIN",
    "DomainError",
    "Integrals",
    "Interval",
    "Order",
    "QuadratureToleranceError",
    "abs_moment_quadrature",
    "abs_moments",
    "gamma_fn",
    "gauss_jacobi",
    "kernel_integrals",
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
# The oracle's requested absolute and relative errors and its limit on the
# pieces of one integral.
ABS_TOL = 1e-11
REL_TOL = 1e-11
MAX_SUBDIVISIONS = 200


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
    """Finite interval [a, b] with a < b and a finite width b - a."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite: [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval needs a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):
            raise DomainError(f"interval width b - a overflows binary64: [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK's qk21): its nodes
# x >= 0, largest first, and their weights; the embedded 10-point Gauss
# rule uses every other node, x[1], x[3], ..., x[9].
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208015324773, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _mirrored(half) -> np.ndarray:
    """Values at the 21 nodes -x[0], ..., -x[9], 0, x[9], ..., x[0] from those at x >= 0."""
    return np.array(half[:-1] + half[::-1], dtype=float)


GK_NODES = _mirrored(_XGK) * np.array([-1.0] * 10 + [1.0] * 11)
GK_WEIGHTS = _mirrored(_WGK)
G10_WEIGHTS = _mirrored((0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[4], 0.0))
# Point counts of the two Gauss-Jacobi rules on the piece at the singular
# end; together they take as many points as the Kronrod rule.
GJ_LOW, GJ_HIGH = 7, 14


def gauss_jacobi(alpha: float, n: int):
    """(nodes, weights) of the n-point Gauss rule on [0, 1] for the weight s^(alpha-1).

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Jacobi matrix of the monic polynomials orthogonal for that
    weight, and the weights are mu_0 = 1/alpha times the squared first
    components of the unit eigenvectors.  The entries are written in
    alpha, so none cancels as alpha approaches 0.
    """
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = alpha / (alpha + 1.0)
    square = (2.0 * k + alpha) ** 2 - 1.0
    diag[1:] = (square + (alpha - 1.0) ** 2) / (2.0 * square)
    off = np.sqrt(k * k * (k - 1.0 + alpha) ** 2
                  / ((2.0 * k - 1.0 + alpha) ** 2 * (2.0 * k + alpha) * (2.0 * k - 2.0 + alpha)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vectors[0] ** 2 / alpha


@lru_cache(maxsize=256)
def _singular_rules(alpha: float):
    """Nodes on [0, 1] of the GJ_LOW- and GJ_HIGH-point Gauss-Jacobi rules,
    side by side, with the weights of the high rule (zero on the low
    rule's nodes) and of the low rule (zero on the high rule's)."""
    low_x, low_w = gauss_jacobi(alpha, GJ_LOW)
    high_x, high_w = gauss_jacobi(alpha, GJ_HIGH)
    rules = (np.concatenate((low_x, high_x)),
             np.concatenate((np.zeros(GJ_LOW), high_w)),
             np.concatenate((low_w, np.zeros(GJ_HIGH))))
    for array in rules:
        array.setflags(write=False)
    return rules


class Integrals(NamedTuple):
    """Values, error bounds and convergence flags of a batch of integrals."""

    value: np.ndarray
    error: np.ndarray
    converged: np.ndarray


def _piece_rules(row, lo, hi, alpha):
    """(nodes, high weights, low weights) on each piece [lo, hi] of [0, 1]
    for the weight s^(alpha-1): the Gauss-Jacobi pair on pieces that
    start at 0, Gauss-Kronrod 10/21 times the weight elsewhere."""
    nodes = np.empty((len(row), GK_NODES.size))
    high, low = np.empty_like(nodes), np.empty_like(nodes)
    singular = lo == 0.0
    regular = ~singular
    center = 0.5 * (lo[regular] + hi[regular])
    half = 0.5 * (hi[regular] - lo[regular])
    s = center[:, None] + half[:, None] * GK_NODES
    # np.float_power calls libm pow element by element, as power_array
    # does, without the round trip through Python floats.
    weight = half[:, None] * np.float_power(s, alpha[row[regular], None] - 1.0)
    nodes[regular], high[regular], low[regular] = s, weight * GK_WEIGHTS, weight * G10_WEIGHTS
    if singular.any():
        # int_0^c s^(alpha-1) g(s) ds = c^alpha int_0^1 s^(alpha-1) g(c s) ds
        orders, which = np.unique(alpha[row[singular]], return_inverse=True)
        rules = [_singular_rules(al) for al in orders.tolist()]
        x, w_high, w_low = (np.stack(parts)[which] for parts in zip(*rules))
        c = hi[singular]
        c_pow = np.float_power(c, alpha[row[singular]])[:, None]
        nodes[singular] = c[:, None] * x
        high[singular], low[singular] = c_pow * w_high, c_pow * w_low
    return nodes, high, low


def kernel_integrals(h, origin, direction, width, alpha, kinks) -> Integrals:
    """integral_0^W u^(alpha-1) h(origin + direction * u) du for every row.

    Row i has W = width[i] >= 0, order alpha[i], origin[i] and direction[i]
    (+1.0 or -1.0); kinks[i] lists u-locations of corners of its
    integrand, and those outside (0, W) are ignored.  ``h(rows, t)``
    returns the integrand's values at ``t``, an array with one row per
    entry of ``rows``: row r of ``t`` belongs to batch row rows[r].

    The integral is taken as W^alpha int_0^1 s^(alpha-1) h(origin +
    direction * (W s)) ds, with [0, 1] cut at the kinks.  The piece at
    s = 0 holds the singular end of the kernel and takes the Gauss-Jacobi
    pair for the weight s^(alpha-1) (exact for a linear integrand); it is
    halved while the two rules disagree by more than the tolerance
    allows.  Every other piece takes Gauss-Kronrod 10/21 and is split
    likewise (:func:`_split_points`).  The error bound of a piece is the difference of its two
    rules.  A row meets its tolerance when the sum of its error bounds is
    at most max(ABS_TOL, REL_TOL * |value|); until then each round splits
    every piece of the row whose bound exceeds the row's allowance per
    piece.  A row that would need more than MAX_SUBDIVISIONS pieces, or
    whose integrand overflows, stops with converged False and its last
    estimate.

    Each row's pieces are kept in order along [0, 1] and summed in that
    order, the rules are summed node by node, and every power is libm
    ``pow``, so a row's value does not depend on the other rows of the
    batch.
    """
    width = np.asarray(width, dtype=float)
    n = width.size
    origin, direction, alpha = (np.broadcast_to(np.asarray(v, dtype=float), (n,))
                                for v in (origin, direction, alpha))
    kinks = np.asarray(kinks, dtype=float).reshape(n, -1)
    if not (width >= 0.0).all():
        raise DomainError(f"integration widths must be nonnegative, got {width.min()}")
    scale = power_array(width, alpha)
    with np.errstate(divide="ignore", over="ignore"):
        # The tolerance on the integral over [0, 1]; infinite where W^alpha
        # underflows, since every value there is 0.
        abs_tol = ABS_TOL / scale
    row, lo, hi = _initial_pieces(width, kinks)
    value, error, converged = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
    high, bound = np.empty(len(row)), np.empty(len(row))
    fresh = np.ones(len(row), dtype=bool)
    # An integrand that overflows gives its row non-finite sums, which
    # never meet the tolerance: the row ends unconverged.
    with np.errstate(over="ignore", invalid="ignore"):
        while len(row):
            rows = row[fresh]
            nodes, w_high, w_low = _piece_rules(rows, lo[fresh], hi[fresh], alpha)
            t = origin[rows, None] + direction[rows, None] * (width[rows, None] * nodes)
            g = np.broadcast_to(np.asarray(h(rows, t), dtype=float), t.shape)
            q_high, q_low = _node_sum(w_high * g), _node_sum(w_low * g)
            high[fresh], bound[fresh] = q_high, np.abs(q_high - q_low)

            total = np.bincount(row, high, minlength=n)
            total_bound = np.bincount(row, bound, minlength=n)
            count = np.bincount(row, minlength=n)
            tol = np.maximum(abs_tol, REL_TOL * np.abs(total))
            split = ~(bound * count[row] <= tol[row])
            wanted = count + np.bincount(row, split, minlength=n)
            met = total_bound <= tol
            done = met | (wanted == count) | (wanted > MAX_SUBDIVISIONS)
            finished = done & (count > 0)
            value[finished], error[finished] = total[finished], total_bound[finished]
            converged[finished] = met[finished]

            split &= ~done[row]
            take = np.repeat(np.arange(len(row)), np.where(done[row], 0, 1 + split))
            second = np.zeros(len(take), dtype=bool)
            second[1:] = take[1:] == take[:-1]
            fresh = split[take]
            mid = _split_points(lo, hi)
            lo, hi = (np.where(second, mid[take], lo[take]),
                      np.where(fresh & ~second, mid[take], hi[take]))
            row, high, bound = row[take], high[take], bound[take]
        value, error = scale * value, scale * error
    return Integrals(value, error, converged & np.isfinite(value))


def _node_sum(products: np.ndarray) -> np.ndarray:
    """Each row's sum 0.0 + p_0 + p_1 + ..., added in node order: one
    elementwise add per node over every row (unlike np.sum's pairwise sum,
    it never reassociates).  p_0 + 0.0 is the 0.0 + p_0 the sum starts
    with: it turns the -0.0 of a row of -0.0 products into +0.0."""
    nodes = products.T
    total = nodes[0] + 0.0
    for column in nodes[1:]:
        total += column
    return total


def _initial_pieces(width: np.ndarray, kinks: np.ndarray):
    """(row, lo, hi) of the pieces of [0, 1] cut at kinks / width, row by
    row and in order along each row; a row of width 0 has none."""
    n = width.size
    live = width > 0.0
    inside = (kinks > 0.0) & (kinks < width[:, None])
    cuts = np.sort(np.divide(kinks, width[:, None], out=np.ones_like(kinks), where=inside),
                   axis=1)
    ends = np.concatenate((np.zeros((n, 1)), cuts, np.ones((n, 1))), axis=1)
    # A cut equal to the one before it, or to 1, starts no piece.
    keep = np.concatenate((live[:, None], ends[:, 1:] > ends[:, :-1]), axis=1) & live[:, None]
    owner, points = np.nonzero(keep)[0], ends[keep]
    piece = owner[1:] == owner[:-1]
    return owner[:-1][piece], points[:-1][piece], points[1:][piece]


def _split_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where each piece [lo, hi] of [0, 1] splits.  The piece at 0 is
    halved.  One reaching more than four times as far from 0 as it starts
    splits at its geometric mean, which halves the logarithmic range of
    the kernel s^(alpha-1) and so its variation, what sets the error
    there; any other at its midpoint."""
    mid = np.where(hi > 4.0 * lo, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
    return np.where(lo > 0.0, mid, 0.5 * hi)


def _one_row(f: Callable, origin: float, direction: float, width: float, alpha: float,
             kinks: Sequence[float], divisor: float) -> float:
    """:func:`kernel_integrals` of f on one row, divided by ``divisor``;
    raises QuadratureToleranceError when the row misses its tolerances."""
    return _checked(kernel_integrals(lambda rows, t: f(t), origin, direction, [width], alpha,
                                     [list(kinks)]), divisor)


def _checked(result: Integrals, divisor: float) -> float:
    """The value of a one-row result divided by ``divisor``; raises
    QuadratureToleranceError when the row missed its tolerances."""
    value = float(result.value[0]) / divisor
    if not result.converged[0]:
        raise QuadratureToleranceError(
            f"no {ABS_TOL:g}-absolute or {REL_TOL:g}-relative estimate within "
            f"{MAX_SUBDIVISIONS} pieces", value, float(result.error[0]) / divisor)
    return value


def rl_left(f: Callable[[np.ndarray], np.ndarray], interval: Interval, order: Order,
            upper: float, kinks: Sequence[float] = ()) -> float:
    """Left-kernel fractional integral (1/Gamma(a)) int_a^upper (t-a)^(a-1) f(t) dt.

    The kernel singularity sits at the interval's left endpoint.  f is
    called on arrays of points and returns its values entrywise (or one
    value for all).  `kinks` may list t-locations where f has corners.
    Returns 0 when upper == a.
    """
    a, b = interval.a, interval.b
    if not (a <= upper <= b):
        raise DomainError(f"upper={upper} outside [{a}, {b}]")
    return _one_row(f, a, 1.0, upper - a, order.alpha, [k - a for k in kinks],
                    gamma_fn(order.alpha))


def rl_right(f: Callable[[np.ndarray], np.ndarray], interval: Interval, order: Order,
             lower: float, kinks: Sequence[float] = ()) -> float:
    """(1/Gamma(a)) int_lower^b (b-t)^(a-1) f(t) dt: the last panel of :func:`rl_mid`."""
    return rl_mid(f, lower, interval.b, order, kinks)


def rl_mid(f: Callable[[np.ndarray], np.ndarray], v1: float, v2: float, order: Order,
           kinks: Sequence[float] = ()) -> float:
    """Right-kernel fractional integral over a sub-panel:

        (1/Gamma(a)) int_v1^v2 (v2-t)^(a-1) f(t) dt

    Mirror image of :func:`rl_left` under t -> v1 + v2 - t.  Returns 0
    when v1 == v2.
    """
    if v1 > v2:
        raise DomainError(f"need v1 <= v2, got v1={v1}, v2={v2}")
    return _one_row(f, v2, -1.0, v2 - v1, order.alpha, [v2 - k for k in kinks],
                    gamma_fn(order.alpha))


def abs_moments(x, lower, upper, right, alpha) -> Integrals:
    """The moments of :func:`abs_moment_quadrature` for every row, in one
    :func:`kernel_integrals` call; ``right[i]`` selects the right kernel
    for row i, the left one otherwise."""
    x, lower, upper = (np.asarray(v, dtype=float) for v in (x, lower, upper))
    right = np.asarray(right, dtype=bool)
    # |x - t| at t = lower + u (left) or t = upper - u (right); its corner
    # sits at u = x - lower or u = upper - x.
    origin = np.where(right, x - upper, x - lower)
    kink = np.where(right, upper - x, x - lower)
    return kernel_integrals(lambda rows, t: np.abs(t), origin, np.where(right, 1.0, -1.0),
                            upper - lower, alpha, kink[:, None])


def abs_moment_quadrature(x: float, lower: float, upper: float, kernel_side: str,
                          order: Order) -> float:
    """Quadrature oracle for weighted absolute moments (no Gamma division):

        side="left":   int_lower^upper |x - t| (t - lower)^(alpha-1) dt
        side="right":  int_lower^upper |x - t| (upper - t)^(alpha-1) dt

    Each kernel is anchored at its singular endpoint.  The |x - t| corner
    is forwarded to the integrator as a breakpoint.  This routine is
    intentionally independent of every closed-form moment expression in
    the package: it is the ground truth they are tested against.  One row
    of :func:`abs_moments`; raises QuadratureToleranceError when the row
    misses its tolerances.
    """
    if lower > upper:
        raise DomainError(f"need lower <= upper, got {lower} > {upper}")
    if kernel_side not in ("left", "right"):
        raise DomainError(f"kernel_side must be 'left' or 'right', got {kernel_side!r}")
    result = abs_moments([x], [lower], [upper], [kernel_side == "right"], order.alpha)
    return _checked(result, 1.0)
