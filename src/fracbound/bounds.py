"""Closed-form weighted absolute-moment integrals and piecewise bound coefficients.

Both inequalities are one k-panel functional: weights w_1..w_k, sorted
nodes, and panels cut at the cumulative weights, with the left kernel
(t - a)^(alpha-1) on the first panel and on every later panel the right
kernel anchored at that panel's own right edge.  k = 2 is the
Hadamard-type configuration, k = 3 the Bullen-type one
(:attr:`HadamardConfig.panels`, :attr:`BullenConfig.panels`).  Every bound
coefficient is a sum of panel moments

    int over panel |node - t| * (power kernel)^(alpha-1) dt

and one closed form gives each: the right-kernel moment for any node, the
left-kernel moment being the same function on the negated panel.
:func:`abs_moment_closed` is its scalar form, the tests' reference; the
commands run only the array form :func:`abs_moments_closed`, equal bit for
bit.  Two encodings of each coefficient share no expression:

  * a per-panel literal term list: each panel adds a node term, and a
    corner ("kink") term when its node lies inside it, written out for the
    branch the node takes against the panel's edges (``_panel_literal``;
    ``_panel_forms`` in the batched ``v_panels``); the tuple of branches
    names the ordering, one of 3 for two nodes and of 8 for three, and
  * the sum of the closed panel moments.

``v_hadamard``/``v_bullen`` and ``v_panels`` evaluate both and raise
:class:`InconsistencyError` if they disagree beyond 1e-12 relative, which
catches a transcription slip in either.  check-identities holds the array
closed form to the quadrature oracle, so agreement chains both encodings
down to raw quadrature.  ``n_coeff`` orderings 7 and 8 keep the printed,
mirrored middle-panel bracket on purpose, for the audit to measure.

At an ordering boundary a node on a panel's right edge takes the upper
branch, and a node on a right-kernel panel's left edge the middle one
(the lower one in the closed form); adjacent branches agree there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .quadrature import ALPHA_MAX, ALPHA_MIN, DomainError, Interval, Order, power_array

__all__ = [
    "BoundBreakdown",
    "BullenConfig",
    "HadamardConfig",
    "InconsistencyError",
    "PanelConfig",
    "PanelConfigs",
    "abs_moment_closed",
    "abs_moments_closed",
    "bullen_remark_coeff",
    "l_coeff",
    "l_coeff_reference",
    "n_case_index",
    "n_coeff",
    "n_coeff_reference",
    "simpson_remark_coeff",
    "unit_order_two_point_table",
    "v_bullen",
    "v_hadamard",
    "v_panels",
    "weighted_bullen_coeff",
    "weighted_bullen_reference",
]

# Relative agreement demanded between the literal and assembled encodings.
DUAL_PATH_RTOL = 1e-12


class InconsistencyError(ArithmeticError):
    """Literal and assembled encodings of a bound disagree: transcription bug."""


def _pw(base: float, exponent: float) -> float:
    # Fractional power with the limit convention 0^e = 0 for e > 0.  Bases
    # can round to a tiny negative at ordering boundaries; clamp to the
    # limit value instead of producing a complex number.
    return 0.0 if base <= 0.0 else base ** exponent


def abs_moment_closed(y: float, lo: float, hi: float, order: Order) -> float:
    """int_lo^hi |y - t| (hi - t)^(alpha-1) dt in closed form, any real y.

    Three branches: node at or right of the panel (y >= hi), node inside,
    node at or left of the panel (y <= lo); adjacent branches agree at
    y = lo and y = hi.  The left-kernel moment
    int_a^v |x - t| (t - a)^(alpha-1) dt is this function at (-x, -v, -a):
    t -> -t maps one onto the other, and negation is exact in binary64.
    """
    if hi < lo:
        raise DomainError(f"need lo <= hi, got {lo} > {hi}")
    alpha = order.alpha
    w = hi - lo
    r = hi - y
    if y >= hi:
        return _pw(w, alpha) * ((y - hi) / alpha + w / (alpha + 1.0))
    if y > lo:
        return (2.0 * _pw(r, alpha + 1.0) / (alpha * (alpha + 1.0))
                + _pw(w, alpha) * (w / (alpha + 1.0) - r / alpha))
    return _pw(w, alpha) * (r / alpha - w / (alpha + 1.0))


def abs_moments_closed(y, lo, hi, alpha) -> np.ndarray:
    """:func:`abs_moment_closed` of every entry of the broadcast arguments,
    bit for bit: the same branches and order of operations, the corner
    power taken on middle-branch entries only.  A power that overflows
    raises OverflowError, as ``**`` does; a product or quotient that
    overflows gives inf or NaN, as Python floats do, with no RuntimeWarning.
    """
    y, lo, hi, alpha = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                             for v in (y, lo, hi, alpha)))
    _first_bad(hi < lo, lambda i: f"need lo <= hi, got {lo.flat[i]} > {hi.flat[i]}")
    upper = y >= hi
    middle = ~upper & (y > lo)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha1 = alpha + 1.0
        w = hi - lo
        r = hi - y
        pw = power_array(w, alpha)
        corner = np.zeros(r.shape)
        corner[middle] = power_array(r[middle], alpha1[middle])
        return np.where(upper, pw * ((y - hi) / alpha + w / alpha1),
                        np.where(middle, 2.0 * corner / (alpha * alpha1)
                                 + pw * (w / alpha1 - r / alpha),
                                 pw * (r / alpha - w / alpha1)))


class PanelConfig(NamedTuple):
    """One k-panel configuration, already checked by whatever built it
    (:attr:`HadamardConfig.panels`, :attr:`BullenConfig.panels`,
    :meth:`PanelConfigs.row`).

    Panel p spans [edges[p], edges[p+1]] and carries node ``nodes[p]`` with
    weight ``weights[p]``; edges run a = e_0 <= ... <= e_k = b.
    """

    interval: Interval
    order: Order
    weights: tuple
    nodes: tuple
    edges: tuple


def _clamp(t: float, lo: float, hi: float) -> float:
    return lo if t < lo else hi if t > hi else t


@dataclass(frozen=True)
class HadamardConfig:
    """Two-point configuration: interval, order, weight lam, nodes x <= y.

    The derived node V = (1-lam)*a + lam*b splits the interval into the two
    kernel panels.
    """

    interval: Interval
    order: Order
    lam: float
    x: float
    y: float

    def __post_init__(self):
        a, b = self.interval.a, self.interval.b
        if not (0.0 <= self.lam <= 1.0):
            raise DomainError(f"lam must be in [0, 1], got {self.lam}")
        if not (a <= self.x <= self.y <= b):
            raise DomainError(f"need a <= x <= y <= b, got x={self.x}, y={self.y} on [{a}, {b}]")

    @property
    def v_node(self) -> float:
        a, b = self.interval.a, self.interval.b
        return _clamp((1.0 - self.lam) * a + self.lam * b, a, b)

    @property
    def panels(self) -> PanelConfig:
        """The k-panel view: weights (lam, 1 - lam), nodes (x, y), edges (a, V, b)."""
        itv = self.interval
        return PanelConfig(itv, self.order, (self.lam, 1.0 - self.lam), (self.x, self.y),
                           (itv.a, self.v_node, itv.b))


@dataclass(frozen=True)
class BullenConfig:
    """Three-point configuration: weights (lam, eta, mu) summing to 1, nodes x <= y <= z.

    Derived panel edges V1 = (1-lam)*a + lam*b and V2 = mu*a + (lam+eta)*b
    satisfy a <= V1 <= V2 <= b with V2 - V1 = eta*(b-a).  Weights are
    renormalized on construction when the sum drifts from 1 by float noise
    (at most 1e-9).
    """

    interval: Interval
    order: Order
    lam: float
    eta: float
    mu: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        lam, eta, mu = float(self.lam), float(self.eta), float(self.mu)
        for name, wgt in (("lam", lam), ("eta", eta), ("mu", mu)):
            if not (0.0 <= wgt <= 1.0 + 1e-12):
                raise DomainError(f"{name} must be in [0, 1], got {wgt}")
        total = lam + eta + mu
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "lam", lam / total)
        object.__setattr__(self, "eta", eta / total)
        object.__setattr__(self, "mu", mu / total)
        a, b = self.interval.a, self.interval.b
        if not (a <= self.x <= self.y <= self.z <= b):
            raise DomainError(
                f"need a <= x <= y <= z <= b, got ({self.x}, {self.y}, {self.z}) on [{a}, {b}]")

    @property
    def v1_node(self) -> float:
        a, b = self.interval.a, self.interval.b
        return _clamp((1.0 - self.lam) * a + self.lam * b, a, b)

    @property
    def v2_node(self) -> float:
        a, b = self.interval.a, self.interval.b
        return _clamp(self.mu * a + (self.lam + self.eta) * b, self.v1_node, b)

    @property
    def panels(self) -> PanelConfig:
        """The k-panel view: weights (lam, eta, mu), nodes (x, y, z), edges
        (a, V1, V2, b)."""
        itv = self.interval
        return PanelConfig(itv, self.order, (self.lam, self.eta, self.mu),
                           (self.x, self.y, self.z), (itv.a, self.v1_node, self.v2_node, itv.b))


@dataclass(frozen=True)
class BoundBreakdown:
    """A bound coefficient with its per-term decomposition.

    ``terms`` are the named summands of the per-panel literal expression
    and ``total`` is their sum; ``cross_total`` is the same value assembled
    from the panel-moment functions.  The constructor enforces that the
    terms add up and that the total is nonnegative.
    """

    case_tag: str
    terms: tuple
    total: float
    cross_total: float

    def __post_init__(self):
        s = math.fsum(v for _, v in self.terms)
        if abs(s - self.total) > 1e-12 * max(1.0, abs(self.total)):
            raise InconsistencyError(f"terms sum to {s}, total recorded as {self.total}")
        if self.total < -1e-12:
            raise InconsistencyError(f"bound total must be nonnegative, got {self.total}")


def _panel_literal(panels: PanelConfig, p: int) -> tuple:
    """(branch, terms) of panel p in the literal encoding.

    The first panel (left kernel, distance d = node - a) has branches
    "upper" (node at or past its right edge) and "middle"; every later
    panel (right kernel, d = right edge - node) has "upper" (node at or
    past its right edge; never on the last panel), "middle" (node inside
    or on the left edge) and "lower" (node before it).  The middle branch
    carries the corner term 2*d^(alpha+1)/(alpha*(alpha+1)) ahead of its
    node term.
    """
    alpha = panels.order.alpha
    k = len(panels.nodes)
    name = "left" if p == 0 else "right" if p == k - 1 else "mid"
    lo, hi, y = panels.edges[p], panels.edges[p + 1], panels.nodes[p]
    w = hi - lo
    pw = _pw(w, alpha)
    if p == 0:
        d = y - lo
        if y >= hi:
            return "upper", ((f"{name}_node", pw * (d / alpha - w / (alpha + 1.0))),)
    else:
        d = hi - y
        if y >= hi and p < k - 1:
            return "upper", ((f"{name}_node", pw * ((y - hi) / alpha + w / (alpha + 1.0))),)
        if y < lo:
            return "lower", ((f"{name}_node", pw * (d / alpha - w / (alpha + 1.0))),)
    return "middle", ((f"{name}_kink", 2.0 * _pw(d, alpha + 1.0) / (alpha * (alpha + 1.0))),
                      (f"{name}_node", pw * (w / (alpha + 1.0) - d / alpha)))


def _breakdown(panels: PanelConfig, tags: dict) -> BoundBreakdown:
    """Literal terms of every panel, tagged by their branch tuple, checked
    against the sum of the panel moments (the first panel reflected)."""
    order, edges, nodes = panels.order, panels.edges, panels.nodes
    assembled = abs_moment_closed(-nodes[0], -edges[1], -edges[0], order)
    for p in range(1, len(nodes)):
        assembled = assembled + abs_moment_closed(nodes[p], edges[p], edges[p + 1], order)
    branches, panel_terms = zip(*(_panel_literal(panels, p) for p in range(len(nodes))))
    tag = tags[branches]
    terms = tuple(chain.from_iterable(panel_terms))
    total = math.fsum(v for _, v in terms)
    if abs(total - assembled) > DUAL_PATH_RTOL * max(1.0, abs(assembled)):
        raise InconsistencyError(f"case {tag}: literal={total!r} vs assembled={assembled!r}")
    return BoundBreakdown(tag, terms, total, assembled)


_HADAMARD_TAGS = {
    ("upper", "middle"): "V<=x<=y",
    ("middle", "middle"): "x<=V<=y",
    ("middle", "lower"): "x<=y<=V",
}

_BULLEN_TAGS = {
    ("upper", "upper", "middle"): "V1<=V2<=x<=y<=z",
    ("upper", "middle", "middle"): "V1<=x<=y<=V2<=z",
    ("upper", "middle", "lower"): "V1<=x<=y<=z<=V2",
    ("middle", "upper", "middle"): "x<=V1<=V2<=y<=z",
    ("middle", "middle", "middle"): "x<=V1<=y<=V2<=z",
    ("middle", "middle", "lower"): "x<=V1<=y<=z<=V2",
    ("middle", "lower", "middle"): "x<=y<=V1<=V2<=z",
    ("middle", "lower", "lower"): "x<=y<=V1<=z<=V2",
}


def v_hadamard(config: HadamardConfig) -> BoundBreakdown:
    """Two-panel bound coefficient: sum of the left moment at x over [a, V]
    and the right moment at y over [V, b], in closed form.

    The scaled inequality bound is alpha * M * total / (b-a)^alpha.
    """
    return _breakdown(config.panels, _HADAMARD_TAGS)


def v_bullen(config: BullenConfig) -> BoundBreakdown:
    """Three-panel bound coefficient: left moment at x over [a, V1], middle
    moment at y over [V1, V2], right moment at z over [V2, b].

    Eight orderings of (x, y, z) against (V1, V2) are possible given
    x <= y <= z and V1 <= V2; the tag names the selected one.
    """
    return _breakdown(config.panels, _BULLEN_TAGS)


# ---------------------------------------------------------------------------
# Batched k-panel form
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PanelConfigs:
    """A batch of k-panel configurations, one per row.

    Row i has order ``alpha[i]``, weights ``weights[i]`` (k of them) and
    sorted nodes ``nodes[i]``.  Panel p spans [edges[i, p], edges[i, p+1]]
    with edges a = e_0 <= e_1 <= ... <= e_k = b; the first panel carries
    the left kernel anchored at a, every other panel the right kernel
    anchored at its own right edge.  k = 2 with weights (lam, 1 - lam) is
    :class:`HadamardConfig`; k = 3 is :class:`BullenConfig`.

    Construction runs the checks of those configs on every row (order in
    range, weights in [0, 1] summing to 1 within 1e-9, a <= nodes sorted
    <= b) and raises DomainError on the first row that fails.  Weights are
    renormalized by their sum as BullenConfig does (for weights
    (lam, 1 - lam) the sum is exactly 1).  Edge e_p is (1 - P_p)*a + P_p*b
    clamped to [e_{p-1}, b], P_p being the sum of the first p weights; the
    last interior edge takes the last weight in place of 1 - P_p.  These
    are the expressions of ``v_node``, ``v1_node`` and ``v2_node``, so every
    edge equals theirs bit for bit.
    """

    interval: Interval
    alpha: np.ndarray
    weights: np.ndarray
    nodes: np.ndarray
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes = np.asarray(self.nodes, dtype=float)
        a, b = self.interval.a, self.interval.b
        if (weights.ndim != 2 or weights.shape[1] < 2 or nodes.shape != weights.shape
                or alpha.shape != weights.shape[:1]):
            raise DomainError(f"need alpha (n,), weights and nodes (n, k >= 2), got "
                              f"{alpha.shape}, {weights.shape}, {nodes.shape}")
        k = weights.shape[1]
        _first_bad(~((alpha >= ALPHA_MIN) & (alpha <= ALPHA_MAX)),
                   lambda i: f"order {alpha[i]} outside [{ALPHA_MIN}, {ALPHA_MAX}]")
        _first_bad(~((weights >= 0.0) & (weights <= 1.0 + 1e-12)).all(axis=1),
                   lambda i: f"weights must be in [0, 1], got {weights[i].tolist()}")
        total = weights[:, 0]
        for p in range(1, k):
            total = total + weights[:, p]
        _first_bad(~(np.abs(total - 1.0) <= 1e-9),
                   lambda i: f"weights must sum to 1, got {total[i]}")
        weights = weights / total[:, None]
        _first_bad(~((nodes[:, 0] >= a) & (nodes[:, -1] <= b)
                     & (nodes[:, 1:] >= nodes[:, :-1]).all(axis=1)),
                   lambda i: f"need a <= nodes sorted <= b, got {nodes[i].tolist()} "
                             f"on [{a}, {b}]")
        edges = np.empty((len(alpha), k + 1))
        edges[:, 0], edges[:, k] = a, b
        prefix = weights[:, 0]
        for p in range(1, k):
            left = weights[:, k - 1] if p == k - 1 else 1.0 - prefix
            edges[:, p] = np.minimum(np.maximum(left * a + prefix * b, edges[:, p - 1]), b)
            prefix = prefix + weights[:, p]
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def row(self, i: int) -> PanelConfig:
        """Row i as one :class:`PanelConfig`."""
        return PanelConfig(self.interval, Order(self.alpha[i].item()),
                           tuple(self.weights[i].tolist()), tuple(self.nodes[i].tolist()),
                           tuple(self.edges[i].tolist()))


def _first_bad(bad: np.ndarray, message) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"row {i}: {message(i)}")


def _panel_forms(cfg: PanelConfigs) -> list:
    """Per-panel expressions of the literal encoding of :func:`v_panels`.

    One ``(forms, kink)`` pair per panel p (width w, node y): ``forms``
    maps each ordering branch to its node term, "upper" for a node at or
    past the panel edge away from the kernel anchor, "middle" for a node
    inside, "lower" for a node before a right-kernel panel; ``kink`` is the
    corner term 2*dist^(alpha+1)/(alpha*(alpha+1)) of the middle branch,
    dist being the node's distance from the anchor.  Every expression is
    that of ``_panel_literal``, in its order of operations.
    """
    alpha = cfg.alpha
    alpha1 = alpha + 1.0
    denom = alpha * alpha1
    edges, nodes = cfg.edges, cfg.nodes
    parts = []
    for p in range(nodes.shape[1]):
        lo, hi, y = edges[:, p], edges[:, p + 1], nodes[:, p]
        w = hi - lo
        pw = power_array(w, alpha)
        if p == 0:
            dist = y - lo
            inside = y < hi
            forms = {"upper": pw * (dist / alpha - w / alpha1),
                     "middle": pw * (w / alpha1 - dist / alpha)}
        else:
            dist = hi - y
            inside = (y >= lo) & (y <= hi)
            forms = {"upper": pw * ((y - hi) / alpha + w / alpha1),
                     "middle": pw * (w / alpha1 - dist / alpha),
                     "lower": pw * (dist / alpha - w / alpha1)}
        # Only the middle branch needs the corner power; other rows skip it.
        kink = np.zeros(len(y))
        kink[inside] = 2.0 * power_array(dist[inside], alpha1[inside]) / denom[inside]
        parts.append((forms, kink))
    return parts


def _literal_terms(cfg: PanelConfigs):
    """Per-panel literal encoding (v_hadamard/v_bullen term lists):
    terms (n, 2k), a (kink, node) pair per panel, and a mask of the terms
    each row's ordering has.  The last panel has no upper branch; a node on
    a right-kernel panel's left edge takes the middle one."""
    n, k = cfg.nodes.shape
    terms = np.zeros((n, 2 * k))
    present = np.ones((n, 2 * k), dtype=bool)
    for p, (forms, kink) in enumerate(_panel_forms(cfg)):
        y, lo, hi = cfg.nodes[:, p], cfg.edges[:, p], cfg.edges[:, p + 1]
        upper = (y >= hi) & (p < k - 1)
        middle = ~upper & (y >= lo)
        node = np.where(upper, forms["upper"], forms["middle"])
        terms[:, 2 * p + 1] = node if p == 0 else np.where(middle | upper, node, forms["lower"])
        terms[:, 2 * p] = np.where(middle, kink, 0.0)
        present[:, 2 * p] = middle
    return terms, present


def v_panels(cfg: PanelConfigs) -> np.ndarray:
    """Bound coefficient of every row: :func:`v_hadamard` (k = 2) or
    :func:`v_bullen` (k = 3) ``.total``, bit for bit.

    The total is the math.fsum of the row's literal terms; the moment
    encoding sums :func:`abs_moments_closed` over the panels (the first
    reflected) as ``_breakdown`` does.  Disagreement beyond DUAL_PATH_RTOL
    and a total below -1e-12 raise InconsistencyError, naming the first
    row at fault.
    """
    terms, present = _literal_terms(cfg)
    total = np.array([math.fsum(compress(row, keep))
                      for row, keep in zip(terms.tolist(), present.tolist())])
    edges, nodes = cfg.edges, cfg.nodes
    assembled = abs_moments_closed(-nodes[:, 0], -edges[:, 1], -edges[:, 0], cfg.alpha)
    for p in range(1, nodes.shape[1]):
        assembled = assembled + abs_moments_closed(nodes[:, p], edges[:, p], edges[:, p + 1],
                                                   cfg.alpha)
    bad = np.abs(total - assembled) > DUAL_PATH_RTOL * np.maximum(1.0, np.abs(assembled))
    if bad.any():
        i = int(np.argmax(bad))
        raise InconsistencyError(
            f"row {i}: literal={float(total[i])!r} vs assembled={float(assembled[i])!r}")
    negative = total < -1e-12
    if negative.any():
        i = int(np.argmax(negative))
        raise InconsistencyError(f"row {i}: bound total must be nonnegative, got {total[i]}")
    return total


def _check_delta(delta: float) -> None:
    if not (0.5 <= delta <= 1.0):
        raise DomainError(f"delta must be in [0.5, 1], got {delta}")


def l_coeff(order: Order, lam: float, delta: float) -> float:
    """Three-case coefficient for the symmetric two-node bound
    M * L * (b-a)/(alpha+1), nodes delta*a+(1-delta)*b and (1-delta)*a+delta*b.

    Cases split at lam = 1-delta and lam = delta.  Algebraically equal to
    alpha*(alpha+1) times the two-panel coefficient on [0, 1]; see
    :func:`l_coeff_reference`.
    """
    _check_delta(delta)
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"lam must be in [0, 1], got {lam}")
    alpha = order.alpha
    d1 = 1.0 - delta
    lam1 = 1.0 - lam
    edge = _pw(d1, alpha + 1.0)
    up = _pw(lam, alpha) * (lam * alpha - d1 * (1.0 + alpha))
    down = _pw(lam1, alpha) * (lam1 * alpha - d1 * (1.0 + alpha))
    if lam <= d1:
        return -up + 2.0 * edge + down
    if lam <= delta:
        return 4.0 * edge + up + down
    return 2.0 * edge + up - down


def l_coeff_reference(order: Order, lam: float, delta: float) -> float:
    """Audit value for l_coeff: alpha*(alpha+1)*v_hadamard on [0, 1]."""
    cfg = HadamardConfig(Interval(0.0, 1.0), order, lam, 1.0 - delta, delta)
    return order.alpha * (order.alpha + 1.0) * v_hadamard(cfg).total


def n_case_index(lam: float, eta: float, delta: float) -> int:
    """Ordering index 1..8 for the three-node midpoint coefficient.

    Splits on the positions of lam and lam+eta against 1-delta, 1/2 and
    delta; first matching case wins at exact boundaries.
    """
    _check_delta(delta)
    if lam < 0.0 or eta < 0.0 or lam + eta > 1.0 + 1e-12:
        raise DomainError(f"need lam, eta >= 0 and lam+eta <= 1, got {lam}, {eta}")
    d1 = 1.0 - delta
    le = lam + eta
    if le <= d1 or (lam <= d1 <= le <= 0.5):
        return 1
    if lam <= d1 and 0.5 <= le <= delta:
        return 2
    if lam <= d1 and delta <= le:
        return 3
    if d1 <= lam and le <= 0.5:
        return 4
    if d1 <= lam <= 0.5 <= le <= delta:
        return 5
    if d1 <= lam <= 0.5 and delta <= le:
        return 6
    if 0.5 <= lam and le <= delta:
        return 7
    return 8


def n_coeff(order: Order, lam: float, eta: float, delta: float) -> float:
    """Literal eight-case coefficient for the three-node bound with the
    middle node pinned at the midpoint: M * N * (b-a)/(alpha+1).

    Evaluated literally, term by term.  In orderings 7 and 8 the
    middle-panel bracket appears with the mirrored (negative) orientation;
    the audit measures the resulting deviation from
    :func:`n_coeff_reference` rather than silently correcting it here.
    """
    alpha = order.alpha
    case = n_case_index(lam, eta, delta)
    d1 = 1.0 - delta
    mu = 1.0 - lam - eta
    edge = _pw(d1, alpha + 1.0)
    half_kink = 2.0 * _pw(lam + eta - 0.5, alpha + 1.0)
    l_up = _pw(lam, alpha) * (d1 * (alpha + 1.0) - alpha * lam)
    l_down = _pw(lam, alpha) * (alpha * lam - d1 * (alpha + 1.0))
    e_upper = _pw(eta, alpha) * ((0.5 - lam - eta) * (alpha + 1.0) + alpha * eta)
    e_middle = _pw(eta, alpha) * (alpha * eta - (alpha + 1.0) * (lam + eta - 0.5))
    m_double = _pw(mu, alpha) * (alpha * mu - (alpha + 1.0) * d1)
    m_single = _pw(mu, alpha) * ((alpha + 1.0) * d1 - alpha * mu)
    if case == 1:
        return l_up + e_upper + 2.0 * edge + m_double
    if case == 2:
        return l_up + half_kink + e_middle + 2.0 * edge + m_double
    if case == 3:
        return l_up + half_kink + e_middle + m_single
    if case == 4:
        return 4.0 * edge + l_down + e_upper + m_double
    if case == 5:
        return 4.0 * edge + l_down + half_kink + e_middle + m_double
    if case == 6:
        return 2.0 * edge + l_down + half_kink + e_middle + m_single
    if case == 7:
        return 4.0 * edge + l_down + e_middle + m_double
    return 2.0 * edge + l_down + e_middle + m_single


def n_coeff_reference(order: Order, lam: float, eta: float, delta: float) -> float:
    """Audit value for n_coeff: alpha*(alpha+1)*v_bullen on [0, 1] with
    nodes (1-delta, 1/2, delta)."""
    _check_delta(delta)
    cfg = BullenConfig(Interval(0.0, 1.0), order, lam, eta, 1.0 - lam - eta,
                       1.0 - delta, 0.5, delta)
    return order.alpha * (order.alpha + 1.0) * v_bullen(cfg).total


def weighted_bullen_coeff(order: Order, theta: float) -> float:
    """Bracket of the theta-weighted endpoint/midpoint bound,
    M * bracket * (b-a)/(alpha+1), with endpoint weights (theta/2)^alpha
    and midpoint weight (1-theta)^alpha."""
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0, 1], got {theta}")
    alpha = order.alpha
    return (2.0 * alpha * _pw(theta / 2.0, alpha + 1.0)
            + _pw(1.0 - theta, alpha + 1.0) * (alpha - 1.0) / 2.0
            + 2.0 * _pw((1.0 - theta) / 2.0, alpha + 1.0))


def weighted_bullen_reference(order: Order, theta: float) -> float:
    """Audit value for weighted_bullen_coeff: alpha*(alpha+1)*v_bullen on
    [0, 1] with nodes (0, 1/2, 1) and weights (theta/2, 1-theta, theta/2)."""
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0, 1], got {theta}")
    cfg = BullenConfig(Interval(0.0, 1.0), order, theta / 2.0, 1.0 - theta, theta / 2.0,
                       0.0, 0.5, 1.0)
    return order.alpha * (order.alpha + 1.0) * v_bullen(cfg).total


def bullen_remark_coeff(alpha: float) -> float:
    """Literal coefficient of M*(b-a) in the quarter-node three-point bound
    (the theta = 1/2 shortcut form)."""
    return (alpha + 1.0 + 2.0 ** (alpha - 1.0) * (alpha - 1.0)) / (2.0 ** (alpha + 2.0) * (alpha + 1.0))


def simpson_remark_coeff(alpha: float) -> float:
    """Literal coefficient of M*(b-a) in the Simpson-weight three-point
    bound (the theta = 1/3 shortcut form), reading the ambiguous factor 3
    as multiplying the 2^(2*alpha)*(alpha-1) term."""
    return (alpha + 3.0 * 2.0 ** (2.0 * alpha) * (alpha - 1.0) + 2.0 ** (alpha + 1.0)) / (18.0 * (alpha + 1.0))


def unit_order_two_point_table(interval: Interval, lam: float, x: float, y: float) -> float:
    """Quadratic three-case table for the unit-order two-point inequality.

    Used by the reduction tests: at order 1 the two-panel coefficient
    equals exactly half of this table.
    """
    a, b = interval.a, interval.b
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"lam must be in [0, 1], got {lam}")
    if not (a <= x <= y <= b):
        raise DomainError(f"need a <= x <= y <= b, got x={x}, y={y}")
    v = (1.0 - lam) * a + lam * b
    if v <= x:
        return (x - a) ** 2 - (x - v) ** 2 + (y - v) ** 2 + (b - y) ** 2
    if v <= y:
        return (x - a) ** 2 + (v - x) ** 2 + (y - v) ** 2 + (b - y) ** 2
    return (x - a) ** 2 + (v - x) ** 2 + (b - y) ** 2 - (v - y) ** 2
