"""Gap and bound evaluation for the fractional inequalities, plus the
corollary audit suite.

The "gap" of an inequality instance is the absolute value of its left-hand
side: weighted node values of a concrete Lipschitz function minus the
scaled sum of fractional integrals.  The "bound" is the closed-form
right-hand side, alpha * M * coefficient / (b-a)^alpha.  For
piecewise-linear witnesses the fractional terms are computed with the
exact corpus integrators (method "oracle"); a quadrature path through
:mod:`fracbound.quadrature` exists for cross-checking.

Adjudication uses an absolute-plus-relative slack, 1e-9 * (1 + bound), so
zero-bound cases (constant witnesses) pass without division hazards.

``corollary_suite`` measures every shortcut (corollary-form) coefficient
against the oracle-validated assembled bound.  Deviations above 1e-8 are
recorded as :class:`ErratumEntry` data, never silently corrected, and a
deviating shortcut value is never used to fail a witness: the assembled
bound is ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, corpus, quadrature
from .bounds import BullenConfig, HadamardConfig, PanelConfig, PanelConfigs, _pw
from .quadrature import (DEFAULT_SETTINGS, DomainError, Interval, Order,
                         QuadratureSettings, gamma_fn)

__all__ = [
    "CorollaryFinding",
    "CorollaryParams",
    "ErratumEntry",
    "GapResult",
    "bullen_bound",
    "bullen_gap",
    "config_gap",
    "corollary_suite",
    "hadamard_bound",
    "hadamard_gap",
    "panel_bound",
    "panel_gap",
    "verify",
    "verify_panels",
]

SLACK_COEFF = 1e-9
ERRATUM_THRESHOLD = 1e-8


@dataclass(frozen=True)
class GapResult:
    """Outcome of one gap-versus-bound adjudication."""

    gap: float
    bound: float
    ratio: float
    method: str
    passed: bool


@dataclass(frozen=True)
class ErratumEntry:
    """A shortcut coefficient that deviates from the assembled oracle bound.

    Entries exist only for genuine mismatches (deviation above 1e-8);
    ``witness_params`` records the parameter point where the deviation was
    observed, as ordered (name, value) pairs.
    """

    formula_id: str
    max_abs_deviation: float
    witness_params: tuple

    def __post_init__(self):
        if not self.max_abs_deviation > ERRATUM_THRESHOLD:
            raise DomainError(
                f"erratum entries require deviation > {ERRATUM_THRESHOLD}, "
                f"got {self.max_abs_deviation}")

    def as_record(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "max_abs_deviation": self.max_abs_deviation,
            "witness_params": dict(self.witness_params),
        }


def verify(gap: float, bound: float, method: str = "oracle") -> GapResult:
    """Adjudicate gap <= bound + slack with slack = 1e-9 * (1 + bound)."""
    if gap < 0.0 or bound < 0.0:
        raise DomainError(f"gap and bound must be nonnegative, got {gap}, {bound}")
    slack = SLACK_COEFF * (1.0 + bound)
    passed = gap <= bound + slack
    if bound > 0.0:
        ratio = gap / bound
    else:
        ratio = 0.0 if gap <= slack else math.inf
    return GapResult(gap, bound, ratio, method, passed)


def config_gap(config: PanelConfig, witness: corpus.LipschitzWitness,
               method: str = "oracle",
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """| sum_p w_p^a f(x_p) - Gamma(a+1)/(b-a)^a * sum_p (panel integral p) |

    over the k panels of one configuration: the left-kernel integral over
    the first panel, anchored at a, and over every later panel the
    right-kernel integral anchored at its own right edge.  Method "oracle"
    integrates the piecewise-linear witness exactly, "quadrature" through
    :mod:`fracbound.quadrature`.  Constant witnesses telescope to a gap of
    exactly zero.
    """
    f = witness.function
    a, b = config.interval.a, config.interval.b
    if not (f.a == a and f.b == b):
        raise DomainError(f"witness spans [{f.a}, {f.b}], configuration [{a}, {b}]")
    order = config.order
    alpha = order.alpha
    weights, nodes, edges = config.weights, config.nodes, config.edges
    weighted = _pw(weights[0], alpha) * f(nodes[0])
    for p in range(1, len(nodes)):
        weighted += _pw(weights[p], alpha) * f(nodes[p])
    if method == "oracle":
        integrals = corpus.exact_rl_left(f, order, edges[1])
        for p in range(1, len(nodes)):
            integrals += corpus.exact_rl_mid(f, edges[p], edges[p + 1], order)
    elif method == "quadrature":
        integrals = quadrature.rl_left(f, config.interval, order, edges[1], settings,
                                       kinks=f.breakpoints)
        for p in range(1, len(nodes)):
            integrals += quadrature.rl_mid(f, edges[p], edges[p + 1], order, settings,
                                           kinks=f.breakpoints)
    else:
        raise DomainError(f"method must be 'oracle' or 'quadrature', got {method!r}")
    frac = gamma_fn(alpha + 1.0) / (b - a) ** alpha * integrals
    return abs(weighted - frac)


def hadamard_gap(config: HadamardConfig, witness: corpus.LipschitzWitness,
                 method: str = "oracle",
                 settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """:func:`config_gap` of the two-node inequality, panels [a, V] and [V, b]."""
    return config_gap(config.panels, witness, method, settings)


def bullen_gap(config: BullenConfig, witness: corpus.LipschitzWitness,
               method: str = "oracle",
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """:func:`config_gap` of the three-node inequality, panels [a, V1],
    [V1, V2] and [V2, b]."""
    return config_gap(config.panels, witness, method, settings)


def _bound(config, m: float, coefficient) -> float:
    if m < 0.0:
        raise DomainError(f"Lipschitz constant must be >= 0, got {m}")
    alpha = config.order.alpha
    return alpha * m * coefficient(config).total / config.interval.width ** alpha


def hadamard_bound(config: HadamardConfig, m: float) -> float:
    """alpha * M * (two-panel coefficient) / (b-a)^alpha."""
    return _bound(config, m, bounds.v_hadamard)


def bullen_bound(config: BullenConfig, m: float) -> float:
    """alpha * M * (three-panel coefficient) / (b-a)^alpha."""
    return _bound(config, m, bounds.v_bullen)


# ---------------------------------------------------------------------------
# Batched k-panel evaluation
# ---------------------------------------------------------------------------

def panel_gap(config: PanelConfigs, witnesses: corpus.WitnessArrays) -> np.ndarray:
    """Exact gap of every row, witness row i on configuration row i:
    :func:`config_gap` of the row with the exact method, bit for bit.

    | sum_p w_p^a f(x_p) - Gamma(a+1)/(b-a)^a * sum_p (panel integral p) |
    """
    a, b = config.interval.a, config.interval.b
    bps = witnesses.breakpoints
    if not ((bps[:, 0] == a) & (bps[:, -1] == b)).all():
        raise DomainError(f"every witness must span the interval [{a}, {b}]")
    alpha = config.alpha
    weight_pw = quadrature.power_array(config.weights, alpha[:, None])
    at_nodes = witnesses(config.nodes)
    weighted = weight_pw[:, 0] * at_nodes[:, 0]
    for p in range(1, at_nodes.shape[1]):
        weighted = weighted + weight_pw[:, p] * at_nodes[:, p]
    panels = corpus.exact_rl_panels(witnesses, config.edges, alpha)
    integrals = panels[:, 0]
    for p in range(1, panels.shape[1]):
        integrals = integrals + panels[:, p]
    scale = np.array([gamma_fn(al + 1.0) / (b - a) ** al for al in alpha.tolist()])
    return np.abs(weighted - scale * integrals)


def panel_bound(config: PanelConfigs, m: np.ndarray) -> np.ndarray:
    """alpha * M * coefficient / (b-a)^alpha for every row, bit for bit
    :func:`hadamard_bound` (k = 2) or :func:`bullen_bound` (k = 3): the
    coefficient is the literal total of :func:`fracbound.bounds.v_panels`."""
    m = np.asarray(m, dtype=float)
    if (m < 0.0).any():
        raise DomainError(f"Lipschitz constant must be >= 0, got {m.min()}")
    width = config.interval.width
    scale = np.array([width ** al for al in config.alpha.tolist()])
    return config.alpha * m * bounds.v_panels(config) / scale


def verify_panels(gap: np.ndarray, bound: np.ndarray):
    """:func:`verify` on every row: returns (ratio, passed) arrays."""
    bad = (gap < 0.0) | (bound < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"gap and bound must be nonnegative, got {gap[i]}, {bound[i]}")
    slack = SLACK_COEFF * (1.0 + bound)
    passed = gap <= bound + slack
    positive = bound > 0.0
    ratio = np.where(positive, gap / np.where(positive, bound, 1.0),
                     np.where(gap <= slack, 0.0, math.inf))
    return ratio, passed


# ---------------------------------------------------------------------------
# Corollary audit suite
# ---------------------------------------------------------------------------

def _simplex_grid(step: float = 0.25) -> tuple:
    pairs = []
    n = round(1.0 / step)
    for i in range(n + 1):
        for j in range(n - i + 1):
            pairs.append((i * step, j * step))
    return tuple(pairs)


@dataclass(frozen=True)
class CorollaryParams:
    """Deterministic parameter grids for the corollary audit.

    All grids are fixed constants so the audit output is reproducible
    byte for byte.
    """

    lambdas: tuple = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
    deltas: tuple = (0.5, 0.625, 0.75, 0.875, 1.0)
    node_deltas: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    simplex: tuple = _simplex_grid()
    thetas: tuple = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)
    witness_seeds: tuple = (101, 202, 303)


@dataclass(frozen=True)
class CorollaryFinding:
    """One audited corollary instance: the shortcut bound, the assembled
    oracle bound, their deviation, the worst witness adjudication, and an
    erratum entry when the deviation is genuine.

    Iterating a finding yields the (gap_result, erratum) pair.
    """

    formula_id: str
    params: tuple
    printed_bound: float
    oracle_bound: float
    deviation: float
    gap_result: GapResult
    erratum: ErratumEntry | None

    def __iter__(self):
        yield self.gap_result
        yield self.erratum

    def as_record(self) -> dict:
        rec = {"formula_id": self.formula_id}
        rec.update(dict(self.params))
        rec.update({
            "printed_bound": self.printed_bound,
            "oracle_bound": self.oracle_bound,
            "deviation": self.deviation,
            "gap": self.gap_result.gap,
            "bound_used": self.gap_result.bound,
            "ratio": self.gap_result.ratio,
            "passed": self.gap_result.passed,
        })
        return rec


def _adjudicate(printed: float, oracle: float, deviation: float,
                panels: PanelConfig, witnesses, scale: float = 1.0) -> GapResult:
    # Shortcut values that disagree with the oracle never fail a witness;
    # the assembled bound is ground truth.
    agree = deviation <= ERRATUM_THRESHOLD
    coeff = min(printed, oracle) if agree else oracle
    worst = None
    for w in witnesses:
        gap = scale * config_gap(panels, w)
        res = verify(gap, coeff * w.constant)
        if worst is None or res.ratio > worst.ratio:
            worst = res
    return worst


def corollary_suite(interval: Interval, order: Order,
                    params: CorollaryParams | None = None) -> list:
    """Audit every shortcut coefficient family at one order.

    For each instance: (i) evaluate the shortcut (printed-form) bound,
    (ii) evaluate the assembled bound with the same substituted nodes,
    (iii) run the gap test with seeded random witnesses against the
    smaller of the two when they agree, else against the assembled bound.
    Deviations above 1e-8 become erratum entries.  Coefficient audits are
    canonical on [0, 1]; scale covariance extends them to general
    intervals.

    Returns a list of :class:`CorollaryFinding`, deterministic in both
    content and order.
    """
    if params is None:
        params = CorollaryParams()
    a, b = interval.a, interval.b
    width = interval.width
    alpha = order.alpha
    witnesses = tuple(corpus.random_lipschitz(seed, interval)
                      for seed in params.witness_seeds)
    findings = []

    def emit(formula_id, pt, printed, oracle, cfg, scale=1.0):
        deviation = abs(printed - oracle)
        res = _adjudicate(printed, oracle, deviation, cfg.panels, witnesses, scale)
        erratum = None
        if deviation > ERRATUM_THRESHOLD:
            erratum = ErratumEntry(formula_id, deviation, (("alpha", alpha),) + pt)
        findings.append(CorollaryFinding(formula_id, (("alpha", alpha),) + pt,
                                         printed, oracle, deviation, res, erratum))

    # Symmetric two-node coefficient (three cases in lam).
    for lam in params.lambdas:
        for delta in params.deltas:
            x = delta * a + (1.0 - delta) * b
            y = (1.0 - delta) * a + delta * b
            cfg = HadamardConfig(interval, order, lam, x, y)
            printed = bounds.l_coeff(order, lam, delta) * width / (alpha + 1.0)
            emit("symmetric_pair_coeff", (("lam", lam), ("delta", delta)),
                 printed, hadamard_bound(cfg, 1.0), cfg)

    # Coincident nodes x = y = V.
    for lam in params.lambdas:
        v = (1.0 - lam) * a + lam * b
        cfg = HadamardConfig(interval, order, lam, v, v)
        printed = (_pw(v - a, alpha + 1.0) + _pw(b - v, alpha + 1.0)) / ((alpha + 1.0) * width ** alpha)
        emit("coincident_node_bound", (("lam", lam),),
             printed, hadamard_bound(cfg, 1.0), cfg)

    # Endpoint nodes x = a, y = b (delta = 1 specialization).
    for lam in params.lambdas:
        cfg = HadamardConfig(interval, order, lam, a, b)
        printed = alpha * width * (_pw(lam, alpha + 1.0) + _pw(1.0 - lam, alpha + 1.0)) / (alpha + 1.0)
        emit("endpoint_pair_bound", (("lam", lam),),
             printed, hadamard_bound(cfg, 1.0), cfg)

    # Single shifted node x = y = dn*a + (1-dn)*b with free lam.
    for lam in params.lambdas:
        for dn in params.node_deltas:
            node = dn * a + (1.0 - dn) * b
            cfg = HadamardConfig(interval, order, lam, node, node)
            printed = width * (_pw(dn, alpha + 1.0) + _pw(1.0 - dn, alpha + 1.0)) / (alpha + 1.0)
            emit("shifted_single_node_bound", (("lam", lam), ("node_delta", dn)),
                 printed, hadamard_bound(cfg, 1.0), cfg)

    # Quarter-node pair: lam = 1/2, delta = 3/4, sides scaled by 2^(alpha-1).
    if params.deltas:
        scale = 2.0 ** (alpha - 1.0)
        cfg = HadamardConfig(interval, order, 0.5, (3.0 * a + b) / 4.0, (a + 3.0 * b) / 4.0)
        printed = width * (1.0 + 2.0 ** (alpha - 1.0) * (alpha - 1.0)) / (2.0 ** (alpha + 1.0) * (alpha + 1.0))
        emit("quarter_pair_bound", (("lam", 0.5), ("delta", 0.75)),
             printed, scale * hadamard_bound(cfg, 1.0), cfg, scale=scale)

    # Three-node midpoint coefficient (eight orderings).
    for lam, eta in params.simplex:
        for delta in params.deltas:
            case = bounds.n_case_index(lam, eta, delta)
            cfg = BullenConfig(interval, order, lam, eta, 1.0 - lam - eta,
                               delta * a + (1.0 - delta) * b, (a + b) / 2.0,
                               (1.0 - delta) * a + delta * b)
            printed = bounds.n_coeff(order, lam, eta, delta) * width / (alpha + 1.0)
            emit(f"midpoint_triple_coeff_case{case}",
                 (("lam", lam), ("eta", eta), ("delta", delta)),
                 printed, bullen_bound(cfg, 1.0), cfg)

    # Theta-weighted endpoint/midpoint bracket.
    for theta in params.thetas:
        cfg = BullenConfig(interval, order, theta / 2.0, 1.0 - theta, theta / 2.0,
                           a, (a + b) / 2.0, b)
        printed = bounds.weighted_bullen_coeff(order, theta) * width / (alpha + 1.0)
        emit("theta_weighted_triple_bound", (("theta", theta),),
             printed, bullen_bound(cfg, 1.0), cfg)

    # Shortcut forms of the theta = 1/2 and theta = 1/3 instances; sides
    # carry the scale that matches their fractional-integral terms.
    fixed_thetas = () if not params.thetas else (
        ("bullen_theta_half_bound", 0.5, 2.0 ** (alpha - 1.0)),
        ("simpson_theta_third_bound", 1.0 / 3.0, 6.0 ** (alpha - 1.0)))
    for formula_id, theta, scale in fixed_thetas:
        cfg = BullenConfig(interval, order, theta / 2.0, 1.0 - theta, theta / 2.0,
                           a, (a + b) / 2.0, b)
        coeff = (bounds.bullen_remark_coeff(alpha) if formula_id == "bullen_theta_half_bound"
                 else bounds.simpson_remark_coeff(alpha))
        emit(formula_id, (("theta", theta),),
             coeff * width, scale * bullen_bound(cfg, 1.0), cfg, scale=scale)

    return findings
