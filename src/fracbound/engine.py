"""Gap and bound evaluation for the fractional inequalities, plus the
corollary audit suite.

The "gap" of an inequality instance is the absolute value of its left-hand
side: weighted node values of a concrete Lipschitz function minus the
scaled sum of fractional integrals.  The "bound" is the closed-form
right-hand side, alpha * M * coefficient / (b-a)^alpha.  For
piecewise-linear witnesses the fractional terms are computed with the
exact corpus integrators (method "oracle"); a quadrature path through
:mod:`fracbound.quadrature` (method "quadrature") cross-checks them.

Adjudication uses an absolute-plus-relative slack, 1e-9 * (1 + bound), so
zero-bound cases (constant witnesses) pass without division hazards.

``corollary_suite`` measures every shortcut (corollary-form) coefficient
against the oracle-validated assembled bound, over the fixed parameter
grids AUDIT_LAMBDAS, AUDIT_DELTAS, AUDIT_NODE_DELTAS, AUDIT_SIMPLEX and
AUDIT_THETAS, so the audit output is reproducible byte for byte.
Deviations above 1e-8 are recorded as :class:`ErratumEntry` data, never
silently corrected, and a deviating shortcut value is never used to fail
a witness: the assembled bound is ground truth.

The batched k-panel evaluator (``panel_gap``, ``panel_bound``,
``verify_panels``) is the only path the commands run; its values equal
those of the scalar functions (``config_gap``, ``hadamard_bound``,
``bullen_bound``, ``verify``) bit for bit.  The scalar functions are the
tests' reference, and tests/test_scalar_reference_guard.py fails if a
command reaches one.
``panel_quadrature_gap`` is the batched quadrature path of the verify
commands' oracle checks, equal bit for bit to ``config_gap`` with method
"quadrature" on every row that converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import bounds, corpus, quadrature
from .bounds import BullenConfig, HadamardConfig, PanelConfig, PanelConfigs, _pw
from .quadrature import DomainError, Interval, Order, gamma_fn, per_order

__all__ = [
    "CorollaryFinding",
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
    "panel_quadrature_gap",
    "verify",
    "verify_panels",
]

SLACK_COEFF = 1e-9
ERRATUM_THRESHOLD = 1e-8

# Parameter grids of the corollary audit.  AUDIT_SIMPLEX holds the
# (lam, eta) pairs with lam + eta <= 1 in steps of 1/4.
AUDIT_LAMBDAS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
AUDIT_DELTAS = (0.5, 0.625, 0.75, 0.875, 1.0)
AUDIT_NODE_DELTAS = (0.0, 0.25, 0.5, 0.75, 1.0)
AUDIT_SIMPLEX = tuple((i / 4, j / 4) for i in range(5) for j in range(5 - i))
AUDIT_THETAS = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class GapResult:
    """Outcome of one gap-versus-bound adjudication."""

    gap: float
    bound: float
    ratio: float
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


def verify(gap: float, bound: float) -> GapResult:
    """Adjudicate gap <= bound + slack with slack = 1e-9 * (1 + bound)."""
    if gap < 0.0 or bound < 0.0:
        raise DomainError(f"gap and bound must be nonnegative, got {gap}, {bound}")
    slack = SLACK_COEFF * (1.0 + bound)
    passed = gap <= bound + slack
    if bound > 0.0:
        ratio = gap / bound
    else:
        ratio = 0.0 if gap <= slack else math.inf
    return GapResult(gap, bound, ratio, passed)


def config_gap(config: PanelConfig, witness: corpus.LipschitzWitness,
               method: str = "oracle") -> float:
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
        integrals = quadrature.rl_left(f, config.interval, order, edges[1],
                                       kinks=f.breakpoints)
        for p in range(1, len(nodes)):
            integrals += quadrature.rl_mid(f, edges[p], edges[p + 1], order,
                                           kinks=f.breakpoints)
    else:
        raise DomainError(f"method must be 'oracle' or 'quadrature', got {method!r}")
    frac = gamma_fn(alpha + 1.0) / (b - a) ** alpha * integrals
    return abs(weighted - frac)


def hadamard_gap(config: HadamardConfig, witness: corpus.LipschitzWitness,
                 method: str = "oracle") -> float:
    """:func:`config_gap` of the two-node inequality, panels [a, V] and [V, b]."""
    return config_gap(config.panels, witness, method)


def bullen_gap(config: BullenConfig, witness: corpus.LipschitzWitness,
               method: str = "oracle") -> float:
    """:func:`config_gap` of the three-node inequality, panels [a, V1],
    [V1, V2] and [V2, b]."""
    return config_gap(config.panels, witness, method)


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
    return _assembled_gap(config, witnesses,
                          corpus.exact_rl_panels(witnesses, config.edges, config.alpha))


def panel_quadrature_gap(config: PanelConfigs, witnesses: corpus.WitnessArrays):
    """Quadrature gap of every row, with the k panel integrals of every
    row in one :func:`fracbound.quadrature.kernel_integrals` call: returns
    (gap, converged).  A converged row's gap is :func:`config_gap` of the
    row with method "quadrature", bit for bit; a row with a panel that
    missed its tolerances has the gap of the integrator's last estimates.
    """
    n, k = config.nodes.shape
    lo, hi = config.edges[:, :-1], config.edges[:, 1:]
    # The first panel's kernel is anchored at a and walks right, every
    # other panel's at its right edge and walks left; kinks are the
    # witness breakpoints in the distance from the anchor.
    first = np.arange(k) == 0
    anchor = np.where(first, lo, hi)
    bps = witnesses.breakpoints[:, None, :]
    kinks = np.where(first[None, :, None], bps - lo[:, :1, None], hi[:, :, None] - bps)
    result = quadrature.kernel_integrals(
        lambda rows, t: witnesses.take(rows // k)(t), anchor.ravel(),
        np.tile(np.where(first, 1.0, -1.0), n), (hi - lo).ravel(),
        np.repeat(config.alpha, k), kinks.reshape(n * k, -1))
    panels = result.value.reshape(n, k) / per_order(gamma_fn, config.alpha)[:, None]
    return (_assembled_gap(config, witnesses, panels),
            result.converged.reshape(n, k).all(axis=1))


def _assembled_gap(config: PanelConfigs, witnesses: corpus.WitnessArrays,
                   panels: np.ndarray) -> np.ndarray:
    """The gap of every row from its panel integrals, one column per panel."""
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
    integrals = panels[:, 0]
    for p in range(1, panels.shape[1]):
        integrals = integrals + panels[:, p]
    scale = per_order(lambda al: gamma_fn(al + 1.0) / (b - a) ** al, alpha)
    return np.abs(weighted - scale * integrals)


def panel_bound(config: PanelConfigs, m: np.ndarray) -> np.ndarray:
    """alpha * M * coefficient / (b-a)^alpha for every row, bit for bit
    :func:`hadamard_bound` (k = 2) or :func:`bullen_bound` (k = 3): the
    coefficient is the literal total of :func:`fracbound.bounds.v_panels`."""
    m = np.asarray(m, dtype=float)
    if (m < 0.0).any():
        raise DomainError(f"Lipschitz constant must be >= 0, got {m.min()}")
    width = config.interval.width
    scale = per_order(lambda al: width ** al, config.alpha)
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

@dataclass(frozen=True)
class CorollaryFinding:
    """One audited corollary instance: the shortcut bound, the assembled
    oracle bound, their deviation, the worst witness adjudication, and an
    erratum entry when the deviation is genuine.
    """

    formula_id: str
    params: tuple
    printed_bound: float
    oracle_bound: float
    deviation: float
    gap_result: GapResult
    erratum: ErratumEntry | None

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


class _Instance(NamedTuple):
    """One audited instance: its shortcut value, its k-panel weights and
    nodes, and the side scale its bound and gap both carry."""

    formula_id: str
    params: tuple
    printed: float
    weights: tuple
    nodes: tuple
    scale: float = 1.0


def _instances(interval: Interval, order: Order):
    """Every audited instance at one order, in report order."""
    a, b = interval.a, interval.b
    width = interval.width
    alpha = order.alpha

    # Symmetric two-node coefficient (three cases in lam).
    for lam in AUDIT_LAMBDAS:
        for delta in AUDIT_DELTAS:
            yield _Instance("symmetric_pair_coeff", (("lam", lam), ("delta", delta)),
                            bounds.l_coeff(order, lam, delta) * width / (alpha + 1.0),
                            (lam, 1.0 - lam),
                            (delta * a + (1.0 - delta) * b, (1.0 - delta) * a + delta * b))

    # Coincident nodes x = y = V.
    for lam in AUDIT_LAMBDAS:
        v = (1.0 - lam) * a + lam * b
        printed = (_pw(v - a, alpha + 1.0) + _pw(b - v, alpha + 1.0)) / ((alpha + 1.0) * width ** alpha)
        yield _Instance("coincident_node_bound", (("lam", lam),), printed, (lam, 1.0 - lam), (v, v))

    # Endpoint nodes x = a, y = b (delta = 1 specialization).
    for lam in AUDIT_LAMBDAS:
        printed = alpha * width * (_pw(lam, alpha + 1.0) + _pw(1.0 - lam, alpha + 1.0)) / (alpha + 1.0)
        yield _Instance("endpoint_pair_bound", (("lam", lam),), printed, (lam, 1.0 - lam), (a, b))

    # Single shifted node x = y = dn*a + (1-dn)*b with free lam.
    for lam in AUDIT_LAMBDAS:
        for dn in AUDIT_NODE_DELTAS:
            node = dn * a + (1.0 - dn) * b
            printed = width * (_pw(dn, alpha + 1.0) + _pw(1.0 - dn, alpha + 1.0)) / (alpha + 1.0)
            yield _Instance("shifted_single_node_bound", (("lam", lam), ("node_delta", dn)),
                            printed, (lam, 1.0 - lam), (node, node))

    # Quarter-node pair: lam = 1/2, delta = 3/4, sides scaled by 2^(alpha-1).
    printed = width * (1.0 + 2.0 ** (alpha - 1.0) * (alpha - 1.0)) / (2.0 ** (alpha + 1.0) * (alpha + 1.0))
    yield _Instance("quarter_pair_bound", (("lam", 0.5), ("delta", 0.75)), printed,
                    (0.5, 0.5), ((3.0 * a + b) / 4.0, (a + 3.0 * b) / 4.0),
                    2.0 ** (alpha - 1.0))

    # Three-node midpoint coefficient (eight orderings).
    for lam, eta in AUDIT_SIMPLEX:
        for delta in AUDIT_DELTAS:
            case = bounds.n_case_index(lam, eta, delta)
            yield _Instance(f"midpoint_triple_coeff_case{case}",
                            (("lam", lam), ("eta", eta), ("delta", delta)),
                            bounds.n_coeff(order, lam, eta, delta) * width / (alpha + 1.0),
                            (lam, eta, 1.0 - lam - eta),
                            (delta * a + (1.0 - delta) * b, (a + b) / 2.0,
                             (1.0 - delta) * a + delta * b))

    # Theta-weighted endpoint/midpoint bracket.
    for theta in AUDIT_THETAS:
        yield _Instance("theta_weighted_triple_bound", (("theta", theta),),
                        bounds.weighted_bullen_coeff(order, theta) * width / (alpha + 1.0),
                        (theta / 2.0, 1.0 - theta, theta / 2.0), (a, (a + b) / 2.0, b))

    # Shortcut forms of the theta = 1/2 and theta = 1/3 instances; sides
    # carry the scale that matches their fractional-integral terms.
    for formula_id, theta, coeff, scale in (
            ("bullen_theta_half_bound", 0.5, bounds.bullen_remark_coeff(alpha),
             2.0 ** (alpha - 1.0)),
            ("simpson_theta_third_bound", 1.0 / 3.0, bounds.simpson_remark_coeff(alpha),
             6.0 ** (alpha - 1.0))):
        yield _Instance(formula_id, (("theta", theta),), coeff * width,
                        (theta / 2.0, 1.0 - theta, theta / 2.0), (a, (a + b) / 2.0, b),
                        scale)


@lru_cache(maxsize=8)
def _audit_witnesses(seeds: tuple, interval: Interval) -> corpus.WitnessArrays:
    """The audit's random witnesses; they do not depend on the order, so one
    draw serves every order of a run.  Every caller shares the arrays, so
    they are read-only."""
    witnesses = corpus.random_lipschitz_arrays(seeds, interval)
    for array in (witnesses.breakpoints, witnesses.values, witnesses.constants):
        array.flags.writeable = False
    return witnesses


def _audit_panels(interval: Interval, alpha: float, group: list,
                  witnesses: corpus.WitnessArrays) -> tuple:
    """Assembled bound, deviation and worst witness adjudication of
    instances that share a node count, in one batched k-panel pass.

    Each instance is tried on every witness (rows instance-major), against
    the smaller of its shortcut and assembled bounds when they agree, else
    against the assembled bound: a deviating shortcut never fails a witness.
    The worst witness is the first of largest ratio.  Returns the arrays
    (oracle, deviation, gap, bound_used, ratio, passed), one entry per
    instance.
    """
    n, n_wit = len(group), len(witnesses.constants)
    weights = np.array([inst.weights for inst in group])
    nodes = np.array([inst.nodes for inst in group])
    scale = np.array([inst.scale for inst in group])
    printed = np.array([inst.printed for inst in group])
    cfg = PanelConfigs(interval, np.full(n, alpha), weights, nodes)
    oracle = panel_bound(cfg, np.ones(n)) * scale
    deviation = np.abs(printed - oracle)
    # Python's min(printed, oracle) where they agree, else oracle.
    coeff = np.where((deviation <= ERRATUM_THRESHOLD) & ~(oracle < printed), printed, oracle)
    inst = np.repeat(np.arange(n), n_wit)
    wit = np.tile(np.arange(n_wit), n)
    rows = PanelConfigs(interval, np.full(n * n_wit, alpha), weights[inst], nodes[inst])
    gap = scale[inst] * panel_gap(rows, witnesses.take(wit))
    bound = coeff[inst] * witnesses.constants[wit]
    ratio, passed = verify_panels(gap, bound)
    worst = np.arange(n) * n_wit + np.argmax(ratio.reshape(n, n_wit), axis=1)
    return oracle, deviation, gap[worst], bound[worst], ratio[worst], passed[worst]


def corollary_suite(interval: Interval, order: Order,
                    witness_seeds: tuple = (101, 202, 303)) -> list:
    """Audit every shortcut coefficient family at one order.

    For each instance of the audit grids: (i) evaluate the shortcut
    (printed-form) bound, (ii) evaluate the assembled bound with the same
    substituted nodes, (iii) run the gap test with random witnesses, one
    per seed of ``witness_seeds``, against the smaller of the two when
    they agree, else against the assembled bound.
    Deviations above 1e-8 become erratum entries.  Coefficient audits are
    canonical on [0, 1]; scale covariance extends them to general
    intervals.

    Steps (ii) and (iii) run in one batched k-panel pass per run of
    instances with one node count, which is one pass per node count since
    :func:`_instances` yields every two-node instance first
    (:func:`panel_bound`, :func:`panel_gap`, :func:`verify_panels`), whose
    values equal those of :func:`hadamard_bound`, :func:`bullen_bound`,
    :func:`config_gap` and :func:`verify` bit for bit.  The witnesses are
    drawn once per seeds and interval, whatever the order.

    Returns a list of :class:`CorollaryFinding`, deterministic in both
    content and order.
    """
    if not witness_seeds:
        raise DomainError("the corollary audit needs at least one witness seed")
    alpha = order.alpha
    instances = list(_instances(interval, order))
    witnesses = _audit_witnesses(witness_seeds, interval)
    results = []
    for _, group in groupby(instances, key=lambda inst: len(inst.nodes)):
        columns = _audit_panels(interval, alpha, list(group), witnesses)
        results.extend(zip(*(c.tolist() for c in columns)))
    findings = []
    for inst, (oracle, deviation, gap, bound, ratio, passed) in zip(instances, results):
        pt = (("alpha", alpha),) + inst.params
        erratum = (ErratumEntry(inst.formula_id, deviation, pt)
                   if deviation > ERRATUM_THRESHOLD else None)
        findings.append(CorollaryFinding(inst.formula_id, pt, inst.printed, oracle, deviation,
                                         GapResult(gap, bound, ratio, passed),
                                         erratum))
    return findings
