"""Gap/bound evaluation, adjudication, and the corollary audit suite."""

import math

import numpy as np
import pytest

from fracbound import corpus
from fracbound.bounds import BullenConfig, HadamardConfig, abs_moment_closed
from fracbound.corpus import (LipschitzWitness, PiecewiseLinearFunction,
                              exact_rl_left, lipschitz_constant, random_lipschitz,
                              tent)
from fracbound.engine import (CorollaryParams, ErratumEntry, GapResult, bullen_bound,
                              bullen_gap, corollary_suite, hadamard_bound,
                              hadamard_gap, verify)
from fracbound.quadrature import DomainError, Interval, Order

ITV = Interval(0.0, 1.0)
SQRT2_3 = math.sqrt(2.0) / 3.0
ALPHAS = (0.5, 1.0, 1.5, 2.0)


def classical_mean(f: PiecewiseLinearFunction) -> float:
    return exact_rl_left(f, Order(1.0), f.b) / (f.b - f.a)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_contract():
    res = verify(0.0, 0.0)
    assert res.passed and res.ratio == 0.0
    res = verify(0.4714045, 0.4714045)
    assert res.passed and res.ratio == pytest.approx(1.0, abs=1e-9)
    res = verify(1.0, 0.5)
    assert not res.passed
    res = verify(1.0, 0.0)
    assert not res.passed and math.isinf(res.ratio)
    with pytest.raises(DomainError):
        verify(-1.0, 0.5)


def test_verify_slack_rule():
    bound = 2.0
    slack = 1e-9 * (1.0 + bound)
    assert verify(bound + 0.9 * slack, bound).passed
    assert not verify(bound + 1.1 * slack, bound).passed


# ----------------------------------------------------------------------
# hadamard gap/bound
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("lam", (0.0, 0.3, 0.5, 1.0))
def test_hadamard_gap_constant_telescopes(alpha, lam):
    flat = LipschitzWitness(PiecewiseLinearFunction((0.0, 1.0), (4.2, 4.2)), 0.0)
    cfg = HadamardConfig(ITV, Order(alpha), lam, 0.25, 0.75)
    assert hadamard_gap(cfg, flat) <= 1e-12


def test_hadamard_sharpness_witness():
    cfg = HadamardConfig(ITV, Order(0.5), 0.5, 0.5, 0.5)
    w = LipschitzWitness(tent(ITV, 0.5), 1.0)
    gap = hadamard_gap(cfg, w)
    bound = hadamard_bound(cfg, 1.0)
    assert gap == pytest.approx(SQRT2_3, abs=1e-12)
    assert bound == pytest.approx(SQRT2_3, abs=1e-12)
    assert verify(gap, bound).ratio == pytest.approx(1.0, abs=1e-9)


def test_hadamard_classical_midpoint_reduction():
    w = random_lipschitz(61, ITV)
    f = w.function
    cfg = HadamardConfig(ITV, Order(1.0), 0.5, 0.5, 0.5)
    want = abs(f(0.5) - classical_mean(f))
    assert hadamard_gap(cfg, w) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_hadamard_bound_basics():
    cfg = HadamardConfig(ITV, Order(0.5), 0.5, 0.5, 0.5)
    assert hadamard_bound(cfg, 0.0) == 0.0
    assert hadamard_bound(cfg, 2.0) == pytest.approx(2.0 * SQRT2_3)
    with pytest.raises(DomainError):
        hadamard_bound(cfg, -1.0)


def test_hadamard_gap_method_agreement():
    w = random_lipschitz(71, ITV)
    for alpha in ALPHAS:
        cfg = HadamardConfig(ITV, Order(alpha), 0.35, 0.2, 0.9)
        oracle = hadamard_gap(cfg, w, method="oracle")
        quad = hadamard_gap(cfg, w, method="quadrature")
        assert abs(oracle - quad) <= 1e-8 * max(1.0, abs(oracle))
    with pytest.raises(DomainError):
        hadamard_gap(cfg, w, method="telepathy")


# ----------------------------------------------------------------------
# bullen gap/bound
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
def test_bullen_gap_constant_telescopes(alpha):
    flat = LipschitzWitness(PiecewiseLinearFunction((0.0, 1.0), (-1.1, -1.1)), 0.0)
    cfg = BullenConfig(ITV, Order(alpha), 0.2, 0.5, 0.3, 0.1, 0.5, 0.8)
    assert bullen_gap(cfg, flat) <= 1e-12


def test_bullen_classical_reduction():
    # order 1, weights (1/4, 1/2, 1/4), nodes (a, mid, b): the classical
    # average of midpoint and trapezoid rules against the integral mean
    w = random_lipschitz(81, ITV)
    f = w.function
    cfg = BullenConfig(ITV, Order(1.0), 0.25, 0.5, 0.25, 0.0, 0.5, 1.0)
    want = abs(0.25 * f(0.0) + 0.5 * f(0.5) + 0.25 * f(1.0) - classical_mean(f))
    assert bullen_gap(cfg, w) == pytest.approx(want, rel=1e-12, abs=1e-14)
    assert bullen_bound(cfg, w.constant) == pytest.approx(w.constant / 8.0, rel=1e-12)


def test_gap_rejects_a_witness_on_another_interval():
    cfg = HadamardConfig(ITV, Order(1.0), 0.5, 0.2, 0.8)
    with pytest.raises(DomainError):
        hadamard_gap(cfg, LipschitzWitness(tent(Interval(0.0, 2.0), 1.0), 1.0))


def test_bullen_simpson_nodes():
    cfg = BullenConfig(ITV, Order(2.0), 1 / 6, 2 / 3, 1 / 6, 0.0, 0.5, 1.0)
    assert cfg.v1_node == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert cfg.v2_node == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_bullen_single_panel_degenerate():
    cfg = BullenConfig(ITV, Order(1.5), 0.0, 1.0, 0.0, 0.4, 0.4, 0.4)
    m = 1.3
    want = 1.5 * m * abs_moment_closed(0.4, 0.0, 1.0, Order(1.5))
    assert bullen_bound(cfg, m) == pytest.approx(want, rel=1e-12)


def test_bullen_gap_method_agreement():
    w = random_lipschitz(91, ITV)
    for alpha in ALPHAS:
        cfg = BullenConfig(ITV, Order(alpha), 0.3, 0.3, 0.4, 0.15, 0.5, 0.85)
        oracle = bullen_gap(cfg, w, method="oracle")
        quad = bullen_gap(cfg, w, method="quadrature")
        assert abs(oracle - quad) <= 1e-8 * max(1.0, abs(oracle))


# ----------------------------------------------------------------------
# invariance properties of the gap
# ----------------------------------------------------------------------

def test_translation_invariance():
    w = random_lipschitz(14, ITV)
    f = w.function
    shifted = LipschitzWitness(
        PiecewiseLinearFunction(f.breakpoints, tuple(v + 9.0 for v in f.values)),
        w.constant)
    for alpha in ALPHAS:
        cfg = HadamardConfig(ITV, Order(alpha), 0.4, 0.3, 0.7)
        assert hadamard_gap(cfg, shifted) == pytest.approx(
            hadamard_gap(cfg, w), rel=1e-12, abs=1e-11)
        bcfg = BullenConfig(ITV, Order(alpha), 0.3, 0.4, 0.3, 0.2, 0.5, 0.8)
        assert bullen_gap(bcfg, shifted) == pytest.approx(
            bullen_gap(bcfg, w), rel=1e-12, abs=1e-11)


def test_positive_homogeneity():
    w = random_lipschitz(15, ITV)
    f = w.function
    s = 3.25
    scaled = LipschitzWitness(
        PiecewiseLinearFunction(f.breakpoints, tuple(s * v for v in f.values)),
        s * w.constant)
    for alpha in ALPHAS:
        cfg = HadamardConfig(ITV, Order(alpha), 0.6, 0.25, 0.7)
        g0, g1 = hadamard_gap(cfg, w), hadamard_gap(cfg, scaled)
        assert g1 == pytest.approx(s * g0, rel=1e-12, abs=1e-13)
        b0 = hadamard_bound(cfg, w.constant)
        b1 = hadamard_bound(cfg, scaled.constant)
        assert b1 == pytest.approx(s * b0, rel=1e-12)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5, 2.0))
def test_sharpness_attainment_grid(alpha):
    # tent centered at V with x = y = V: equality for every lam and order
    for lam in (0.2, 0.5, 0.8):
        v = lam
        cfg = HadamardConfig(ITV, Order(alpha), lam, v, v)
        w = LipschitzWitness(tent(ITV, v), 1.0)
        res = verify(hadamard_gap(cfg, w), hadamard_bound(cfg, 1.0))
        assert res.passed
        assert res.ratio >= 0.999999


def test_soundness_mini_sweep():
    rng = np.random.default_rng(2025)
    for _ in range(150):
        w = random_lipschitz(int(rng.integers(2 ** 63)), ITV)
        lam = float(rng.uniform())
        x, y = sorted(float(u) for u in rng.uniform(0.0, 1.0, 2))
        alpha = float(rng.choice(ALPHAS))
        cfg = HadamardConfig(ITV, Order(alpha), lam, x, y)
        assert verify(hadamard_gap(cfg, w), hadamard_bound(cfg, w.constant)).passed
        lam, eta, mu = (float(v) for v in rng.dirichlet((1.0, 1.0, 1.0)))
        x, y, z = sorted(float(u) for u in rng.uniform(0.0, 1.0, 3))
        bcfg = BullenConfig(ITV, Order(alpha), lam, eta, mu, x, y, z)
        assert verify(bullen_gap(bcfg, w), bullen_bound(bcfg, w.constant)).passed


# ----------------------------------------------------------------------
# erratum entries and the corollary suite
# ----------------------------------------------------------------------

def test_erratum_entry_threshold():
    with pytest.raises(DomainError):
        ErratumEntry("anything", 1e-9, (("alpha", 1.0),))
    ent = ErratumEntry("anything", 1e-3, (("alpha", 1.0), ("lam", 0.5)))
    assert ent.as_record()["witness_params"]["lam"] == 0.5


def test_corollary_suite_structure_and_soundness():
    findings = corollary_suite(ITV, Order(1.5))
    assert len(findings) > 100
    for f in findings:
        assert isinstance(f.gap_result, GapResult)
        assert f.gap_result.passed, f.formula_id
        assert (f.erratum is not None) == (f.deviation > 1e-8)
        if f.erratum is not None:
            assert f.erratum.formula_id == f.formula_id
        # findings unpack as (GapResult, ErratumEntry | None) pairs
        res, err = f
        assert res is f.gap_result and err is f.erratum


def test_corollary_suite_exact_families():
    # families that agree with the assembled oracle at every order
    exact_ids = ("symmetric_pair_coeff", "coincident_node_bound",
                 "endpoint_pair_bound", "quarter_pair_bound",
                 "theta_weighted_triple_bound", "bullen_theta_half_bound")
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for f in corollary_suite(ITV, Order(alpha)):
            if f.formula_id in exact_ids:
                assert f.deviation <= 1e-10, (f.formula_id, alpha, f.deviation)


def test_corollary_suite_documented_deviations():
    ids_at = {}
    for alpha in (0.5, 1.0, 2.0):
        findings = corollary_suite(ITV, Order(alpha))
        ids_at[alpha] = {f.formula_id for f in findings if f.erratum is not None}
    # mirrored middle-panel bracket deviates at every order, including 1
    for alpha, ids in ids_at.items():
        assert "midpoint_triple_coeff_case7" in ids
        assert "midpoint_triple_coeff_case8" in ids
    # the shifted-node and literal Simpson forms agree only at order 1
    assert "shifted_single_node_bound" not in ids_at[1.0]
    assert "simpson_theta_third_bound" not in ids_at[1.0]
    for alpha in (0.5, 2.0):
        assert "shifted_single_node_bound" in ids_at[alpha]
        assert "simpson_theta_third_bound" in ids_at[alpha]


def test_corollary_suite_deterministic():
    a = corollary_suite(ITV, Order(2.0))
    b = corollary_suite(ITV, Order(2.0))
    assert [f.as_record() for f in a] == [f.as_record() for f in b]


def test_corollary_suite_never_fails_witnesses_on_deviating_bounds():
    # deviating shortcut values must be adjudicated against the oracle bound:
    # bound_used is oracle_bound times some witness constant, never the
    # printed value, and the gap test still passes
    params = CorollaryParams()
    constants = [random_lipschitz(s, ITV).constant for s in params.witness_seeds]
    for f in corollary_suite(ITV, Order(0.5), params):
        if f.erratum is not None and f.oracle_bound > 0.0:
            scale = f.gap_result.bound / f.oracle_bound
            assert any(scale == pytest.approx(m, rel=1e-12) for m in constants)
            assert f.gap_result.passed


def test_corollary_params_custom_witnesses():
    params = CorollaryParams(witness_seeds=(7,))
    findings = corollary_suite(ITV, Order(1.0), params)
    assert all(f.gap_result.passed for f in findings)


def test_corollary_suite_draws_its_witnesses_once_per_run(monkeypatch):
    # The witnesses do not depend on the order; seeds no other test uses
    # keep the draw out of the shared cache until here.
    draws = []
    draw = corpus.random_lipschitz_arrays
    monkeypatch.setattr(corpus, "random_lipschitz_arrays",
                        lambda *args: draws.append(args) or draw(*args))
    params = CorollaryParams(witness_seeds=(5151, 5252, 5353))
    first = corollary_suite(ITV, Order(0.5), params)
    for alpha in (1.0, 2.0, 0.5):
        corollary_suite(ITV, Order(alpha), params)
    assert draws == [((5151, 5252, 5353), ITV)]
    assert corollary_suite(ITV, Order(0.5), params) == first


def test_corollary_suite_empty_grids_empty_report():
    params = CorollaryParams(lambdas=(), deltas=(), node_deltas=(), simplex=(),
                             thetas=())
    assert corollary_suite(ITV, Order(1.0), params) == []
    with pytest.raises(DomainError):
        corollary_suite(ITV, Order(1.0), CorollaryParams(witness_seeds=()))


def test_quarter_pair_unit_order_value():
    # lam = 1/2, delta = 3/4 at order 1: both sides equal (b-a)/8
    for f in corollary_suite(ITV, Order(1.0)):
        if f.formula_id == "quarter_pair_bound":
            assert f.printed_bound == pytest.approx(1.0 / 8.0, rel=1e-12)
            assert f.oracle_bound == pytest.approx(1.0 / 8.0, rel=1e-12)
