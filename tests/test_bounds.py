"""Closed-form moments, the two bound coefficients, and the coefficient audits.

The mirrored-orientation deviation in the three-node corner-weight
coefficient (orderings 7 and 8) and the factor-2 relation between the
order-1 coefficient and the quadratic two-point table are asserted here as
documented facts; see the module docstring of fracbound.bounds.
"""

import math
import re

import numpy as np
import pytest

from fracbound import bounds
from fracbound.bounds import (BoundBreakdown, BullenConfig, HadamardConfig,
                              InconsistencyError, abs_moment_closed,
                              bullen_remark_coeff, l_coeff, l_coeff_reference,
                              n_case_index, n_coeff, n_coeff_reference,
                              simpson_remark_coeff, unit_order_two_point_table,
                              v_bullen, v_hadamard, weighted_bullen_coeff,
                              weighted_bullen_reference)
from fracbound.quadrature import (DomainError, Interval, Order,
                                  abs_moment_quadrature)

ITV = Interval(0.0, 1.0)
ALPHAS = (0.5, 1.0, 1.5, 2.0, 3.0)


def rnd_hadamard(rng, alpha, itv=ITV):
    lam = float(rng.uniform())
    x, y = sorted(float(u) for u in rng.uniform(itv.a, itv.b, 2))
    return HadamardConfig(itv, Order(alpha), lam, x, y)


def rnd_bullen(rng, alpha, itv=ITV):
    lam, eta, mu = (float(w) for w in rng.dirichlet((1.0, 1.0, 1.0)))
    x, y, z = sorted(float(u) for u in rng.uniform(itv.a, itv.b, 3))
    return BullenConfig(itv, Order(alpha), lam, eta, mu, x, y, z)


# ----------------------------------------------------------------------
# closed-form panel moments
# ----------------------------------------------------------------------

def left_moment(x, anchor, upper, order):
    """int_anchor^upper |x - t| (t - anchor)^(alpha-1) dt: the right-kernel
    moment on the negated panel."""
    return abs_moment_closed(-x, -upper, -anchor, order)


def test_left_moment_examples():
    assert left_moment(1.0, 0.0, 1.0, Order(1.0)) == pytest.approx(0.5)
    assert left_moment(1.0, 0.0, 1.0, Order(2.0)) == pytest.approx(1.0 / 6.0)
    with pytest.raises(DomainError):
        left_moment(0.5, 0.0, -0.5, Order(1.0))
    # node left of the kernel anchor: int_0^1 (t + 1/2) dt = 1
    assert left_moment(-0.5, 0.0, 1.0, Order(1.0)) == pytest.approx(1.0)


def test_right_moment_examples():
    assert abs_moment_closed(0.0, 0.0, 1.0, Order(1.0)) == pytest.approx(0.5)
    # node at the anchor: int_0^1 (1-t)*(1-t) dt = 1/3
    assert abs_moment_closed(1.0, 0.0, 1.0, Order(2.0)) == pytest.approx(1.0 / 3.0)
    # node right of the kernel anchor: int_0^1 (3/2 - t) dt = 1
    assert abs_moment_closed(1.5, 0.0, 1.0, Order(1.0)) == pytest.approx(1.0)


def test_mid_moment_examples():
    for y in (-1.0, 0.2, 0.3, 0.9):
        assert abs_moment_closed(y, 0.3, 0.3, Order(0.5)) == 0.0
    assert abs_moment_closed(1.0, 0.0, 1.0, Order(1.0)) == pytest.approx(0.5)
    assert abs_moment_closed(0.5, 0.0, 1.0, Order(1.0)) == pytest.approx(0.25)
    # node left of the panel: int_1^2 t dt = 3/2
    assert abs_moment_closed(0.0, 1.0, 2.0, Order(1.0)) == pytest.approx(1.5)
    with pytest.raises(DomainError):
        abs_moment_closed(0.5, 1.0, 0.0, Order(1.0))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_moment_branch_continuity(alpha):
    order = Order(alpha)
    # both branches agree where the node meets a panel edge
    v = 0.6
    lo = left_moment(v - 1e-15, 0.0, v, order)
    hi = left_moment(v, 0.0, v, order)
    assert lo == pytest.approx(hi, rel=1e-12, abs=1e-12)
    for edge in (0.3, 0.8):
        below = abs_moment_closed(edge - 1e-15, 0.3, 0.8, order)
        at = abs_moment_closed(edge, 0.3, 0.8, order)
        above = abs_moment_closed(edge + 1e-15, 0.3, 0.8, order)
        assert below == pytest.approx(at, rel=1e-12, abs=1e-12)
        assert above == pytest.approx(at, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_left_moment_is_the_reflected_right_moment(alpha):
    # t -> a + b - t maps the left kernel on [a, v] onto the right kernel on
    # [a + b - v, b]; the reflected value agrees with the negated one.
    order = Order(alpha)
    a, b = -3.0, 5.0
    for v in (-3.0, -1.0, 2.5, 5.0):
        for x in (-3.0, -2.0, v, 4.0, 5.0):
            got = left_moment(x, a, v, order)
            want = abs_moment_closed(a + b - x, a + b - v, b, order)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.7, 2.0))
def test_moments_match_quadrature_oracle(alpha):
    rng = np.random.default_rng(8)
    order = Order(alpha)
    for _ in range(25):
        a, v, b = sorted(float(u) for u in rng.uniform(0.0, 1.0, 3))
        if v - a < 1e-3 or b - v < 1e-3:
            continue
        x = float(rng.uniform(a, b))
        got = left_moment(x, a, v, order)
        want = abs_moment_quadrature(x, a, v, "left", order)
        assert abs(got - want) <= max(1e-10, 1e-8 * abs(want))
        y = float(rng.uniform(a, b))
        got = abs_moment_closed(y, a, v, order)
        want = abs_moment_quadrature(y, a, v, "right", order)
        assert abs(got - want) <= max(1e-10, 1e-8 * abs(want))


# ----------------------------------------------------------------------
# configuration types
# ----------------------------------------------------------------------

def test_hadamard_config_validation():
    with pytest.raises(DomainError):
        HadamardConfig(ITV, Order(1.0), 1.5, 0.2, 0.8)
    with pytest.raises(DomainError):
        HadamardConfig(ITV, Order(1.0), 0.5, 0.8, 0.2)
    cfg = HadamardConfig(ITV, Order(1.0), 0.25, 0.2, 0.8)
    assert cfg.v_node == pytest.approx(0.25)


def test_bullen_config_validation_and_nodes():
    with pytest.raises(DomainError):
        BullenConfig(ITV, Order(1.0), 0.5, 0.5, 0.5, 0.1, 0.2, 0.3)
    with pytest.raises(DomainError):
        BullenConfig(ITV, Order(1.0), 0.25, 0.5, 0.25, 0.5, 0.2, 0.9)
    cfg = BullenConfig(ITV, Order(1.0), 0.25, 0.5, 0.25, 0.0, 0.5, 1.0)
    assert cfg.v1_node == pytest.approx(0.25)
    assert cfg.v2_node == pytest.approx(0.75)
    simpson = BullenConfig(ITV, Order(1.0), 1 / 6, 2 / 3, 1 / 6, 0.0, 0.5, 1.0)
    assert simpson.v1_node == pytest.approx(5.0 / 6.0 * 0.0 + 1.0 / 6.0)
    assert simpson.v2_node == pytest.approx(5.0 / 6.0)
    # weights renormalize under float drift
    wobble = BullenConfig(ITV, Order(1.0), 1 / 3, 1 / 3, 1 / 3 + 1e-12, 0.0, 0.5, 1.0)
    assert wobble.lam + wobble.eta + wobble.mu == pytest.approx(1.0, abs=1e-15)


def test_breakdown_invariants():
    with pytest.raises(InconsistencyError):
        BoundBreakdown("tag", (("a", 1.0), ("b", 2.0)), 4.0, 4.0)
    with pytest.raises(InconsistencyError):
        BoundBreakdown("tag", (("a", -1.0),), -1.0, -1.0)


@pytest.mark.parametrize("config", [
    HadamardConfig(ITV, Order(0.5), 0.5, 0.3, 0.7),
    BullenConfig(ITV, Order(1.5), 0.2, 0.5, 0.3, 0.1, 0.5, 0.9),
], ids=["hadamard", "bullen"])
def test_scalar_dual_path_guard_catches_a_corrupted_moment(config, monkeypatch):
    v_fn = v_hadamard if isinstance(config, HadamardConfig) else v_bullen
    tag = v_fn(config).case_tag
    moment = bounds.abs_moment_closed
    monkeypatch.setattr(bounds, "abs_moment_closed", lambda *args: moment(*args) + 1e-6)
    with pytest.raises(InconsistencyError, match=f"case {re.escape(tag)}: literal="):
        v_fn(config)


# ----------------------------------------------------------------------
# v_hadamard
# ----------------------------------------------------------------------

def test_v_hadamard_golden_symmetric():
    cfg = HadamardConfig(ITV, Order(0.5), 0.5, 0.5, 0.5)
    bd = v_hadamard(cfg)
    assert bd.total == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-12)
    assert bd.total == pytest.approx(0.9428090415820634, rel=1e-10)


def test_v_hadamard_case_tags():
    assert v_hadamard(HadamardConfig(ITV, Order(1.0), 0.2, 0.5, 0.8)).case_tag == "V<=x<=y"
    assert v_hadamard(HadamardConfig(ITV, Order(1.0), 0.6, 0.5, 0.8)).case_tag == "x<=V<=y"
    assert v_hadamard(HadamardConfig(ITV, Order(1.0), 0.9, 0.5, 0.8)).case_tag == "x<=y<=V"


def test_v_hadamard_coincident_node_reduction():
    for alpha in ALPHAS:
        for lam in (0.0, 0.3, 0.5, 1.0):
            cfg = HadamardConfig(ITV, Order(alpha), lam, lam, lam)
            want = (lam ** (alpha + 1.0) + (1.0 - lam) ** (alpha + 1.0)) / (alpha * (alpha + 1.0))
            assert v_hadamard(cfg).total == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_v_hadamard_dual_path_and_nonnegativity(alpha):
    rng = np.random.default_rng(101)
    for _ in range(200):
        bd = v_hadamard(rnd_hadamard(rng, alpha))
        assert bd.total >= -1e-12
        assert abs(bd.total - bd.cross_total) <= 1e-12 * max(1.0, abs(bd.cross_total))


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_v_hadamard_vs_quadrature(alpha):
    rng = np.random.default_rng(55)
    order = Order(alpha)
    for _ in range(20):
        cfg = rnd_hadamard(rng, alpha)
        v = cfg.v_node
        want = (abs_moment_quadrature(cfg.x, 0.0, v, "left", order)
                + abs_moment_quadrature(cfg.y, v, 1.0, "right", order))
        assert v_hadamard(cfg).total == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_v_hadamard_scale_covariance():
    rng = np.random.default_rng(7)
    s, c = 2.5, -1.3
    for alpha in ALPHAS:
        cfg = rnd_hadamard(rng, alpha)
        scaled = HadamardConfig(Interval(s * ITV.a + c, s * ITV.b + c), Order(alpha),
                                cfg.lam, s * cfg.x + c, s * cfg.y + c)
        assert v_hadamard(scaled).total == pytest.approx(
            s ** (alpha + 1.0) * v_hadamard(cfg).total, rel=1e-10)


def test_v_hadamard_unit_order_table_relation():
    # at order 1 the coefficient equals exactly half of the quadratic table
    rng = np.random.default_rng(13)
    for _ in range(300):
        cfg = rnd_hadamard(rng, 1.0)
        table = unit_order_two_point_table(ITV, cfg.lam, cfg.x, cfg.y)
        assert 2.0 * v_hadamard(cfg).total == pytest.approx(table, rel=1e-12, abs=1e-15)


@pytest.mark.xfail(strict=True,
                   reason="documented source deviation: the order-1 coefficient equals "
                          "half of the quadratic two-point table, not the table itself")
def test_v_hadamard_unit_order_table_literal():
    cfg = HadamardConfig(ITV, Order(1.0), 0.5, 0.6, 0.8)
    table = unit_order_two_point_table(ITV, 0.5, 0.6, 0.8)
    assert v_hadamard(cfg).total == pytest.approx(table, rel=1e-12)


# ----------------------------------------------------------------------
# v_bullen
# ----------------------------------------------------------------------

def test_v_bullen_single_panel_reduction():
    cfg = BullenConfig(ITV, Order(1.0), 0.0, 1.0, 0.0, 0.5, 0.5, 0.5)
    bd = v_bullen(cfg)
    assert bd.total == pytest.approx(abs_moment_closed(0.5, 0.0, 1.0, Order(1.0)))
    assert bd.total == pytest.approx(0.25)


def test_v_bullen_all_case_tags_reachable():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(3000):
        bd = v_bullen(rnd_bullen(rng, 1.5))
        seen.add(bd.case_tag)
        if len(seen) == 8:
            break
    assert len(seen) == 8


@pytest.mark.parametrize("alpha", ALPHAS)
def test_v_bullen_dual_path_and_nonnegativity(alpha):
    rng = np.random.default_rng(303)
    for _ in range(200):
        bd = v_bullen(rnd_bullen(rng, alpha))
        assert bd.total >= -1e-12
        assert abs(bd.total - bd.cross_total) <= 1e-12 * max(1.0, abs(bd.cross_total))


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_v_bullen_vs_quadrature(alpha):
    rng = np.random.default_rng(66)
    order = Order(alpha)
    for _ in range(15):
        cfg = rnd_bullen(rng, alpha)
        v1, v2 = cfg.v1_node, cfg.v2_node
        want = (abs_moment_quadrature(cfg.x, 0.0, v1, "left", order)
                + abs_moment_quadrature(cfg.y, v1, v2, "right", order)
                + abs_moment_quadrature(cfg.z, v2, 1.0, "right", order))
        assert v_bullen(cfg).total == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_v_bullen_scale_covariance():
    rng = np.random.default_rng(77)
    s, c = 3.5, 0.4
    for alpha in ALPHAS:
        cfg = rnd_bullen(rng, alpha)
        scaled = BullenConfig(Interval(s * ITV.a + c, s * ITV.b + c), Order(alpha),
                              cfg.lam, cfg.eta, cfg.mu,
                              s * cfg.x + c, s * cfg.y + c, s * cfg.z + c)
        assert v_bullen(scaled).total == pytest.approx(
            s ** (alpha + 1.0) * v_bullen(cfg).total, rel=1e-10)


# ----------------------------------------------------------------------
# coefficient families
# ----------------------------------------------------------------------

def test_l_coeff_example_and_domain():
    assert l_coeff(Order(1.0), 0.5, 1.0) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        l_coeff(Order(1.0), 0.5, 0.3)
    with pytest.raises(DomainError):
        l_coeff(Order(1.0), 1.5, 0.75)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_l_coeff_matches_reference_exactly(alpha):
    # the three-case coefficient is algebraically the assembled bound
    order = Order(alpha)
    for lam in np.linspace(0.0, 1.0, 9):
        for delta in (0.5, 0.6, 0.75, 0.9, 1.0):
            got = l_coeff(order, float(lam), delta)
            want = l_coeff_reference(order, float(lam), delta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_l_coeff_case_boundary_continuity():
    for alpha in ALPHAS:
        order = Order(alpha)
        for delta in (0.6, 0.75):
            for edge in (1.0 - delta, delta):
                below = l_coeff(order, edge - 1e-9, delta)
                above = l_coeff(order, edge + 1e-9, delta)
                assert abs(above - below) <= 1e-6 * (1.0 + abs(above))


def test_n_case_index_partition():
    # every admissible (lam, eta, delta) falls in exactly one case bucket
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(2000):
        lam = float(rng.uniform())
        eta = float(rng.uniform(0.0, 1.0 - lam))
        delta = float(rng.uniform(0.5, 1.0))
        seen.add(n_case_index(lam, eta, delta))
    assert seen == {1, 2, 3, 4, 5, 6, 7, 8}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_n_coeff_exact_in_node_orderings_1_to_6(alpha):
    order = Order(alpha)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 120:
        lam = float(rng.uniform())
        eta = float(rng.uniform(0.0, 1.0 - lam))
        delta = float(rng.uniform(0.5, 1.0))
        if n_case_index(lam, eta, delta) > 6:
            continue
        got = n_coeff(order, lam, eta, delta)
        want = n_coeff_reference(order, lam, eta, delta)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)
        checked += 1


@pytest.mark.parametrize("alpha", ALPHAS)
def test_n_coeff_orderings_7_8_deviate_as_documented(alpha):
    # mirrored middle-panel bracket: literal value differs from the oracle
    # by exactly twice the true middle-panel term
    order = Order(alpha)
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 60:
        lam = float(rng.uniform(0.55, 0.95))
        eta = float(rng.uniform(0.02, 1.0 - lam))
        delta = float(rng.uniform(0.5, 1.0))
        if n_case_index(lam, eta, delta) < 7:
            continue
        got = n_coeff(order, lam, eta, delta)
        want = n_coeff_reference(order, lam, eta, delta)
        mid_true = eta ** alpha * ((alpha + 1.0) * (lam + eta - 0.5) - alpha * eta)
        assert got - want == pytest.approx(-2.0 * mid_true, rel=1e-9, abs=1e-12)
        checked += 1


def test_n_coeff_degenerates_to_l_coeff():
    for alpha in ALPHAS:
        order = Order(alpha)
        for lam, delta in ((0.1, 0.75), (0.5, 0.875), (0.7, 0.625), (0.95, 0.75)):
            assert n_coeff(order, lam, 0.0, delta) == pytest.approx(
                l_coeff(order, lam, delta), rel=1e-12, abs=1e-15)


def test_n_coeff_boundary_continuity_within_exact_cases():
    # continuity probe across the lam+eta = 1/2 split (cases 1 vs 2)
    for alpha in ALPHAS:
        order = Order(alpha)
        lam, delta = 0.1, 0.8
        below = n_coeff(order, lam, 0.4 - 1e-9, delta)  # lam + eta = 0.5 - 1e-9
        above = n_coeff(order, lam, 0.4 + 1e-9, delta)  # lam + eta = 0.5 + 1e-9
        assert abs(above - below) <= 1e-6 * (1.0 + abs(above))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("theta", (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0))
def test_weighted_bullen_coeff_exact(alpha, theta):
    order = Order(alpha)
    assert weighted_bullen_coeff(order, theta) == pytest.approx(
        weighted_bullen_reference(order, theta), rel=1e-12, abs=1e-14)


def test_weighted_bullen_endpoint_example():
    assert weighted_bullen_coeff(Order(1.0), 1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bullen_remark_coeff_is_scaled_reference(alpha):
    order = Order(alpha)
    scaled = 2.0 ** (alpha - 1.0) * weighted_bullen_reference(order, 0.5) / (alpha + 1.0)
    assert bullen_remark_coeff(alpha) == pytest.approx(scaled, rel=1e-12)


def test_l_coeff_midpoint_cross_check():
    # at lam = delta = 1/2 the symmetric coefficient reproduces the
    # coincident-node bound at the midpoint: L = 2^(-alpha)
    for alpha in ALPHAS:
        got = l_coeff(Order(alpha), 0.5, 0.5)
        assert got == pytest.approx(2.0 ** (-alpha), rel=1e-12)
        mid_bound = (0.5 ** (alpha + 1.0) * 2.0) / (alpha + 1.0)
        assert got / (alpha + 1.0) == pytest.approx(mid_bound, rel=1e-12)


def test_simpson_remark_coeff_literal_vs_scaled():
    # matches the scaled reference only at order 1; the literal extra
    # factor 3 makes it deviate elsewhere
    third = 1.0 / 3.0
    for alpha in ALPHAS:
        order = Order(alpha)
        scaled = 6.0 ** (alpha - 1.0) * weighted_bullen_reference(order, third) / (alpha + 1.0)
        literal = simpson_remark_coeff(alpha)
        if alpha == 1.0:
            assert literal == pytest.approx(scaled, rel=1e-12)
        else:
            assert abs(literal - scaled) > 1e-8
