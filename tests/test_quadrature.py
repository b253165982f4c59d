"""Gamma function, domain types, and the adaptive fractional integrators."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fracbound import quadrature
from fracbound.corpus import exact_rl_left, exact_rl_mid, exact_rl_right, random_lipschitz, tent
from fracbound.quadrature import (DomainError, Interval, Order, QuadratureToleranceError,
                                  abs_moment_quadrature, gamma_fn, rl_left, rl_mid, rl_right)

ITV = Interval(0.0, 1.0)
SQRT2_3 = math.sqrt(2.0) / 3.0


# ----------------------------------------------------------------------
# gamma_fn
# ----------------------------------------------------------------------

@pytest.mark.parametrize("arg, want", [
    (1.0, 1.0),
    (0.5, math.sqrt(math.pi)),
    (5.0, 24.0),
])
def test_gamma_anchors(arg, want):
    assert gamma_fn(arg) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("arg", [0.1, 0.5, 1.0, 2.5, 7.3, 33.0, 99.5, 170.0])
def test_gamma_recurrence(arg):
    assert gamma_fn(arg + 1.0) == pytest.approx(arg * gamma_fn(arg), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, 172.0, math.nan, math.inf])
def test_gamma_domain_errors(bad):
    with pytest.raises(DomainError):
        gamma_fn(bad)


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

def test_order_rejects_out_of_range():
    for bad in (0.0, 1e-9, 171.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            Order(bad)
    assert Order(1).alpha == 1.0


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)
    assert Interval(-1.5, 2.5).width == 4.0


def test_interval_rejects_a_width_that_overflows():
    # Both ends are finite, but b - a is inf: every width power and every
    # uniform draw over the interval would overflow.
    with pytest.raises(DomainError, match="width"):
        Interval(-1e308, 1e308)
    assert Interval(-8e307, 8e307).width == 1.6e308


# ----------------------------------------------------------------------
# rl_left / rl_right / rl_mid point values
# ----------------------------------------------------------------------

def test_rl_left_constant_singular_kernel():
    got = rl_left(lambda t: 1.0, ITV, Order(0.5), 1.0)
    assert got == pytest.approx(2.0 / gamma_fn(0.5), rel=1e-10)


def test_rl_left_classical_identity():
    assert rl_left(lambda t: t, ITV, Order(1.0), 1.0) == pytest.approx(0.5, rel=1e-12)


def test_rl_left_tent_half_panel():
    f = tent(ITV, 0.5)
    got = rl_left(f, ITV, Order(0.5), 0.5, kinks=f.breakpoints)
    assert got == pytest.approx(SQRT2_3 / gamma_fn(0.5), rel=1e-10)


def test_rl_left_empty_range_and_domain():
    assert rl_left(lambda t: 5.0, ITV, Order(0.5), 0.0) == 0.0
    with pytest.raises(DomainError):
        rl_left(lambda t: 1.0, ITV, Order(0.5), 1.5)


def test_rl_right_constant_and_tent():
    assert rl_right(lambda t: 1.0, ITV, Order(0.5), 0.0) == pytest.approx(
        2.0 / gamma_fn(0.5), rel=1e-10)
    f = tent(ITV, 0.5)
    got = rl_right(f, ITV, Order(0.5), 0.5, kinks=f.breakpoints)
    assert got == pytest.approx(SQRT2_3 / gamma_fn(0.5), rel=1e-10)
    assert rl_right(lambda t: 7.0, ITV, Order(2.0), 1.0) == 0.0


def test_rl_mid_values():
    assert rl_mid(lambda t: 1.0, 0.3, 0.3, Order(0.5)) == 0.0
    got = rl_mid(lambda t: 3.0, 0.25, 0.75, Order(0.5))
    assert got == pytest.approx(3.0 * 0.5 ** 0.5 / gamma_fn(1.5), rel=1e-10)
    assert rl_mid(lambda t: t, 0.25, 0.75, Order(1.0)) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(DomainError):
        rl_mid(lambda t: t, 0.75, 0.25, Order(1.0))


# ----------------------------------------------------------------------
# abs_moment_quadrature
# ----------------------------------------------------------------------

def test_abs_moment_elementary():
    assert abs_moment_quadrature(1.0, 0.0, 1.0, "left", Order(1.0)) == pytest.approx(
        0.5, rel=1e-12)
    assert abs_moment_quadrature(1.0, 0.0, 1.0, "left", Order(2.0)) == pytest.approx(
        1.0 / 6.0, rel=1e-12)


def test_abs_moment_golden_singular():
    # node right of the panel: int_0^0.5 (0.75 - t) t^(-1/2) dt = 7/(6*sqrt(2))
    got = abs_moment_quadrature(0.75, 0.0, 0.5, "left", Order(0.5))
    assert got == pytest.approx(7.0 / (6.0 * math.sqrt(2.0)), rel=1e-10)


def test_abs_moment_right_kernel():
    # int_0^1 |0.25 - t| (1 - t)^0 dt = 0.25^2/2 + 0.75^2/2
    got = abs_moment_quadrature(0.25, 0.0, 1.0, "right", Order(1.0))
    assert got == pytest.approx(0.03125 + 0.28125, rel=1e-12)


def test_abs_moment_anchor_validation():
    # The kernel side names the anchor: lower for "left", upper for "right".
    with pytest.raises(DomainError):
        abs_moment_quadrature(0.5, 0.0, 1.0, "sideways", Order(1.0))
    with pytest.raises(DomainError):
        abs_moment_quadrature(0.5, 1.0, 0.0, "left", Order(1.0))


# ----------------------------------------------------------------------
# operator properties
# ----------------------------------------------------------------------

ALPHAS = (0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("seed", [3, 17])
def test_reflection_symmetry(alpha, seed):
    # rl_right at lower = a+b-u equals rl_left of the reflected function at u
    w = random_lipschitz(seed, ITV)
    f = w.function
    a, b = ITV.a, ITV.b
    reflected = lambda t: f(a + b - t)
    for u in (0.25, 0.5, 0.9):
        lhs = rl_right(f, ITV, Order(alpha), a + b - u, kinks=f.breakpoints)
        rhs = rl_left(reflected, ITV, Order(alpha), u,
                      kinks=[a + b - t for t in f.breakpoints])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_linearity(alpha):
    f = random_lipschitz(5, ITV).function
    g = random_lipschitz(6, ITV).function
    combo = lambda t: 2.0 * f(t) - 3.0 * g(t)
    kinks = sorted(set(f.breakpoints) | set(g.breakpoints))
    lhs = rl_left(combo, ITV, Order(alpha), 0.8, kinks=kinks)
    rhs = (2.0 * rl_left(f, ITV, Order(alpha), 0.8, kinks=f.breakpoints)
           - 3.0 * rl_left(g, ITV, Order(alpha), 0.8, kinks=g.breakpoints))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_classical_reduction():
    # alpha = 1 reduces to the plain integral (here: exact trapezoid sum)
    w = random_lipschitz(9, ITV)
    f = w.function
    got = rl_left(f, ITV, Order(1.0), 1.0, kinks=f.breakpoints)
    bps, vals = f.breakpoints, f.values
    plain = sum((vals[i] + vals[i + 1]) / 2.0 * (bps[i + 1] - bps[i])
                for i in range(len(bps) - 1))
    assert got == pytest.approx(plain, rel=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
def test_constant_telescoping(alpha, lam):
    c = 2.75
    a, b = ITV.a, ITV.b
    v = (1.0 - lam) * a + lam * b
    order = Order(alpha)
    total = gamma_fn(alpha + 1.0) / (b - a) ** alpha * (
        rl_left(lambda t: c, ITV, order, v) + rl_right(lambda t: c, ITV, order, v))
    assert total == pytest.approx(c * (lam ** alpha + (1.0 - lam) ** alpha), abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_tolerance_monotonicity(alpha, monkeypatch):
    # tightening the tolerances _adaptive reads never increases the error
    # vs the exact oracle
    w = random_lipschitz(21, ITV)
    f = w.function
    order = Order(alpha)
    exact = exact_rl_left(f, order, 0.85)
    errors = []
    for tol in (1e-6, 1e-12):
        monkeypatch.setattr(quadrature, "ABS_TOL", tol)
        monkeypatch.setattr(quadrature, "REL_TOL", tol)
        errors.append(abs(rl_left(f, ITV, order, 0.85, kinks=f.breakpoints) - exact))
    err_loose, err_tight = errors
    assert err_tight <= err_loose + 1e-15


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quadrature_matches_exact_corpus(alpha, seed):
    w = random_lipschitz(seed, ITV)
    f = w.function
    order = Order(alpha)
    for upper in (0.3, 0.85, 1.0):
        got = rl_left(f, ITV, order, upper, kinks=f.breakpoints)
        want = exact_rl_left(f, order, upper)
        assert abs(got - want) <= max(1e-10, 1e-8 * abs(want))
    for lower in (0.0, 0.4):
        got = rl_right(f, ITV, order, lower, kinks=f.breakpoints)
        want = exact_rl_right(f, order, lower)
        assert abs(got - want) <= max(1e-10, 1e-8 * abs(want))
    got = rl_mid(f, 0.2, 0.7, order, kinks=f.breakpoints)
    want = exact_rl_mid(f, 0.2, 0.7, order)
    assert abs(got - want) <= max(1e-10, 1e-8 * abs(want))


def test_tolerance_failure_carries_estimate():
    # 600 periods in [0, 1] outrun the 200 pieces the oracle may use; the
    # estimate it gives up with still lies within its error bound of the
    # value, (1/Gamma(1/2)) int_0^1 t^(-1/2) cos(w t) dt = 2 sqrt(pi/(2w))
    # C(sqrt(2w/pi)) / sqrt(pi), C the Fresnel integral.
    w = 3770.0
    with pytest.raises(QuadratureToleranceError) as info:
        rl_left(lambda t: np.cos(w * t), ITV, Order(0.5), 1.0)
    with mpmath.workdps(40):
        w = mpmath.mpf(w)
        z = mpmath.sqrt(2 * w / mpmath.pi)
        want = 2 * mpmath.sqrt(mpmath.pi / (2 * w)) * mpmath.fresnelc(z) / mpmath.sqrt(mpmath.pi)
    assert abs(info.value.estimate - want) <= info.value.error_bound


def test_gauss_kronrod_and_gauss_jacobi_rules_are_exact():
    # K21 integrates degree 31 and its G10 degree 19 exactly on [-1, 1];
    # an n-point Gauss-Jacobi rule integrates s^j against s^(alpha-1) on
    # [0, 1], 1/(alpha + j), exactly for j <= 2n - 1.
    x = quadrature.GK_NODES
    for j in range(32):
        exact = (1.0 - (-1.0) ** (j + 1)) / (j + 1)
        assert abs(float(np.sum(quadrature.GK_WEIGHTS * x ** j)) - exact) <= 1e-15
        if j < 20:
            assert abs(float(np.sum(quadrature.G10_WEIGHTS * x ** j)) - exact) <= 1e-15
    for alpha in (1e-6, 0.25, 1.0, 3.5, 30.0, 170.0):
        for n in (quadrature.GJ_LOW, quadrature.GJ_HIGH):
            nodes, weights = quadrature.gauss_jacobi(alpha, n)
            assert ((nodes > 0.0) & (nodes < 1.0)).all()
            for j in range(2 * n):
                exact = 1.0 / (alpha + j)
                assert abs(float(np.sum(weights * nodes ** j)) - exact) <= 1e-14 * exact


def test_batched_moments_equal_one_row_calls_bit_for_bit():
    # A row's value does not depend on the batch around it.
    rng = np.random.default_rng(8)
    n = 60
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(1e-9, 3.0, n)
    x = np.where(rng.uniform(size=n) < 0.8, rng.uniform(lower, upper), lower)
    right = rng.uniform(size=n) < 0.5
    alpha = rng.choice([1e-6, 0.25, 0.5, 1.0, 1.5, 3.5, 170.0], n)
    batch = quadrature.abs_moments(x, lower, upper, right, alpha)
    assert batch.converged.all()
    want = [abs_moment_quadrature(*args, "right" if r else "left", Order(al))
            for *args, r, al in zip(x.tolist(), lower.tolist(), upper.tolist(),
                                    right.tolist(), alpha.tolist())]
    assert batch.value.tolist() == want
    reversed_batch = quadrature.abs_moments(x[::-1], lower[::-1], upper[::-1], right[::-1],
                                            alpha[::-1])
    assert reversed_batch.value.tolist() == want[::-1]


@pytest.mark.parametrize("alpha", [1e-6, 0.5, 1.0, 3.5, 170.0])
def test_oracle_is_quiet_on_every_width(alpha):
    # Widths 1e-300 to 1e300: a value, or OverflowError where W^alpha
    # leaves binary64; never a RuntimeWarning (an error under this suite).
    for width in 10.0 ** np.arange(-300.0, 301.0, 25.0):
        for x in (0.0, 0.5 * width, width, 2.0 * width):
            try:
                result = quadrature.abs_moments([x], [0.0], [width], [True], alpha)
            except OverflowError:
                assert alpha * math.log10(width) > 308.0
                continue
            assert result.converged[0] == np.isfinite(result.value[0])


def test_check_identities_scales_samples_to_contract():
    from fracbound.cli import RunConfig, cmd_check_identities
    rep = cmd_check_identities(RunConfig(trials=1, alpha_grid=(0.5,)))
    assert rep.aggregate["evaluations"] >= 500


def test_general_interval_and_high_order():
    itv = Interval(-3.0, 5.0)
    w = random_lipschitz(33, itv)
    f = w.function
    for alpha in (0.7, 4.0, 10.0):
        order = Order(alpha)
        got = rl_left(f, itv, order, 2.0, kinks=f.breakpoints)
        want = exact_rl_left(f, order, 2.0)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


# ----------------------------------------------------------------------
# The oracle against QUADPACK, the reference it replaced
# ----------------------------------------------------------------------

WIDE = Interval(-3.0, 5.0)
WITNESS = random_lipschitz(33, WIDE).function  # interior kinks near -0.97, 0.55, 1.55, 1.71, 4.26


def _nested_lambda_reference(g, width, alpha, kinks, gamma=1.0):
    """QUADPACK's value of int_0^width u^(alpha-1) g(u) du / gamma, at
    tolerances 1e-11 within 200 subintervals: the integrand as first
    written, a kernel lambda calling the nested g lambda, taken in
    s = u^alpha below order 1."""
    if alpha >= 1.0:
        fn, hi, points = (lambda u: u ** (alpha - 1.0) * g(u)), width, kinks
    else:
        inv = 1.0 / alpha
        fn, hi = (lambda s: g(s ** inv)), width ** alpha
        points = [k ** alpha for k in kinks if k > 0.0]
    pts = sorted(p for p in points if 0.0 < p < hi) or None
    value = integrate.quad(fn, 0.0, hi, epsabs=1e-11, epsrel=1e-11, limit=200, points=pts)[0]
    if alpha < 1.0:
        value = value / alpha
    return value / gamma


def _rl_left_case(upper):
    f, a, kinks = WITNESS, WIDE.a, WITNESS.breakpoints
    return (lambda order: rl_left(f, WIDE, order, upper, kinks=kinks),
            lambda alpha: _nested_lambda_reference(lambda u: f(a + u), upper - a, alpha,
                                                   [k - a for k in kinks], gamma_fn(alpha)))


def _rl_mid_case(v1, v2):
    f, kinks = WITNESS, WITNESS.breakpoints
    return (lambda order: rl_mid(f, v1, v2, order, kinks=kinks),
            lambda alpha: _nested_lambda_reference(lambda u: f(v2 - u), v2 - v1, alpha,
                                                   [v2 - k for k in kinks], gamma_fn(alpha)))


def _abs_left_case(x, lower, upper):
    return (lambda order: abs_moment_quadrature(x, lower, upper, "left", order),
            lambda alpha: _nested_lambda_reference(lambda u: abs(x - lower - u),
                                                   upper - lower, alpha, (x - lower,)))


def _abs_right_case(x, lower, upper):
    return (lambda order: abs_moment_quadrature(x, lower, upper, "right", order),
            lambda alpha: _nested_lambda_reference(lambda u: abs(x - upper + u),
                                                   upper - lower, alpha, (upper - x,)))


FLAT_CASES = {
    "rl_left-kinks-inside": _rl_left_case(2.0),
    "rl_left-kinks-outside": _rl_left_case(-1.5),
    "rl_mid-kinks-inside": _rl_mid_case(-1.0, 4.5),
    "rl_mid-kinks-outside": _rl_mid_case(1.6, 1.7),
    "abs-left-kink-inside": _abs_left_case(0.3, -1.0, 2.0),
    "abs-left-kink-outside": _abs_left_case(3.0, -1.0, 2.0),
    "abs-right-kink-inside": _abs_right_case(0.3, -1.0, 2.0),
    "abs-right-kink-outside": _abs_right_case(3.0, -1.0, 2.0),
}


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 3.5])
@pytest.mark.parametrize("case", sorted(FLAT_CASES))
def test_flat_integrand_equals_nested_lambda_reference(case, alpha):
    # The Gauss-Jacobi / Gauss-Kronrod oracle agrees with QUADPACK on the
    # integrands QUADPACK was pinned on, to QUADPACK's tolerance.
    compute, reference = FLAT_CASES[case]
    want = reference(alpha)
    assert abs(compute(Order(alpha)) - want) <= 1e-11 * max(1.0, abs(want))


def _node_loop(weights, g):
    # The per-node sum the oracle's rules once ran: 0.0 + p_0 + p_1 + ...
    total = np.zeros(len(weights))
    for j in range(weights.shape[1]):
        total = total + weights[:, j] * g[:, j]
    return total


def test_node_sum_equals_the_per_node_loop_bit_for_bit():
    rng = np.random.default_rng(15)
    weights = rng.uniform(0.0, 1.0, (200, 21))
    g = rng.standard_normal((200, 21))
    g[150:] *= 10.0 ** rng.integers(-300, 300, (50, 21))
    # All products -0.0 (the loop's sum is +0.0), and rows mixing -0.0,
    # +0.0 and terms that cancel exactly.
    g[:20] = -0.0
    g[20:40, ::2] = -0.0
    g[40:60] = np.where(rng.uniform(size=(20, 21)) < 0.5, 0.0, -0.0)
    g[60:80] = np.tile([1.0, -1.0, 3.5, -3.5, 0.0, -0.0, 2.0 ** -1074], (20, 3))
    weights[60:80] = 1.0
    g[80:100] *= np.sign(rng.standard_normal((20, 21)))
    want = _node_loop(weights, g)
    got = quadrature._node_sum(weights * g)
    assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))
    assert repr(want.tolist()[0]) == "0.0"
