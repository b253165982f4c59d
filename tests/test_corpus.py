"""Piecewise-linear corpus: constants, generation, exact integrals, serialization."""

import math

import numpy as np
import pytest

from fracbound.corpus import (LipschitzWitness, PiecewiseLinearFunction, WitnessArrays,
                              exact_rl_left, exact_rl_mid, exact_rl_right, from_text,
                              lipschitz_constant, random_lipschitz, tent, to_text)
from fracbound.quadrature import (DomainError, Interval, Order, abs_moment_quadrature,
                                  gamma_fn, rl_left, rl_mid, rl_right)

ITV = Interval(0.0, 1.0)
SQRT2_3 = math.sqrt(2.0) / 3.0


# ----------------------------------------------------------------------
# construction and evaluation
# ----------------------------------------------------------------------

def test_validation():
    with pytest.raises(DomainError):
        PiecewiseLinearFunction((0.0,), (1.0,))
    with pytest.raises(DomainError):
        PiecewiseLinearFunction((0.0, 0.0, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        PiecewiseLinearFunction((0.0, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        PiecewiseLinearFunction((0.0, math.nan), (1.0, 2.0))


def test_evaluation_interpolates_and_clamps():
    f = PiecewiseLinearFunction((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
    assert f(0.25) == pytest.approx(0.5)
    assert f(0.5) == 1.0
    assert f(-0.1) == 0.0
    assert f(1.1) == 0.0


def test_evaluation_on_a_wide_interval_stays_finite():
    # rise * run overflows binary64 here although the interpolated value is
    # of the order of the node values; scalar and batched evaluation agree.
    f = PiecewiseLinearFunction((1.0, 1e223, 2.783936096400912e+223),
                                (-1.5e223, 4.0e223, -3.0e223))
    points = [1.0, 5e222, 1e223, 2e223, 2.7e223, 2.783936096400912e+223]
    values = [f(t) for t in points]
    assert all(math.isfinite(v) for v in values)
    assert values[1] == pytest.approx(-1.5e223 + 5.5e223 * ((5e222 - 1.0) / (1e223 - 1.0)))
    assert values[3] == pytest.approx(4.0e223 - 7.0e223 * (1e223 / 1.783936096400912e223))
    batch = WitnessArrays.repeat(LipschitzWitness(f, lipschitz_constant(f)), 1)
    assert batch(np.array([points])).tolist() == [values]


@pytest.mark.parametrize("bps, vals, want", [
    ((0.0, 1.0), (3.0, 3.0), 0.0),
    ((0.0, 0.5, 1.0), (0.5, 0.0, 0.5), 1.0),
    ((0.0, 0.25, 1.0), (0.0, 1.0, 0.5), 4.0),
])
def test_lipschitz_constant(bps, vals, want):
    assert lipschitz_constant(PiecewiseLinearFunction(bps, vals)) == pytest.approx(want)


def test_lipschitz_constant_invariances():
    f = random_lipschitz(12, ITV).function
    m = lipschitz_constant(f)
    shifted = PiecewiseLinearFunction(f.breakpoints, tuple(v + 17.0 for v in f.values))
    assert lipschitz_constant(shifted) == pytest.approx(m, rel=1e-12)
    a, b = f.a, f.b
    reflected = PiecewiseLinearFunction(
        tuple(a + b - t for t in reversed(f.breakpoints)), tuple(reversed(f.values)))
    assert lipschitz_constant(reflected) == pytest.approx(m, rel=1e-12)


def test_tent():
    f = tent(ITV, 0.5)
    assert f(0.5) == 0.0
    assert f(0.0) == 0.5
    assert lipschitz_constant(f) == 1.0
    edge = tent(ITV, 0.0)
    assert edge(1.0) == 1.0
    with pytest.raises(DomainError):
        tent(ITV, 2.0)


# ----------------------------------------------------------------------
# random generation
# ----------------------------------------------------------------------

def test_random_lipschitz_deterministic():
    w1 = random_lipschitz(424242, ITV)
    w2 = random_lipschitz(424242, ITV)
    assert w1.function.breakpoints == w2.function.breakpoints
    assert w1.function.values == w2.function.values
    assert w1.constant == w2.constant
    w3 = random_lipschitz(424243, ITV)
    assert w3.function.values != w1.function.values


def test_random_lipschitz_degenerate_params():
    w = random_lipschitz(5, ITV, segments=1)
    assert len(w.function.breakpoints) == 2
    assert w.constant == pytest.approx(abs(w.function.slopes[0]))
    flat = random_lipschitz(5, ITV, m_max=0.0)
    assert flat.constant == 0.0
    assert len(set(flat.function.values)) == 1
    with pytest.raises(DomainError):
        random_lipschitz(5, ITV, segments=0)


@pytest.mark.parametrize("seed", [0, 1, 99, 2 ** 62])
def test_witness_inequality_dense_grid(seed):
    w = random_lipschitz(seed, ITV)
    f, m = w.function, w.constant
    rng = np.random.default_rng(123)
    pts = rng.uniform(ITV.a, ITV.b, (1000, 2))
    violations = 0
    for u, v in pts:
        if abs(f(u) - f(v)) > m * abs(u - v) + 1e-12:
            violations += 1
    assert violations == 0


def test_witness_constant_is_sharp():
    w = random_lipschitz(77, ITV)
    assert w.constant == max(abs(s) for s in w.function.slopes)


# ----------------------------------------------------------------------
# exact fractional integrals
# ----------------------------------------------------------------------

def test_exact_rl_left_values():
    const = PiecewiseLinearFunction((0.0, 1.0), (1.0, 1.0))
    assert exact_rl_left(const, Order(0.5), 1.0) == pytest.approx(
        2.0 / gamma_fn(0.5), rel=1e-13)
    ident = PiecewiseLinearFunction((0.0, 1.0), (0.0, 1.0))
    assert exact_rl_left(ident, Order(1.0), 1.0) == pytest.approx(0.5, rel=1e-13)
    f = tent(ITV, 0.5)
    assert exact_rl_left(f, Order(0.5), 0.5) == pytest.approx(
        SQRT2_3 / gamma_fn(0.5), rel=1e-13)
    with pytest.raises(DomainError):
        exact_rl_left(f, Order(0.5), 1.5)


def test_exact_rl_right_values():
    const = PiecewiseLinearFunction((0.0, 1.0), (4.0, 4.0))
    assert exact_rl_right(const, Order(0.5), 0.25) == pytest.approx(
        4.0 * 0.75 ** 0.5 / gamma_fn(1.5), rel=1e-13)
    f = tent(ITV, 0.5)
    assert exact_rl_right(f, Order(0.5), 0.5) == pytest.approx(
        SQRT2_3 / gamma_fn(0.5), rel=1e-13)


def test_exact_rl_mid_values():
    f = tent(ITV, 0.5)
    assert exact_rl_mid(f, 0.3, 0.3, Order(0.5)) == 0.0
    const = PiecewiseLinearFunction((0.0, 1.0), (2.0, 2.0))
    assert exact_rl_mid(const, 0.25, 0.75, Order(0.5)) == pytest.approx(
        2.0 * 0.5 ** 0.5 / gamma_fn(1.5), rel=1e-13)
    with pytest.raises(DomainError):
        exact_rl_mid(f, 0.6, 0.4, Order(1.0))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("seed", [4, 8, 15, 16])
def test_exact_vs_quadrature(alpha, seed):
    w = random_lipschitz(seed, ITV)
    f = w.function
    order = Order(alpha)
    for upper in (0.2, 0.6, 1.0):
        exact = exact_rl_left(f, order, upper)
        quad = rl_left(f, ITV, order, upper, kinks=f.breakpoints)
        assert abs(exact - quad) <= max(1e-10, 1e-8 * abs(exact))
    for lower in (0.0, 0.45, 0.9):
        exact = exact_rl_right(f, order, lower)
        quad = rl_right(f, ITV, order, lower, kinks=f.breakpoints)
        assert abs(exact - quad) <= max(1e-10, 1e-8 * abs(exact))
    exact = exact_rl_mid(f, 0.15, 0.8, order)
    quad = rl_mid(f, 0.15, 0.8, order, kinks=f.breakpoints)
    assert abs(exact - quad) <= max(1e-10, 1e-8 * abs(exact))


def test_exact_reflection_symmetry():
    w = random_lipschitz(42, ITV)
    f = w.function
    a, b = f.a, f.b
    reflected = PiecewiseLinearFunction(
        tuple(a + b - t for t in reversed(f.breakpoints)), tuple(reversed(f.values)))
    for alpha in (0.5, 1.5):
        for u in (0.3, 0.7):
            lhs = exact_rl_right(f, Order(alpha), a + b - u)
            rhs = exact_rl_left(reflected, Order(alpha), u)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_exact_mid_equals_right_on_subinterval():
    # the panel integral with v2 = b coincides with the right integral
    w = random_lipschitz(51, ITV)
    f = w.function
    for alpha in (0.5, 2.0):
        assert exact_rl_mid(f, 0.35, 1.0, Order(alpha)) == pytest.approx(
            exact_rl_right(f, Order(alpha), 0.35), rel=1e-13)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_text_round_trip():
    w = random_lipschitz(1234, Interval(-2.0, 3.0))
    f = w.function
    g = from_text(to_text(f))
    assert g.breakpoints == f.breakpoints
    assert g.values == f.values


def test_from_text_rejects_garbage():
    with pytest.raises(DomainError):
        from_text("0.0 1.0 2.0\n")
    with pytest.raises(DomainError):
        from_text("# only a comment\n")


def test_witness_validation():
    f = tent(ITV, 0.5)
    with pytest.raises(DomainError):
        LipschitzWitness(f, -1.0)
