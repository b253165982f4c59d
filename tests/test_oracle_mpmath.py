"""The quadrature oracle against 40-digit references, at every order range.

Each reference integrates the same piecewise-linear integrand exactly: on
every linear piece c + d*u of g, the power rule

    int_p^q u^(alpha-1) (c + d*u) du = c (q^a - p^a)/a + d (q^(a+1) - p^(a+1))/(a+1)

is evaluated in 40-digit mpmath arithmetic from the float data of the
case.  An oracle value passes when it lies within 1e-10 * max(1, |ref|)
of its reference; an oracle that gives up must say so with
QuadratureToleranceError.  A silent miss fails.
"""

import mpmath
import pytest

from fracbound.cli import main
from fracbound.corpus import random_lipschitz
from fracbound.quadrature import (Interval, Order, QuadratureToleranceError,
                                  abs_moment_quadrature, rl_left, rl_mid)

ORDERS = (1e-6, 2e-6, 1e-4, 1e-3, 0.25, 1.0, 3.5, 30.0, 170.0)
PASS_RTOL = 1e-10
DIGITS = 40


def _power_rule(alpha, pieces):
    """40-digit int u^(alpha-1) g(u) du over pieces (p, q, g(p), g(q)), g linear on each."""
    a = mpmath.mpf(alpha)
    total = mpmath.mpf(0)
    for p, q, gp, gq in pieces:
        p, q, gp, gq = map(mpmath.mpf, (p, q, gp, gq))
        d = (gq - gp) / (q - p)
        c = gp - d * p
        total += c * (q ** a - p ** a) / a + d * (q ** (a + 1) - p ** (a + 1)) / (a + 1)
    return total


def _pieces(g, width, kinks):
    """(p, q, g(p), g(q)) of the linear pieces of g on [0, width], cut at kinks."""
    cuts = sorted({mpmath.mpf(0), mpmath.mpf(width)}
                  | {mpmath.mpf(k) for k in kinks if 0.0 < k < width})
    return [(p, q, g(p), g(q)) for p, q in zip(cuts[:-1], cuts[1:])]


def _check(compute, reference):
    try:
        got = compute()
    except QuadratureToleranceError:
        return
    assert abs(got - reference) <= PASS_RTOL * max(1, abs(reference)), (got, reference)


def _abs_moment_reference(x, lower, upper, side, alpha):
    x, lower, upper = map(mpmath.mpf, (x, lower, upper))
    if side == "left":
        g, kink = (lambda u: abs(x - lower - u)), x - lower
    else:
        g, kink = (lambda u: abs(x - upper + u)), upper - x
    return _power_rule(alpha, _pieces(g, upper - lower, (kink,)))


PANELS = ((0.0, 1.0), (-1.0, 2.0))


def _moment_nodes(lower, upper, side):
    width = upper - lower
    anchor = lower if side == "left" else upper
    inward = 1.0 if side == "left" else -1.0
    return {"anchor": anchor, "mid": (lower + upper) / 2.0,
            "near-anchor": anchor + inward * 1e-9 * width}


MOMENT_CASES = [(side, panel, where) for side in ("left", "right") for panel in PANELS
                for where in ("anchor", "mid", "near-anchor")]


@pytest.mark.parametrize("alpha", ORDERS)
@pytest.mark.parametrize("side, panel, where", MOMENT_CASES,
                         ids=["-".join(map(str, c)) for c in MOMENT_CASES])
def test_abs_moment_quadrature_matches_40_digits(side, panel, where, alpha):
    lower, upper = panel
    x = _moment_nodes(lower, upper, side)[where]
    with mpmath.workdps(DIGITS):
        want = _abs_moment_reference(x, lower, upper, side, alpha)
    _check(lambda: abs_moment_quadrature(x, lower, upper, side, Order(alpha)), want)


def _witness_g(f, origin, sign):
    """g(u) = f(origin + sign*u) in mpmath, from the witness's float data."""
    bps = [mpmath.mpf(t) for t in f.breakpoints]
    vals = [mpmath.mpf(v) for v in f.values]

    def g(u):
        t = mpmath.mpf(origin) + sign * u
        t = min(max(t, bps[0]), bps[-1])
        for i in range(len(bps) - 1):
            if t <= bps[i + 1]:
                return vals[i] + (vals[i + 1] - vals[i]) * (t - bps[i]) / (bps[i + 1] - bps[i])
        return vals[-1]

    return g


RL_CASES = [(seed, interval) for seed in (3, 17) for interval in ((0.0, 1.0), (-3.0, 5.0))]


@pytest.mark.parametrize("alpha", ORDERS)
@pytest.mark.parametrize("seed, interval", RL_CASES, ids=[f"{s}-{i}" for s, i in RL_CASES])
def test_rl_left_and_rl_mid_match_40_digits(seed, interval, alpha):
    itv = Interval(*interval)
    f = random_lipschitz(seed, itv).function
    order = Order(alpha)
    a, width = itv.a, itv.width
    upper = a + 0.85 * width
    v1, v2 = a + 0.2 * width, a + 0.7 * width
    with mpmath.workdps(DIGITS):
        gamma = mpmath.gamma(mpmath.mpf(alpha))
        bps = [mpmath.mpf(k) for k in f.breakpoints]
        want_left = _power_rule(alpha, _pieces(_witness_g(f, a, 1), upper - mpmath.mpf(a),
                                               [k - a for k in bps])) / gamma
        want_mid = _power_rule(alpha, _pieces(_witness_g(f, v2, -1),
                                              mpmath.mpf(v2) - v1, [v2 - k for k in bps])) / gamma
    _check(lambda: rl_left(f, itv, order, upper, kinks=f.breakpoints), want_left)
    _check(lambda: rl_mid(f, v1, v2, order, kinks=f.breakpoints), want_mid)


def test_check_identities_at_order_2e_6_exits_0(tmp_path):
    # The oracle once missed these moments by up to 2e-3 relative while
    # reporting convergence: 1380 residual breaches.
    out = tmp_path / "identities.json"
    assert main(["check-identities", "--alpha", "2e-6", "--out", str(out)]) == 0
