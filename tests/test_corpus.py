"""Piecewise-linear corpus: constants, generation, exact integrals, serialization."""

import math

import numpy as np
import pytest

from fracbound import corpus
from fracbound.corpus import (LipschitzWitness, PiecewiseLinearFunction, WitnessArrays,
                              exact_rl_left, exact_rl_mid, exact_rl_right, from_text,
                              lipschitz_constant, random_lipschitz, random_lipschitz_arrays,
                              streams, tent, to_text)
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
    # An array argument is evaluated entrywise, through the batched path.
    assert f(np.array([points, points[::-1]])).tolist() == [values, values[::-1]]


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

def reference_stream(seed, key=None):
    """The stream :func:`fracbound.corpus.streams` computes in arrays, built
    by numpy one SeedSequence and PCG64 at a time."""
    seq = np.random.SeedSequence(seed, spawn_key=() if key is None else (key,))
    return np.random.Generator(np.random.PCG64(seq))


def reference_streams(entropy, spawn_keys=None):
    keys = [None] * len(entropy) if spawn_keys is None else spawn_keys
    for seed, key in zip(entropy, keys):
        yield reference_stream(seed, key)


STREAM_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64)
SPAWN_KEYS = (0, 1, 999, 2 ** 16, 10 ** 5 - 1)


def assert_states_match(entropy, spawn_keys):
    # A numpy that changes SeedSequence or PCG64 seeding fails here.
    states = corpus._seed_states(entropy, spawn_keys)
    keys = [None] * len(entropy) if spawn_keys is None else spawn_keys
    for state, seed, key in zip(states, entropy, keys):
        seq = np.random.SeedSequence(seed, spawn_key=() if key is None else (key,))
        assert state.tolist() == seq.generate_state(4, np.uint64).tolist(), (seed, key)
        assert corpus._pcg64_state(state.tolist()) == np.random.PCG64(seq).state, (seed, key)


def test_seed_states_equal_numpy_on_every_seed_and_key():
    entropy = [seed for seed in STREAM_SEEDS for _ in SPAWN_KEYS]
    assert_states_match(entropy, list(SPAWN_KEYS) * len(STREAM_SEEDS))
    assert_states_match(list(STREAM_SEEDS), None)


def test_seed_states_equal_numpy_on_every_trial_at_seed_3():
    assert_states_match([3] * 2000, list(range(2000)))


def test_seed_states_equal_numpy_on_wide_seeds_and_keys():
    # Seeds of more words than the pool, and keys of more than one word.
    wide = (2 ** 100 + 7, 2 ** 128 - 1, 2 ** 128, 2 ** 200 + 5)
    assert_states_match(list(wide) * 2, [2 ** 32, 2 ** 40 + 3, 0, 7] * 2)
    assert_states_match(list(wide), None)


def draws(rng):
    # The draws of a verify-bullen trial, then a few more of other kinds.
    return (int(rng.integers(0, 2 ** 63)), rng.dirichlet((1.0,) * 3).tolist(),
            rng.uniform(0.0, 1.0, 3).tolist(), float(rng.uniform()),
            rng.standard_normal(2).tolist())


@pytest.mark.parametrize("seed", STREAM_SEEDS + (2 ** 100 + 7,))
def test_streams_draw_as_numpy_at_every_run_seed(seed):
    keys = list(SPAWN_KEYS) + list(range(20))
    got = [draws(rng) for rng in streams([seed] * len(keys), keys)]
    assert got == [draws(reference_stream(seed, key)) for key in keys]


# Witness seeds as the sweeps draw them: 63-bit, most of two words, a few
# of one, in no order.
WITNESS_SEEDS = [5, 2 ** 63 - 1, 0, 2 ** 32, 12345, 2 ** 32 - 1, 7_000_000_000_000_000_000, 1,
                 2 ** 40 + 9, 3]


def test_streams_without_keys_draw_as_numpy_in_order():
    got = [draws(rng) for rng in streams(WITNESS_SEEDS)]
    assert got == [draws(reference_stream(seed)) for seed in WITNESS_SEEDS]


def test_streams_reject_negative_seeds_and_unpaired_keys():
    with pytest.raises(ValueError):
        list(streams([1, -1]))
    with pytest.raises(ValueError):
        list(streams([1], [-2]))
    with pytest.raises(ValueError):
        list(streams([1, 2], [0]))


def as_tuples(witness):
    return witness.function.breakpoints, witness.function.values, witness.constant


@pytest.mark.parametrize("interval, segments", [
    (ITV, 6),
    # 5 floats inside: many draws repeat a breakpoint or hit an end, and
    # each such draw is redrawn on the same stream.
    (Interval(1.0, 1.0 + 6 * 2.0 ** -52), 3),
])
def test_random_lipschitz_draws_as_on_numpy_streams(interval, segments, monkeypatch):
    got = [as_tuples(random_lipschitz(seed, interval, segments)) for seed in WITNESS_SEEDS]
    rows = random_lipschitz_arrays(WITNESS_SEEDS, interval, segments)
    monkeypatch.setattr(corpus, "streams", reference_streams)
    assert got == [as_tuples(random_lipschitz(seed, interval, segments))
                   for seed in WITNESS_SEEDS]
    assert [as_tuples(rows.witness(i)) for i in range(len(WITNESS_SEEDS))] == got


def test_the_narrow_interval_redraws_breakpoints():
    # The case above does redraw: a seed whose first draw repeats a breakpoint.
    a, b = 1.0, 1.0 + 6 * 2.0 ** -52
    first = [np.sort(reference_stream(seed).uniform(a, b, 2)) for seed in WITNESS_SEEDS]
    assert any(not (row[1:] > row[:-1]).all() for row in first)


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
