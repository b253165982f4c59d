"""Piecewise-linear Lipschitz test functions with exact fractional integrals.

Piecewise-linear functions are the test corpus because they make both
sides of every check computable without quadrature:

  * the sharp Lipschitz constant is max |segment slope|, exactly;
  * against a power kernel, each segment f(t) = c + d*(t - anchor)
    integrates termwise by the power rule, so the fractional integrals
    close in a handful of power evaluations.

That separates formula bugs from quadrature error: the closed forms here
are the oracle the adaptive integrator is compared to, and vice versa.

Random generation is deterministic per seed (numpy PCG64 seeded through
SeedSequence) with no global state.  :func:`streams` starts many such
streams at once: it computes every stream's SeedSequence state in one pass
of uint32 array arithmetic, and PCG64's seeding step in Python ints, then
sets each state on one reused bit generator.  Each stream equals
``Generator(PCG64(SeedSequence(entropy, spawn_key=(key,))))`` bit for bit;
``tests/test_corpus.py`` holds the states and draws to numpy's.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .quadrature import DomainError, Interval, Order, gamma_fn, per_order, power_array

__all__ = [
    "LipschitzWitness",
    "MAX_BREAKPOINT_DRAWS",
    "PiecewiseLinearFunction",
    "WitnessArrays",
    "exact_rl_left",
    "exact_rl_mid",
    "exact_rl_panels",
    "exact_rl_right",
    "from_text",
    "lipschitz_constant",
    "random_lipschitz",
    "random_lipschitz_arrays",
    "streams",
    "tent",
    "to_text",
]


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Continuous piecewise-linear function given by breakpoints and values.

    Breakpoints are strictly increasing and span the domain; evaluation
    between breakpoints is linear interpolation.  Evaluation clamps the
    argument to [a, b] so that quadrature nodes perturbed past an endpoint
    by one rounding step stay legal.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) < 2:
            raise DomainError("need at least 2 breakpoints")
        if len(bps) != len(vals):
            raise DomainError(f"{len(bps)} breakpoints vs {len(vals)} values")
        if not all(math.isfinite(t) for t in bps) or not all(math.isfinite(v) for v in vals):
            raise DomainError("breakpoints and values must be finite")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise DomainError("breakpoints must be strictly increasing")

    @property
    def a(self) -> float:
        return self.breakpoints[0]

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    @property
    def slopes(self) -> tuple:
        bps, vals = self.breakpoints, self.values
        return tuple((vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i]) for i in range(len(bps) - 1))

    def __call__(self, t):
        """f(t) for a float t; for an array, f at each entry, evaluated
        through a one-row :class:`WitnessArrays` with the same arithmetic."""
        if isinstance(t, np.ndarray):
            one = WitnessArrays.repeat(LipschitzWitness(self, lipschitz_constant(self)), 1)
            return one(t.reshape(1, -1)).reshape(t.shape)
        bps, vals = self.breakpoints, self.values
        if t <= bps[0]:
            return vals[0]
        if t >= bps[-1]:
            return vals[-1]
        i = bisect_right(bps, t) - 1
        rise, run = vals[i + 1] - vals[i], t - bps[i]
        step = rise * run
        if not math.isfinite(step):
            # rise * run overflows on intervals wider than about 1e154;
            # dividing first keeps the value, at the cost of one rounding.
            return vals[i] + rise * (run / (bps[i + 1] - bps[i]))
        return vals[i] + step / (bps[i + 1] - bps[i])


@dataclass(frozen=True)
class LipschitzWitness:
    """A piecewise-linear function together with its sharp Lipschitz constant."""

    function: PiecewiseLinearFunction
    constant: float

    def __post_init__(self):
        if not (self.constant >= 0.0 and math.isfinite(self.constant)):
            raise DomainError(f"Lipschitz constant must be finite and >= 0, got {self.constant}")


def lipschitz_constant(f: PiecewiseLinearFunction) -> float:
    """Sharp Lipschitz constant: max absolute segment slope (0 if constant)."""
    return max(abs(s) for s in f.slopes)


def tent(interval: Interval, center: float) -> PiecewiseLinearFunction:
    """The function t -> |t - center| on the interval (Lipschitz constant 1).

    Tents centered on the evaluation node achieve equality in the
    coincident-node bound, which makes them the sharpness witnesses used
    throughout the tests.
    """
    a, b = interval.a, interval.b
    if not (a <= center <= b):
        raise DomainError(f"center {center} outside [{a}, {b}]")
    if center in (a, b):
        return PiecewiseLinearFunction((a, b), (abs(a - center), abs(b - center)))
    return PiecewiseLinearFunction((a, center, b), (center - a, 0.0, b - center))


# numpy's SeedSequence (after O'Neill's randutils seed_seq): a pool of 4
# uint32 words, hashed with these multipliers, and its output hash.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on columns of uint32 words.  Each call hashes
    with the next hash constant; the constants do not depend on the data,
    so every row of a column shares them."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _seed_words(values) -> tuple:
    """(word counts, values) of ints as SeedSequence takes them: uint32
    words, least significant first, and one word for 0."""
    values = [operator.index(v) for v in values]
    if any(v < 0 for v in values):
        raise ValueError("seeds and spawn keys must be nonnegative integers")
    return [max(1, -(-v.bit_length() // 32)) for v in values], values


def _word_columns(values: list, rows: list, n: int) -> list:
    """Words 0 to n - 1 of the given rows' values, one uint32 array each."""
    return [np.array([(values[i] >> (32 * j)) & _MASK32 for i in rows], dtype=np.uint32)
            for j in range(n)]


def _seed_states(entropy, spawn_keys=None) -> np.ndarray:
    """``SeedSequence(entropy[i], spawn_key=(spawn_keys[i],)).generate_state(4,
    np.uint64)`` of each i (no spawn key when ``spawn_keys`` is None), as an
    (n, 4) uint64 array.

    Rows are grouped by the word counts of their seed and key, and each
    group is hashed one column of words at a time.  The assembled entropy is
    the seed's words, zero-padded to the pool size when a key follows, then
    the key's words; an entropy shorter than the pool hashes as if
    zero-padded to it, so every row is.
    """
    counts, entropy = _seed_words(entropy)
    if spawn_keys is None:
        key_counts, keys = [0] * len(entropy), [0] * len(entropy)
    else:
        key_counts, keys = _seed_words(spawn_keys)
        if len(keys) != len(entropy):
            raise ValueError(f"{len(entropy)} seeds vs {len(keys)} spawn keys")
    groups: dict = {}
    for i, shape in enumerate(zip(counts, key_counts)):
        groups.setdefault(shape, []).append(i)
    states = np.empty((len(entropy), 4), dtype=np.uint64)
    for (count, key_count), rows in groups.items():
        assembled = (_word_columns(entropy, rows, count)
                     + [np.zeros(len(rows), dtype=np.uint32)] * max(0, _POOL_SIZE - count)
                     + _word_columns(keys, rows, key_count))
        # SeedSequence.mix_entropy: hash the first pool-size words into the
        # pool, mix every pool word into every other, then mix in the rest.
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in assembled[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in assembled[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # SeedSequence.generate_state: 8 uint32 words cycling over the pool,
        # read little-endian as 4 uint64 words.
        hashmix = _hasher(_INIT_B, _MULT_B)
        out = [hashmix(word).astype(np.uint64) for word in pool + pool]
        states[rows] = np.stack([lo | (hi << np.uint64(32))
                                 for lo, hi in zip(out[::2], out[1::2])], axis=1)
    return states


def _pcg64_state(state) -> dict:
    """The ``PCG64.state`` of a bit generator seeded with one
    :func:`_seed_states` row: pcg64_srandom_r in 128-bit arithmetic."""
    s0, s1, s2, s3 = state
    inc = ((((s2 << 64) | s3) << 1) | 1) & _MASK128
    seeded = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": seeded, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def streams(entropy, spawn_keys=None):
    """Yield one numpy Generator per seed, at the start of the stream
    ``Generator(PCG64(SeedSequence(entropy[i], spawn_key=(spawn_keys[i],))))``
    (no spawn key when ``spawn_keys`` is None), bit for bit.

    Every stream is the same Generator object, re-seeded when the next one
    is taken: draw from each before taking the next.
    """
    states = _seed_states(entropy, spawn_keys)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state in states.tolist():
        bit_generator.state = _pcg64_state(state)
        yield rng


# Draws of the interior breakpoints before a witness draw gives up.  Any
# interval wider than a few floats yields distinct breakpoints on the first
# draw; one that cannot hold segments - 1 distinct interior floats never
# would.
MAX_BREAKPOINT_DRAWS = 100


@dataclass(frozen=True, eq=False)
class WitnessArrays:
    """Piecewise-linear witnesses held row-wise in arrays.

    ``breakpoints`` and ``values`` have one row per witness and one column
    per breakpoint; ``constants`` holds each row's sharp Lipschitz
    constant.  Row i is the witness :meth:`witness` builds, and calling the
    batch evaluates every row at its own points with exactly the
    arithmetic of :meth:`PiecewiseLinearFunction.__call__`.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    constants: np.ndarray

    @classmethod
    def repeat(cls, witness: LipschitzWitness, n: int) -> "WitnessArrays":
        """n rows, each the given witness."""
        f = witness.function
        return cls(np.tile(f.breakpoints, (n, 1)), np.tile(f.values, (n, 1)),
                   np.full(n, witness.constant))

    def take(self, rows) -> "WitnessArrays":
        """The witnesses of the given rows, in that order."""
        return WitnessArrays(self.breakpoints[rows], self.values[rows], self.constants[rows])

    def witness(self, row: int) -> LipschitzWitness:
        f = PiecewiseLinearFunction(tuple(self.breakpoints[row].tolist()),
                                    tuple(self.values[row].tolist()))
        return LipschitzWitness(f, float(self.constants[row]))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Values at ``t`` of shape (rows, j): row i of ``t`` is evaluated on witness i."""
        bps, vals = self.breakpoints, self.values
        t = np.asarray(t, dtype=float)
        # bisect_right(bps, t) - 1, kept inside the segment range for the
        # clamped ends, which are selected separately below.
        seg = np.clip((bps[:, None, :] <= t[:, :, None]).sum(axis=2) - 1, 0, bps.shape[1] - 2)
        t0 = np.take_along_axis(bps, seg, axis=1)
        t1 = np.take_along_axis(bps, seg + 1, axis=1)
        v0 = np.take_along_axis(vals, seg, axis=1)
        v1 = np.take_along_axis(vals, seg + 1, axis=1)
        rise, run = v1 - v0, t - t0
        # The overflow fallback of PiecewiseLinearFunction.__call__; points
        # past the ends, whose values are discarded, may overflow either form.
        with np.errstate(over="ignore"):
            step = rise * run
            inner = v0 + np.where(np.isfinite(step), step / (t1 - t0),
                                  rise * (run / (t1 - t0)))
        return np.where(t <= bps[:, :1], vals[:, :1],
                        np.where(t >= bps[:, -1:], vals[:, -1:], inner))


def random_lipschitz_arrays(seeds, interval: Interval, segments: int = 6,
                            m_max: float = 2.0) -> WitnessArrays:
    """One :func:`random_lipschitz` witness per seed, held as arrays.

    Draws and arithmetic are those of :func:`random_lipschitz`, so row i
    equals ``random_lipschitz(seeds[i], ...)`` bit for bit.
    """
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    if m_max < 0.0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    a, b = interval.a, interval.b
    n = len(seeds)
    bps = np.empty((n, segments + 1))
    bps[:, 0], bps[:, -1] = a, b
    slopes = np.empty((n, segments))
    vals = np.empty((n, segments + 1))
    for i, rng in enumerate(streams(seeds)):
        row = bps[i]
        for _ in range(MAX_BREAKPOINT_DRAWS):
            row[1:-1] = np.sort(rng.uniform(a, b, segments - 1))
            if (row[1:] > row[:-1]).all():
                break
        else:
            raise DomainError(
                f"no {segments - 1} distinct interior breakpoints in "
                f"{MAX_BREAKPOINT_DRAWS} draws: interval [{a!r}, {b!r}] too narrow")
        slopes[i] = rng.uniform(-m_max, m_max, segments)
        vals[i, 0] = rng.uniform(-m_max, m_max)
    for j in range(segments):
        vals[:, j + 1] = vals[:, j] + slopes[:, j] * (bps[:, j + 1] - bps[:, j])
    constants = np.abs(np.diff(vals, axis=1) / np.diff(bps, axis=1)).max(axis=1)
    if not (np.isfinite(vals).all() and np.isfinite(constants).all()):
        raise DomainError("witness values and Lipschitz constants must be finite")
    return WitnessArrays(bps, vals, constants)


def random_lipschitz(seed: int, interval: Interval, segments: int = 6,
                     m_max: float = 2.0) -> LipschitzWitness:
    """Deterministic random witness: `segments` linear pieces on the interval.

    Interior breakpoints are uniform draws (sorted, endpoints pinned; a
    draw with repeated breakpoints is redrawn, at most
    MAX_BREAKPOINT_DRAWS times before DomainError), slopes are uniform in
    [-m_max, m_max], and the starting value is uniform in [-m_max, m_max].
    The witness constant is computed sharply from the realized slopes, so
    it is exact rather than just m_max.  Identical seeds give bit-identical
    witnesses.
    """
    return random_lipschitz_arrays((seed,), interval, segments, m_max).witness(0)


def _clipped_segments(f: PiecewiseLinearFunction, lo: float, hi: float):
    """Yield (t0, t1, f(t0), slope) for each segment piece inside [lo, hi]."""
    bps, vals = f.breakpoints, f.values
    for i in range(len(bps) - 1):
        t0, t1 = bps[i], bps[i + 1]
        s0, s1 = max(t0, lo), min(t1, hi)
        if s1 <= s0:
            continue
        slope = (vals[i + 1] - vals[i]) / (t1 - t0)
        yield s0, s1, vals[i] + slope * (s0 - t0), slope


def _anchored_integral(f: PiecewiseLinearFunction, lo: float, hi: float, anchor: float,
                       sign: float, order: Order) -> float:
    """(1/Gamma(a)) int_lo^hi P^(a-1) f dt for the kernel distance
    P = sign*(t - anchor), anchored at lo (sign 1) or at hi (sign -1): on each
    piece f = c + d*P with d = sign*slope, and the power rule integrates both
    terms.  Negation is exact, so both anchors round alike."""
    alpha = order.alpha
    total = 0.0
    for t0, t1, v0, slope in _clipped_segments(f, lo, hi):
        d0, d1 = sign * (t0 - anchor), sign * (t1 - anchor)
        near, far = (d0, d1) if sign > 0 else (d1, d0)
        rate = sign * slope
        c = v0 - rate * d0
        total += c * (far ** alpha - near ** alpha) / alpha
        total += rate * (far ** (alpha + 1.0) - near ** (alpha + 1.0)) / (alpha + 1.0)
    return total / gamma_fn(alpha)


def exact_rl_left(f: PiecewiseLinearFunction, order: Order, upper: float) -> float:
    """Closed-form left fractional integral (1/Gamma(a)) int_a^upper (t-a)^(a-1) f dt."""
    if not (f.a <= upper <= f.b):
        raise DomainError(f"upper={upper} outside [{f.a}, {f.b}]")
    return _anchored_integral(f, f.a, upper, f.a, 1.0, order)


def exact_rl_right(f: PiecewiseLinearFunction, order: Order, lower: float) -> float:
    """(1/Gamma(a)) int_lower^b (b-t)^(a-1) f dt: the last panel of :func:`exact_rl_mid`."""
    return exact_rl_mid(f, lower, f.b, order)


def exact_rl_mid(f: PiecewiseLinearFunction, v1: float, v2: float, order: Order) -> float:
    """Closed-form panel integral (1/Gamma(a)) int_v1^v2 (v2-t)^(a-1) f dt,
    the kernel anchored at v2.  Returns 0 when v1 == v2.
    """
    if v1 > v2:
        raise DomainError(f"need v1 <= v2, got v1={v1}, v2={v2}")
    if not (f.a <= v1 and v2 <= f.b):
        raise DomainError(f"[{v1}, {v2}] outside [{f.a}, {f.b}]")
    return _anchored_integral(f, v1, v2, v2, -1.0, order)


def _offset_powers(dist: np.ndarray, width: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """power_array(dist, exponent) for kernel offsets 0 <= dist <= width.

    Breakpoints clipped to a panel pile up on its edges, at offsets 0 and
    width; the power of the width is taken once per row and only the
    offsets strictly inside are powered one by one.
    """
    exponent = np.broadcast_to(exponent, dist.shape)
    inside = (dist > 0.0) & (dist < width)
    out = np.where(dist > 0.0, power_array(width[:, 0], exponent[:, 0])[:, None], 0.0)
    out[inside] = power_array(dist[inside], exponent[inside])
    return out


def exact_rl_panels(witnesses: WitnessArrays, edges: np.ndarray,
                    alpha: np.ndarray) -> np.ndarray:
    """Closed-form panel integrals of k-panel configurations, one row each.

    Row i integrates witness i at order alpha[i] over the panels cut at
    edges[i] = (a, e_1, ..., e_{k-1}, b).  Column 0 is the left-kernel
    panel, ``exact_rl_left(f, order, e_1)``; column p >= 1 is the
    right-kernel panel anchored at its own right edge,
    ``exact_rl_mid(f, e_p, e_{p+1}, order)``.  The power rule runs segment by
    segment in the order and with the operations of those functions, up to
    exact negations, so every value equals theirs bit for bit; a segment
    piece that misses the panel adds nothing.
    """
    bps, vals = witnesses.breakpoints, witnesses.values
    alpha = np.asarray(alpha, dtype=float)
    alpha_col, alpha1_col = alpha[:, None], alpha[:, None] + 1.0
    gammas = per_order(gamma_fn, alpha)
    slope = (vals[:, 1:] - vals[:, :-1]) / (bps[:, 1:] - bps[:, :-1])
    panels = np.empty((len(alpha), edges.shape[1] - 1))
    for p in range(panels.shape[1]):
        lo, hi = edges[:, p:p + 1], edges[:, p + 1:p + 2]
        # Breakpoints clipped to the panel: segment j covers [u_j, u_{j+1}]
        # of it, and is empty unless u_{j+1} > u_j.
        u = np.minimum(np.maximum(bps, lo), hi)
        s0 = u[:, :-1]
        v_lo = vals[:, :-1] + slope * (s0 - bps[:, :-1])
        # Distance from the kernel anchor and the slope along it: a on the
        # left panel, the right edge, walking back, on every other one.
        # Segment j runs from u_j to u_{j+1}; "far" is its end further
        # from the anchor.  Negation is exact, so each value keeps the
        # bits of exact_rl_left / exact_rl_mid.
        if p == 0:
            dist, rate, far, near = u - lo, slope, np.s_[:, 1:], np.s_[:, :-1]
        else:
            dist, rate, far, near = hi - u, -slope, np.s_[:, :-1], np.s_[:, 1:]
        c = v_lo - rate * dist[:, :-1]
        pa = _offset_powers(dist, hi - lo, alpha_col)
        pb = _offset_powers(dist, hi - lo, alpha1_col)
        first = c * (pa[far] - pa[near]) / alpha_col
        second = rate * (pb[far] - pb[near]) / alpha1_col
        live = u[:, 1:] > s0
        total = np.zeros(len(alpha))
        for j in range(slope.shape[1]):
            total = total + np.where(live[:, j], first[:, j], 0.0)
            total = total + np.where(live[:, j], second[:, j], 0.0)
        panels[:, p] = total / gammas
    return panels


def to_text(f: PiecewiseLinearFunction) -> str:
    """Serialize as two whitespace-separated columns: breakpoint, value."""
    lines = ["# fracbound piecewise-linear witness: breakpoint value"]
    for t, v in zip(f.breakpoints, f.values):
        lines.append("%.17g %.17g" % (t, v))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> PiecewiseLinearFunction:
    """Parse the two-column text format written by :func:`to_text`."""
    bps, vals = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DomainError(f"expected 'breakpoint value', got {raw!r}")
        bps.append(float(parts[0]))
        vals.append(float(parts[1]))
    return PiecewiseLinearFunction(tuple(bps), tuple(vals))
