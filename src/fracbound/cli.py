"""Command-line harness: deterministic sweeps, identity checks, corollary audit.

Subcommands
-----------
verify-hadamard   random-witness soundness sweep of the two-node inequality
verify-bullen     same for the three-node inequality
check-identities  closed-form panel moments vs the quadrature oracle
audit-corollaries shortcut coefficients vs the assembled oracle bound
sweep             gap/bound/ratio table over a parameter grid

Evaluation: verify-hadamard, verify-bullen and sweep evaluate all their
records in one batched pass over the k-panel form (k = 2 and k = 3
panels; :class:`fracbound.bounds.PanelConfigs`,
:func:`fracbound.engine.panel_gap` and ``panel_bound``), and
audit-corollaries evaluates each order in one such pass.  The verify
commands draw every trial first and make one record per (trial x alpha);
sweep makes one per (alpha x grid point), all on one witness; the audit
tries each instance of an order on the same three witnesses, drawn once
per run, and keeps the worst.  Gap, bound, ratio and verdict equal those
of the scalar functions (``config_gap``, ``hadamard_bound``,
``bullen_bound``, ``verify``) bit for bit, and the pass runs the same
checks: config weights and node order,
the literal-vs-assembled guard, a nonnegative bound total and a
nonnegative gap and bound.  Every fractional power is libm ``pow``,
applied element by element: Python's float ``**`` in the evaluator
(:func:`fracbound.quadrature.power_array`) and ``np.float_power`` in the
oracle's rules, never ``np.power``, whose SIMD loops differ from libm in
the last bit on a few percent of arguments and would change report
bytes.  The scalar functions remain the reference the tests hold the
batched pass to.

Quadrature oracle: the records of every tenth verify trial are
re-evaluated by quadrature, every panel of every such record in one call
of the batched Gauss-Jacobi / Gauss-Kronrod integrator
(:func:`fracbound.engine.panel_quadrature_gap`, equal bit for bit to
``config_gap`` with method "quadrature" on each record's row).
check-identities draws its samples once per run (a sample's stream does
not depend on the order), computes their closed panel moments at every
order in one :func:`fracbound.bounds.abs_moments_closed` pass, and checks
each order's in one :func:`fracbound.quadrature.abs_moments` call; its
continuity probes run through one ``PanelConfigs`` and ``v_panels`` pass
per node count.  Both commands judge residuals by one rule
(:func:`_oracle_residuals`): a check whose quadrature does not converge is
a breach, and stderr names the number of such checks and the aggregate
key that counts them.  The oracle is numpy only; QUADPACK serves as the
reference in the test suite alone.

Fixed parameters: witness slopes are bounded by M_MAX, the sweep grids
are SWEEP_LAMBDAS, SWEEP_DELTAS and SWEEP_ETAS, and check-identities
draws enough samples per ordering case for at least 500 in all.

Determinism: every random draw comes from numpy PCG64 seeded through
SeedSequence(entropy=seed, spawn_key=(trial,)), one splittable stream per
trial, so trial order and concurrency cannot change the draws.  The
streams of a run start together in :func:`fracbound.corpus.streams`,
which computes every SeedSequence state as uint32 array arithmetic and
PCG64's seeding step in Python ints, then sets each state on one reused
bit generator; numpy's Generator makes every draw.  tests/test_corpus.py
holds those states to numpy's SeedSequence and PCG64, and
tests/test_cli.py holds each command's report to the one drawn from
streams built by numpy one at a time.  Reports
serialize with fixed key order and round-trip-exact float text; identical
run configurations produce byte-identical files.  Wall-clock duration is
echoed to stderr only, never into the report bytes.

Records: a report holds its records as row blocks (:class:`RowBlock`),
runs of consecutive records that share one key set, each a key tuple in
the report's column order and a list of row tuples.  The verify commands,
sweep and check-identities build the tuples from their result columns;
the audit groups its finding dicts with :func:`row_blocks`.  The CSV
writer writes each block by one row template (a "%.17g" or "%s" field
per present column, an empty one per absent column) in one % operation
over its rows; the text of every field is that of :func:`_f17`, which
still writes the header, aggregate and erratum lines.  The JSON writer
expands the blocks to dicts (``VerificationReport.records``).

Exit codes: 0 all checks pass, 1 a violation or an oracle residual
breach in any command (audit-corollaries records shortcut mismatches as
ledger data, never as violations), 2 I/O or configuration error
(including an interval too narrow for a witness and an order at which a
power of the interval width overflows or underflows binary64).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import chain, cycle, groupby, repeat
from typing import NamedTuple

import numpy as np

from . import __version__, bounds, corpus, engine
from .quadrature import DomainError, Interval, Order, abs_moments, gamma_fn

__all__ = [
    "RowBlock",
    "RunConfig",
    "VerificationReport",
    "cmd_audit_corollaries",
    "cmd_check_identities",
    "cmd_sweep",
    "cmd_verify_bullen",
    "cmd_verify_hadamard",
    "main",
    "row_blocks",
]

SCHEMA_VERSION = 1
RESIDUAL_LIMIT = 1e-8
CONTINUITY_LIMIT = 1e-6
# Every Nth trial is re-evaluated through the quadrature path to measure
# the oracle residual without letting quadrature dominate the runtime.
ORACLE_CHECK_STRIDE = 10
# Bound on the slopes of the random witnesses.
M_MAX = 2.0

SWEEP_LAMBDAS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
SWEEP_DELTAS = (0.5, 0.625, 0.75, 0.875, 1.0)
SWEEP_ETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class RunConfig:
    """Harness run parameters."""

    seed: int = 42
    trials: int = 1000
    alpha_grid: tuple = (0.5, 1.0, 1.5, 2.0)
    interval: Interval = field(default_factory=lambda: Interval(0.0, 1.0))
    output_path: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not self.alpha_grid:
            raise DomainError("alpha_grid must be nonempty")
        for a in self.alpha_grid:
            Order(a)
        if self.fmt not in ("json", "csv"):
            raise DomainError(f"format must be 'json' or 'csv', got {self.fmt!r}")


def _f17(value) -> str:
    """Fixed float text: 17 significant digits, '.' decimal (round-trip exact)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


class RowBlock(NamedTuple):
    """A run of consecutive report records that share one key set: the keys
    in the report's column order and one tuple of values per record."""

    keys: tuple
    rows: list


def row_blocks(columns: tuple, records) -> list:
    """The row blocks of records given as dicts: one per run of consecutive
    records with one key set, each record's values in column order; keys
    outside ``columns`` are dropped."""
    blocks = []
    for _, group in groupby(records, key=dict.keys):
        group = list(group)
        keys = tuple(c for c in columns if c in group[0])
        blocks.append(RowBlock(keys, [tuple(map(r.__getitem__, keys)) for r in group]))
    return blocks


# A float column with a repeat among its first this many values (an order,
# a rounding-level residual) has each distinct value formatted once.
_CSV_SAMPLE = 64


def _csv_column(column: tuple):
    """(field format, values) of one CSV column of a row block, each field
    to read as :func:`_f17` writes it: "%.17g" over a column of floats,
    "%s" over one of str and int, and "%s" over the _f17 text of anything
    else (bools, None, numpy scalars, mixed columns) or of a repeating
    float column."""
    kinds = set(map(type, column))
    if kinds == {float}:
        head = column[:_CSV_SAMPLE]
        if len(set(head)) == len(head):
            return "%.17g", column
        text = {v: "%.17g" % v for v in set(column)}
        if 0.0 in text:
            # 0.0 and -0.0 share a key: zeros are formatted as they come.
            return "%s", [text[v] if v else "%.17g" % v for v in column]
        return "%s", list(map(text.__getitem__, column))
    if kinds <= {str, int}:
        return "%s", column
    return "%s", list(map(_f17, column))


def _csv_rows(columns: tuple, blocks: list) -> list:
    """The CSV text of the records, each field as :func:`_f17` writes it and
    empty for an absent key: each row block in one % operation over one
    row template, its fields those of :func:`_csv_column`."""
    text = []
    for keys, rows in blocks:
        formats, values = [], []
        for fmt, column in map(_csv_column, zip(*rows)):
            formats.append(fmt)
            values.append(column)
        fields = dict(zip(keys, formats))
        template = "\n".join([",".join(fields.get(c, "") for c in columns)] * len(rows))
        text.append(template % tuple(chain.from_iterable(zip(*values))))
    return text


# json.dumps(..., indent=1) puts this between the items of a record, which
# sits at depth 3 of a report (document, records list, record).
_RECORD_SEP = ",\n   "
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _dump_records(records: list) -> str:
    """The text json.dumps(doc, indent=1) gives a list of records at depth 1.

    The indent argument forces json's pure-Python encoder.  Flat records of
    scalars are written by the C encoder instead, with the record item
    separator, and the record boundaries are then re-indented; the C
    encoder writes numbers, strings and constants as the Python one does.
    A string cannot hold a raw line break, so "}" + separator + "{" occurs
    only between records.  Anything else falls back to json.dumps.
    """
    if not records:
        return "[]"
    kinds = set(map(type, chain.from_iterable(r.values() for r in records)))
    if not kinds <= _JSON_SCALARS or not all(records):
        return json.dumps(records, indent=1).replace("\n", "\n ")
    flat = json.dumps(records, separators=(_RECORD_SEP, ": "))
    body = flat[2:-2].replace("}" + _RECORD_SEP + "{", "\n  },\n  {\n   ")
    return "[\n  {\n   " + body + "\n  }\n ]"


def _dumps_indent1(doc: dict) -> str:
    """json.dumps(doc, indent=1) byte for byte, with the "records" list
    written through :func:`_dump_records`."""
    items = []
    for key, value in doc.items():
        if key == "records":
            text = _dump_records(value)
        else:
            text = json.dumps(value, indent=1).replace("\n", "\n ")
        items.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


@dataclass
class VerificationReport:
    """Harness output: run metadata, per-record results as row blocks
    (:class:`RowBlock`), aggregates, errata.

    ``duration_seconds`` and ``oracle_failures`` (oracle checks whose
    quadrature did not converge) are console diagnostics only and are
    excluded from the serialized bytes so reports stay byte-identical
    across runs.
    """

    command: str
    run: RunConfig
    columns: tuple
    blocks: list
    aggregate: dict
    errata: list
    duration_seconds: float = 0.0
    oracle_failures: int = 0

    @property
    def records(self) -> list:
        """The records as dicts, keys in column order: a copy, since the
        report holds them as row blocks."""
        return [dict(zip(keys, row)) for keys, rows in self.blocks for row in rows]

    @property
    def violations(self) -> int:
        return int(self.aggregate.get("violations", 0))

    def _header(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "fracbound",
            "tool_version": __version__,
            "command": self.command,
            "run": {
                "seed": self.run.seed,
                "trials": self.run.trials,
                "alpha_grid": list(self.run.alpha_grid),
                "interval": [self.run.interval.a, self.run.interval.b],
                "format": self.run.fmt,
                "m_max": M_MAX,
            },
        }

    def to_json_bytes(self) -> bytes:
        doc = self._header()
        doc["aggregate"] = self.aggregate
        doc["records"] = self.records
        doc["errata"] = self.errata
        return (_dumps_indent1(doc) + "\n").encode("utf-8")

    def to_csv_bytes(self) -> bytes:
        lines = []
        hdr = self._header()
        run = hdr["run"]
        lines.append(f"# schema_version={hdr['schema_version']}")
        lines.append(f"# tool=fracbound {__version__}")
        lines.append(f"# command={self.command}")
        lines.append("# seed=%d trials=%d alpha_grid=%s interval=%s,%s m_max=%s" % (
            run["seed"], run["trials"],
            ";".join(_f17(a) for a in run["alpha_grid"]),
            _f17(run["interval"][0]), _f17(run["interval"][1]), _f17(run["m_max"])))
        lines.append(",".join(self.columns))
        lines += _csv_rows(self.columns, self.blocks)
        for key in self.aggregate:
            lines.append(f"# aggregate {key}={_f17(self.aggregate[key])}")
        for ent in self.errata:
            params = ";".join(f"{k}={_f17(v)}" for k, v in ent["witness_params"].items())
            lines.append("# erratum %s deviation=%s %s" % (
                ent["formula_id"], _f17(ent["max_abs_deviation"]), params))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def to_bytes(self) -> bytes:
        return self.to_json_bytes() if self.run.fmt == "json" else self.to_csv_bytes()


def _oracle_residuals(closed, quad, converged):
    """(residuals, their maximum skipping NaN, breach count) of oracle
    checks.  The residual is |closed - quad| / max(1, |quad|), inf where the
    quadrature gave up with a non-finite estimate; a check breaches above
    RESIDUAL_LIMIT or when its quadrature did not converge."""
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(closed - quad) / np.maximum(1.0, np.abs(quad))
    resid[~(converged | np.isfinite(quad))] = math.inf
    breaches = int(np.count_nonzero((resid > RESIDUAL_LIMIT) | ~converged))
    return resid, float(np.fmax.reduce(resid, initial=0.0)), breaches


# Weight and node columns of each soundness sweep; the node count is the
# panel count k.  Hadamard records carry lam alone, its weights being
# (lam, 1 - lam).
SWEEP_COLUMNS = {
    "verify-hadamard": (("lam",), ("x", "y")),
    "verify-bullen": (("lam", "eta", "mu"), ("x", "y", "z")),
}


def _draw_weights(rng: np.random.Generator, k: int):
    """Two panels: lam uniform on [0, 1], weights (lam, 1 - lam); more
    panels: uniform on the simplex."""
    if k == 2:
        lam = float(rng.uniform())
        return lam, 1.0 - lam
    return rng.dirichlet((1.0,) * k)


def _evaluate(interval: Interval, alpha, weights, nodes, witnesses: corpus.WitnessArrays):
    """Gap, bound and verdict of every row in one batched k-panel pass:
    returns (config, gap, bound, ratio, passed)."""
    cfg = bounds.PanelConfigs(interval, alpha, weights, nodes)
    width = interval.width
    for al in sorted(set(cfg.alpha.tolist())):
        # A subnormal power has already lost digits; the gap and the bound
        # divide by it.
        power = width ** al
        if not power >= sys.float_info.min:
            raise DomainError(f"(b - a)^alpha underflows binary64 at width {width!r} "
                              f"and order {al!r}")
        # The gap multiplies the panel integrals by this scale; an infinite
        # one turns a zero integral into a NaN gap.
        if not math.isfinite(gamma_fn(al + 1.0) / power):
            raise DomainError(f"Gamma(alpha + 1)/(b - a)^alpha overflows binary64 at width "
                              f"{width!r} and order {al!r}")
    gap = engine.panel_gap(cfg, witnesses)
    bound = engine.panel_bound(cfg, witnesses.constants)
    ratio, passed = engine.verify_panels(gap, bound)
    return cfg, gap, bound, ratio, passed


def _soundness_sweep(command: str, run: RunConfig) -> VerificationReport:
    """Draw every trial, then evaluate all (trial x alpha) records in one
    batched k-panel pass; the records of every ORACLE_CHECK_STRIDE-th trial
    are re-evaluated by quadrature, all in one oracle call.  An oracle
    check whose quadrature does not converge counts as a residual breach,
    its residual taken against the gap of the integrator's last
    estimates."""
    t0 = time.perf_counter()
    weight_names, node_names = SWEEP_COLUMNS[command]
    k = len(node_names)
    a, b = run.interval.a, run.interval.b
    trials, grid = run.trials, run.alpha_grid
    seeds = []
    weights = np.empty((trials, k))
    nodes = np.empty((trials, k))
    for trial, rng in enumerate(corpus.streams([run.seed] * trials, range(trials))):
        seeds.append(int(rng.integers(0, 2 ** 63)))
        weights[trial] = _draw_weights(rng, k)
        nodes[trial] = np.sort(rng.uniform(a, b, k))
    witnesses = corpus.random_lipschitz_arrays(seeds, run.interval, m_max=M_MAX)

    # Records run trial-major: row = trial * len(grid) + grid index.
    rows = np.repeat(np.arange(trials), len(grid))
    record_witnesses = witnesses.take(rows)
    cfg, gap, bound, ratio, passed = _evaluate(run.interval, np.tile(grid, trials),
                                               weights[rows], nodes[rows], record_witnesses)

    values = {"trial": rows, "alpha": cfg.alpha}
    values.update((name, weights[rows, p]) for p, name in enumerate(weight_names))
    values.update((name, nodes[rows, p]) for p, name in enumerate(node_names))
    values.update(m=record_witnesses.constants, gap=gap, bound=bound, ratio=ratio,
                  passed=passed)
    columns = tuple(values) + ("method", "oracle_residual")
    records = list(zip(*(v.tolist() for v in values.values()), repeat("oracle")))

    # The records of every ORACLE_CHECK_STRIDE-th trial, in record order.
    checked = (np.arange(0, trials, ORACLE_CHECK_STRIDE)[:, None] * len(grid)
               + np.arange(len(grid))).ravel()
    quad_cfg = bounds.PanelConfigs(run.interval, cfg.alpha[checked], weights[rows[checked]],
                                   nodes[rows[checked]])
    quad_gap, converged = engine.panel_quadrature_gap(quad_cfg, record_witnesses.take(checked))
    resid, max_resid, resid_breaches = _oracle_residuals(gap[checked], quad_gap, converged)
    for row, r in zip(checked.tolist(), resid.tolist()):
        records[row] += (r,)
    # A checked record has one more column, the last.
    blocks = [RowBlock(columns[:n], list(group)) for n, group in groupby(records, key=len)]
    aggregate = {
        "evaluations": len(records),
        "violations": int(np.count_nonzero(~passed)),
        "max_ratio": max([0.0] + [r for r in ratio.tolist() if math.isfinite(r)]),
        "oracle_checks": len(checked),
        "max_oracle_residual": max_resid,
        "oracle_residual_breaches": resid_breaches,
    }
    return VerificationReport(command, run, columns, blocks, aggregate, [],
                              time.perf_counter() - t0, int(np.count_nonzero(~converged)))


def cmd_verify_hadamard(run: RunConfig) -> VerificationReport:
    """Soundness sweep of the two-node inequality over random witnesses."""
    return _soundness_sweep("verify-hadamard", run)


def cmd_verify_bullen(run: RunConfig) -> VerificationReport:
    """Soundness sweep of the three-node inequality; weights drawn uniformly
    on the simplex, nodes as sorted uniforms."""
    return _soundness_sweep("verify-bullen", run)


# --------------------------------------------------------------------------
# check-identities
# --------------------------------------------------------------------------

# Per node count: the case prefix, the stream offset, the ranges of the
# panel fractions whose running sums place the inner panel edges, and per
# ordering case the panel of each node, in node order.  A run of equal
# panels is one vector draw, sorted; "tail" draws between the previous node
# and b.  A case with two placements alternates them by sample parity.
# Case n lands in the n-th ordering of bounds._HADAMARD_TAGS/_BULLEN_TAGS.
_IDENTITY_CASES = (
    ("two_node", 10_000, ((0.15, 0.85),),
     (((1, 1),), ((0, 1),), ((0, 0),))),
    ("three_node", 20_000, ((0.15, 0.35), (0.2, 0.4)),
     (((2, 2, "tail"), (1, 2, "tail")), ((1, 1, 2),), ((1, 1, 1),), ((0, 2, 2),),
      ((0, 1, 2),), ((0, 1, 1),), ((0, 0, 2),), ((0, 0, 1), (0, 0, 0)))),
)


def _identity_sample(rng, a: float, b: float, fractions: tuple, placement: tuple):
    """(nodes, edges) of one check-identities sample: the panel fractions
    first, the nodes then in node order, each run of one panel in one draw."""
    span = b - a
    edges, cumulative = [a], 0.0
    for lo, hi in fractions:
        cumulative += float(rng.uniform(lo, hi))
        edges.append(a + cumulative * span)
    edges.append(b)
    nodes = []
    for panel, run in groupby(placement):
        lo, hi = (nodes[-1], b) if panel == "tail" else edges[panel:panel + 2]
        nodes += sorted(rng.uniform(lo, hi, len(list(run))).tolist())
    return nodes, edges


def _identity_moments(run: RunConfig):
    """The number of check-identities samples (as many per ordering case,
    at least 500 over the grid's orders) and the (case tag, panel, node,
    lower, upper) of their panel moments, the left kernel's first."""
    cases = sum(len(family[-1]) for family in _IDENTITY_CASES)
    per_case = max(12, -(-500 // (cases * len(run.alpha_grid))))
    a, b = run.interval.a, run.interval.b
    # (case tag, fractions, placement, stream key) of every sample
    samples = [(f"{prefix}_case{case}", fractions, placements[k % len(placements)],
                offset + 1_000 * case + k)
               for prefix, offset, fractions, family in _IDENTITY_CASES
               for case, placements in enumerate(family, 1)
               for k in range(per_case)]
    streams = corpus.streams([run.seed] * len(samples), [s[-1] for s in samples])
    # (case tag, nodes, edges) of every sample
    drawn = [(tag, *_identity_sample(rng, a, b, fractions, placement))
             for (tag, fractions, placement, _), rng in zip(samples, streams)]
    return len(drawn), [(tag, "left" if p == 0 else "right" if p == len(nodes) - 1 else "mid",
                         nodes[p], edges[p], edges[p + 1])
                        for tag, nodes, edges in drawn for p in range(len(nodes))]


def _continuity_probes(interval: Interval, grid: tuple, eps: float):
    """Yield (alpha, boundary_tag, value_below, value_above, slack) for each
    case split at every order of the grid, alpha-major.  Each probe moves
    one node across a panel edge, to eps below and above its nominal place
    a + P (b - a) and at least to the float neighbours of the edge the
    evaluator computes, but never past an adjacent node or out of [a, b].
    ``slack`` is the most a continuous bound moves over the part of that
    step beyond 2 eps: the node's panel moment changes at most at the rate
    w^alpha/alpha, w being the panel's width.  The probes of each node count
    go through one batched k-panel pass covering every order."""
    a, b = interval.a, interval.b
    span = b - a
    lam, eta = 0.3, 0.4
    three = (lam, eta, 1.0 - lam - eta)
    v1, v2 = a + lam * span, a + (lam + eta) * span
    ymid, zmid, xlow = (v1 + v2) / 2.0, (v2 + b) / 2.0, a + 0.1 * span
    # (tag, weights, nodes with the moving one at its nominal place, index
    # of the moving node, index of the edge it crosses) of each probe
    probes = [
        ("two_node_x_at_V", (0.4, 1.0 - 0.4), (a + 0.4 * span, a + 0.8 * span), 0, 1),
        ("two_node_y_at_V", (0.6, 1.0 - 0.6), (a + 0.2 * span, a + 0.6 * span), 1, 1),
        ("three_node_x_at_V1", three, (v1, ymid, zmid), 0, 1),
        ("three_node_y_at_V1", three, (xlow, v1, zmid), 1, 1),
        ("three_node_y_at_V2", three, (xlow, v2, zmid), 1, 2),
        ("three_node_z_at_V2", three, (xlow, ymid, v2), 2, 2),
    ]
    sides = []
    for tag, weights, nodes, i, p in probes:
        edges = bounds.PanelConfigs(interval, [1.0], [weights], [(a,) * len(nodes)]).edges
        edge, width = edges[0, p].item(), (edges[0, i + 1] - edges[0, i]).item()
        lo, hi = (a, *nodes, b)[i:i + 3:2]
        below = max(lo, min(nodes[i] - eps, math.nextafter(edge, -math.inf)))
        above = min(hi, max(nodes[i] + eps, math.nextafter(edge, math.inf)))
        sides.append((tag, weights, *(nodes[:i] + (t,) + nodes[i + 1:] for t in (below, above)),
                      max(0.0, above - below - 2.0 * eps), width))

    # (alpha, weights, nodes) rows, the value below then the one above
    rows = [(alpha, weights, nodes) for alpha in grid
            for _, weights, below, above, _, _ in sides for nodes in (below, above)]
    values = [0.0] * len(rows)
    for k in (2, 3):
        index = [i for i, row in enumerate(rows) if len(row[1]) == k]
        alpha, weights, nodes = zip(*(rows[i] for i in index))
        totals = bounds.v_panels(bounds.PanelConfigs(interval, alpha, weights, nodes))
        for i, total in zip(index, totals.tolist()):
            values[i] = total
    for (alpha, _, _), below, above, (tag, *_, extra, width) in zip(
            rows[::2], values[::2], values[1::2], cycle(sides)):
        yield alpha, tag, below, above, extra * width ** alpha / alpha


def cmd_check_identities(run: RunConfig) -> VerificationReport:
    """Validate every closed-form panel moment against the quadrature oracle.

    Samples the same number of configurations for each of the 3 two-node
    and 8 three-node orderings (:func:`_identity_moments`), each drawn once
    per run and checked at every grid order: the closed moments of every
    order in one :func:`fracbound.bounds.abs_moments_closed` pass, the
    oracle in one call per order (a call over all orders would hold every
    order's integrand samples at once), the residuals in one
    :func:`_oracle_residuals` pass.  Reports the worst relative residual
    and probes value continuity across each case boundary
    (:func:`_continuity_probes`).

    The aggregates count in two units: ``evaluations`` counts samples x
    orders, while ``residual_breaches`` counts panel-moment records (two
    or three per sample and order) and ``violations`` counts those plus
    the continuity records that breach.
    """
    t0 = time.perf_counter()
    samples, moments = _identity_moments(run)
    tags, panels, *coords = zip(*moments)
    x, lower, upper = map(np.array, coords)
    right = np.array([panel != "left" for panel in panels])
    grid = run.alpha_grid
    # Every order's closed forms in one pass, order-major; the left
    # kernel's moment is the right kernel's on the negated panel.
    closed = bounds.abs_moments_closed(np.where(right, x, -x), np.where(right, lower, -upper),
                                       np.where(right, upper, -lower),
                                       np.array(grid)[:, None]).ravel()
    quads = [abs_moments(x, lower, upper, right, alpha) for alpha in grid]
    quad = np.concatenate([q.value for q in quads])
    converged = np.concatenate([q.converged for q in quads])
    resid, max_resid, resid_breaches = _oracle_residuals(closed, quad, converged)
    # Order-major, as the moments: every sample panel at each order.
    moments = RowBlock(("kind", "case", "alpha", "panel", "closed", "quad", "residual"),
                       list(zip(repeat("moment"), tags * len(grid),
                                chain.from_iterable(repeat(al, len(tags)) for al in grid),
                                panels * len(grid), closed.tolist(), quad.tolist(),
                                resid.tolist())))

    max_delta = 0.0
    continuity_breaches = 0
    probes = []
    for alpha, tag, below, above, slack in _continuity_probes(run.interval, grid,
                                                              1e-9 * run.interval.width):
        delta = abs(above - below)
        limit = CONTINUITY_LIMIT * (1.0 + max(abs(below), abs(above))) + slack
        normalized = delta / (1.0 + max(abs(below), abs(above)))
        max_delta = max(max_delta, normalized)
        continuity_breaches += delta > limit
        probes.append(("continuity", tag, alpha, below, above, normalized))

    aggregate = {
        "evaluations": samples * len(grid),
        "violations": resid_breaches + continuity_breaches,
        "max_residual": max_resid,
        "residual_breaches": resid_breaches,
        "max_continuity_delta": max_delta,
        "continuity_breaches": continuity_breaches,
    }
    blocks = [moments, RowBlock(("kind", "case", "alpha", "closed", "quad", "residual"), probes)]
    return VerificationReport("check-identities", run, moments.keys, blocks, aggregate,
                              [], time.perf_counter() - t0, int(np.count_nonzero(~converged)))


# --------------------------------------------------------------------------
# audit-corollaries
# --------------------------------------------------------------------------

def _classical_mean(f: corpus.PiecewiseLinearFunction) -> float:
    one = Order(1.0)
    return corpus.exact_rl_left(f, one, f.b) / (f.b - f.a)


def cmd_audit_corollaries(run: RunConfig) -> VerificationReport:
    """Audit every shortcut coefficient against the assembled oracle bound
    and emit the erratum ledger.

    Coefficient audits run on the canonical interval [0, 1] (scale
    covariance extends them); mismatches are data, not failures, so the
    report counts no violations whatever the ledger holds.
    """
    t0 = time.perf_counter()
    canonical = Interval(0.0, 1.0)
    records = []
    worst: dict = {}
    seeds = tuple(run.seed + k for k in (1, 2, 3))
    for alpha in run.alpha_grid:
        findings = engine.corollary_suite(canonical, Order(alpha), seeds)
        for finding in findings:
            records.append(finding.as_record())
            if finding.erratum is not None:
                cur = worst.get(finding.formula_id)
                if cur is None or finding.erratum.max_abs_deviation > cur.max_abs_deviation:
                    worst[finding.formula_id] = finding.erratum

    # Classical (order 1) diagnostics for the two shortcut functionals.
    if any(a == 1.0 for a in run.alpha_grid):
        f = corpus.tent(canonical, 0.5)
        m = corpus.lipschitz_constant(f)
        mean = _classical_mean(f)
        mid = f(0.5)
        end = (f(0.0) + f(1.0)) / 2.0
        for formula_id, gap, coeff in (
                ("bullen_remark_classical_alpha1", abs(0.5 * (end + mid) - mean),
                 bounds.bullen_remark_coeff(1.0)),
                ("simpson_remark_classical_alpha1",
                 abs((f(0.0) + 4.0 * mid + f(1.0)) / 6.0 - mean),
                 bounds.simpson_remark_coeff(1.0))):
            res = engine.verify(gap, coeff * m)
            records.append({"formula_id": formula_id, "alpha": 1.0,
                            "printed_bound": coeff, "oracle_bound": coeff,
                            "deviation": 0.0, "gap": res.gap, "bound_used": res.bound,
                            "ratio": res.ratio, "passed": res.passed})

    errata = [worst[fid].as_record() for fid in sorted(worst)]
    aggregate = {
        "evaluations": len(records),
        "violations": 0,
        "erratum_formulas": len(errata),
        "max_erratum_deviation": max((e["max_abs_deviation"] for e in errata), default=0.0),
    }
    columns = ("formula_id", "alpha", "lam", "eta", "delta", "node_delta", "theta",
               "printed_bound", "oracle_bound", "deviation", "gap", "bound_used",
               "ratio", "passed")
    return VerificationReport("audit-corollaries", run, columns, row_blocks(columns, records),
                              aggregate, errata, time.perf_counter() - t0)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def cmd_sweep(run: RunConfig, functional: str,
              witness_path: str | None = None) -> VerificationReport:
    """Emit (alpha, lam[, eta], delta, gap, bound, ratio) rows for plotting.

    The witness is loaded from the two-column text format when a path is
    given, else it is the tent centered on the interval midpoint (so the
    row lam = delta = 1/2 of the two-node sweep is the sharpness
    configuration with ratio 1).  Every (alpha x grid point) row is
    evaluated in one batched k-panel pass, alpha-major.
    """
    t0 = time.perf_counter()
    itv = run.interval
    a, b = itv.a, itv.b
    # Grid points: (grid parameters, weights, nodes).
    if functional == "hadamard":
        names, k = ("lam", "delta"), 2
        points = [((lam, delta), (lam, 1.0 - lam),
                   (delta * a + (1.0 - delta) * b, (1.0 - delta) * a + delta * b))
                  for lam in SWEEP_LAMBDAS for delta in SWEEP_DELTAS]
    elif functional == "bullen":
        names, k = ("lam", "eta", "delta"), 3
        points = [((lam, eta, delta), (lam, eta, 1.0 - lam - eta),
                   (delta * a + (1.0 - delta) * b, (a + b) / 2.0,
                    (1.0 - delta) * a + delta * b))
                  for lam in SWEEP_LAMBDAS for eta in SWEEP_ETAS if not lam + eta > 1.0
                  for delta in SWEEP_DELTAS]
    else:
        raise DomainError(f"functional must be 'hadamard' or 'bullen', got {functional!r}")
    if witness_path is not None:
        with open(witness_path, "r", encoding="utf-8") as fh:
            f = corpus.from_text(fh.read())
        if not (f.a == a and f.b == b):
            raise DomainError(
                f"witness spans [{f.a}, {f.b}], run interval is [{a}, {b}]")
    else:
        f = corpus.tent(itv, (a + b) / 2.0)
    witness = corpus.LipschitzWitness(f, corpus.lipschitz_constant(f))

    rows = [(alpha, *point) for alpha in run.alpha_grid for point in points]
    shape = (len(rows), k)
    _, gap, bound, ratio, passed = _evaluate(
        itv, [r[0] for r in rows], np.reshape([r[2] for r in rows], shape),
        np.reshape([r[3] for r in rows], shape), corpus.WitnessArrays.repeat(witness, len(rows)))
    columns = ("alpha",) + names + ("gap", "bound", "ratio")
    records = [(alpha, *params, *result) for (alpha, params, _, _), *result
               in zip(rows, gap.tolist(), bound.tolist(), ratio.tolist())]
    aggregate = {"evaluations": len(records), "violations": int(np.count_nonzero(~passed)),
                 "max_ratio": max([0.0] + [r for r in ratio.tolist() if math.isfinite(r)])}
    return VerificationReport(f"sweep-{functional}", run, columns, [RowBlock(columns, records)],
                              aggregate, [], time.perf_counter() - t0)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"--interval wants 'a,b', got {text!r}")
    return Interval(float(parts[0]), float(parts[1]))


def _attach_interval_values(argv: list) -> list:
    """argv with each "--interval A,B" whose A starts like a negative number
    written as "--interval=A,B", and so for the option's abbreviations
    "--i" to "--interva": argparse reads a value that starts with "-" as an
    option unless the whole value is one negative number."""
    out = []
    for token in argv:
        if (out and len(out[-1]) > 2 and "--interval".startswith(out[-1])
                and token.startswith("-") and (token[1:2].isdigit() or token[1:2] == ".")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbound",
        description="Verify fractional-integral inequalities for Lipschitz functions.")
    parser.add_argument("--version", action="version", version=f"fracbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--alpha", type=float, action="append", default=None,
                       help="grid order; repeatable (default 0.5 1.0 1.5 2.0)")
        p.add_argument("--interval", type=str, default="0,1", metavar="A,B")
        p.add_argument("--out", type=str, default=None, metavar="PATH")
        p.add_argument("--format", type=str, default="json", choices=("json", "csv"))

    for name in ("verify-hadamard", "verify-bullen", "check-identities",
                 "audit-corollaries"):
        common(sub.add_parser(name))
    sweep = sub.add_parser("sweep")
    common(sweep)
    sweep.add_argument("functional", choices=("hadamard", "bullen"))
    sweep.add_argument("--witness", type=str, default=None, metavar="PATH",
                       help="two-column breakpoint/value text file")
    return parser


def _run_config(args) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        trials=args.trials,
        alpha_grid=tuple(args.alpha) if args.alpha else (0.5, 1.0, 1.5, 2.0),
        interval=_parse_interval(args.interval),
        output_path=args.out,
        fmt=args.format,
    )


def _exit_code(report: VerificationReport) -> int:
    return 1 if report.violations or report.aggregate.get("oracle_residual_breaches") else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_interval_values(sys.argv[1:] if argv is None else argv))
    try:
        run = _run_config(args)
        if args.command == "verify-hadamard":
            report = cmd_verify_hadamard(run)
        elif args.command == "verify-bullen":
            report = cmd_verify_bullen(run)
        elif args.command == "check-identities":
            report = cmd_check_identities(run)
        elif args.command == "audit-corollaries":
            report = cmd_audit_corollaries(run)
        else:
            report = cmd_sweep(run, args.functional, args.witness)
    except (DomainError, ValueError, OSError) as exc:
        print(f"fracbound: configuration error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"fracbound: configuration error: a power overflows binary64 at "
              f"this order and interval ({exc})", file=sys.stderr)
        return 2
    try:
        payload = report.to_bytes()
        if run.output_path is None:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:
            with open(run.output_path, "wb") as fh:
                fh.write(payload)
    except OSError as exc:
        print(f"fracbound: I/O error: {exc}", file=sys.stderr)
        return 2
    agg = report.aggregate
    print("fracbound %s: %d records, %d evaluations, %d violations, %.2fs" % (
        report.command, sum(len(rows) for _, rows in report.blocks), agg["evaluations"],
        report.violations, report.duration_seconds), file=sys.stderr)
    if report.oracle_failures:
        key = ("oracle_residual_breaches" if "oracle_residual_breaches" in agg
               else "residual_breaches")
        print(f"fracbound: {report.oracle_failures} oracle checks did not converge; "
              f"each counts in the aggregate's {key}", file=sys.stderr)
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
