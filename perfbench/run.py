#!/usr/bin/env python3
"""fracbound benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` (nothing is installed or built).  The load is a closed loop with
one client: each repetition is one fresh interpreter (``child.py``) that
imports ``fracbound.cli`` and calls ``fracbound.cli.main`` with the
workload's arguments, one repetition at a time, until S seconds have
passed.  The seed reaches the program only as its ``--seed`` argument, and
every repetition of a run uses the same seed.

Every repetition passes a correctness gate or counts as failed: exit code
0, no violation and no residual or continuity breach, the evaluation count
the workload's size implies, the known erratum ledger on audit-grid, and
report bytes identical to the run's first repetition.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's repetitions.  Every time is scaled by the host speed the child
measured around its work (``probe.py``), because the hosts this runs on
drift in speed far more than any change worth measuring; the unscaled
medians are printed too.  ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics of the traced ones
(``layers.py``); there the gate also requires traced report bytes equal to
untraced ones and the counts in ``layers.REPEATABLE_COUNTS`` equal in
every traced repetition.

Human-readable lines and an ``env`` record come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when that line is printed, and
nonzero, with no result line, when the run could not start: no
``src/fracbound`` in the checkout, or the package imported from elsewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import layers
import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run stops starting repetitions at this age, so it ends within the
# 180 s that one benchmark invocation is allowed.
HARD_LIMIT_S = 150.0
MIN_REPS = 3           # untraced repetitions of a --trace 0 run
MIN_TRACE_REPS = 2     # of each kind in a --trace 1 run
# Agreement beyond the quadrature oracle's requested tolerance (QUADPACK is
# asked for 1e-11 absolute and relative) is rounding luck, not accuracy:
# below it the worst residual jumps between 1e-12 and 1e-15 from seed to
# seed.  oracle_digits therefore counts digits up to that tolerance only.
DIGITS_CAP = 11.0

# audit-corollaries emits this many findings per order with the default
# CorollaryParams grids (45 + 9 + 9 + 45 + 1 + 75 + 6 + 2), plus two
# classical diagnostics when the grid holds order 1.
AUDIT_FINDINGS_PER_ORDER = 192
KNOWN_ERRATA = ("midpoint_triple_coeff_case7", "midpoint_triple_coeff_case8",
                "shifted_single_node_bound", "simpson_theta_third_bound")


def order_grid(lo: float, hi: float, step: float) -> tuple:
    """Orders lo, lo + step, ..., hi; binary steps keep every value exact."""
    return tuple(lo + k * step for k in range(round((hi - lo) / step) + 1))


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; the seed and the output path are added per run."""

    name: str
    command: str
    fmt: str
    alphas: tuple
    trials: int = 0  # read by verify-bullen only

    def argv(self, seed: int, out: str) -> list:
        args = [self.command, "--seed", str(seed), "--interval", "0,1",
                "--format", self.fmt, "--out", out]
        if self.command == "verify-bullen":
            args += ["--trials", str(self.trials)]
        for alpha in self.alphas:
            args += ["--alpha", repr(alpha)]
        return args

    def expected_evaluations(self) -> int:
        n = len(self.alphas)
        if self.command == "verify-bullen":
            return self.trials * n
        if self.command == "check-identities":
            # 3 two-node plus 8 three-node orderings, per_case samples each.
            return 11 * n * max(12, math.ceil(500 / (11 * n)))
        return AUDIT_FINDINGS_PER_ORDER * n + 2 * (1.0 in self.alphas)

    @property
    def residual_key(self) -> str | None:
        return {"verify-bullen": "max_oracle_residual",
                "check-identities": "max_residual"}.get(self.command)


WORKLOADS = {w.name: w for w in (
    Workload("verify-bullen", "verify-bullen", "json", (0.5, 1.0, 1.5, 2.0), trials=2000),
    Workload("identities", "check-identities", "csv", order_grid(0.25, 5.0, 0.125)),
    Workload("audit-grid", "audit-corollaries", "json", order_grid(0.25, 5.0, 0.0625)),
)}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def parse_report(workload: Workload, payload: bytes) -> tuple:
    """(aggregate, erratum ids) of a JSON or CSV report."""
    text = payload.decode("utf-8")
    if workload.fmt == "json":
        doc = json.loads(text)
        return doc["aggregate"], [e["formula_id"] for e in doc["errata"]]
    aggregate, errata = {}, []
    for line in text.splitlines():
        if line.startswith("# aggregate "):
            key, value = line[len("# aggregate "):].split("=", 1)
            aggregate[key] = float(value)
        elif line.startswith("# erratum "):
            errata.append(line.split()[2])
    return aggregate, errata


def check_report(workload: Workload, payload: bytes) -> str | None:
    """Why the report fails the gate, or None when it passes."""
    try:
        aggregate, errata = parse_report(workload, payload)
    except (UnicodeDecodeError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable report: {exc!r}"
    breaches = ("violations", "oracle_residual_breaches", "residual_breaches",
                "continuity_breaches")
    for key in breaches:
        if aggregate.get(key, 0) != 0:
            return f"{key} = {aggregate[key]}"
    want = workload.expected_evaluations()
    if aggregate.get("evaluations") != want:
        return f"evaluations = {aggregate.get('evaluations')}, expected {want}"
    if workload.command == "audit-corollaries" and tuple(sorted(errata)) != KNOWN_ERRATA:
        return f"erratum ledger {sorted(errata)}, expected {list(KNOWN_ERRATA)}"
    return None


def oracle_digits(workload: Workload, payload: bytes) -> float:
    """-log10 of the worst closed-form-vs-quadrature residual, capped at 11.

    audit-grid runs no quadrature oracle, so its worst residual is that of
    an empty set, 0, and the figure is the cap.
    """
    if workload.residual_key is None:
        return DIGITS_CAP
    residual = float(parse_report(workload, payload)[0][workload.residual_key])
    return DIGITS_CAP if residual <= 0.0 else min(DIGITS_CAP, -math.log10(residual))


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    traced: bool
    process_s: float
    child: dict | None
    payload: bytes
    failure: str | None = None
    speed: float = 1.0  # probe.REFERENCE_S / the probe time the child measured

    @property
    def ran(self) -> bool:
        """The child got through ``cli.main`` and reported its timings."""
        return self.child is not None and "main_s" in self.child


def spawn(cli_argv: list, traced: bool, out: Path | None, timeout: float) -> Rep:
    """Run one child interpreter to completion and collect what it left."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), "1" if traced else "0", *cli_argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Rep(traced, time.perf_counter() - t0, None, b"",
                   f"timed out after {timeout:.0f} s")
    process_s = time.perf_counter() - t0
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        child = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        child = None
    payload = b""
    if out is not None and out.exists():
        payload = out.read_bytes()
        out.unlink()
    rep = Rep(traced, process_s, child, payload)
    if child is not None and "probe_s" in child:
        rep.process_s -= child["probe_wall_s"]
        rep.speed = probe.REFERENCE_S / child["probe_s"]
    if proc.returncode != 0 or child is None:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        rep.failure = f"exit code {proc.returncode}: {' | '.join(tail)}"
    return rep


def gate(workload: Workload, rep: Rep, first: Rep | None, first_traced: Rep | None) -> None:
    """Set ``rep.failure`` when the repetition fails the correctness gate."""
    if rep.failure is None:
        rep.failure = check_report(workload, rep.payload)
    if rep.failure is None and first is not None and rep.payload != first.payload:
        rep.failure = "report bytes differ from the run's first repetition"
    if rep.failure is None and rep.traced and first_traced is not None:
        counts = {k: rep.child["layers"][k] for k in layers.REPEATABLE_COUNTS}
        want = {k: first_traced.child["layers"][k] for k in layers.REPEATABLE_COUNTS}
        if counts != want:
            rep.failure = f"layer counts {counts} differ from {want}"


def repeat(workload: Workload, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop, one client: repetitions back to back until ``seconds``."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out = Path(tmp) / ("report." + workload.fmt)
        # Import once before timing: writes the bytecode caches and checks
        # where the package is imported from.
        warm = spawn([], False, None, HARD_LIMIT_S)
        if warm.failure is not None:
            raise SystemExit(f"perfbench: cannot import fracbound from {ROOT / 'src'}: "
                             f"{warm.failure}")
        start = time.perf_counter()
        reps = []
        first = first_traced = None
        while True:
            elapsed = time.perf_counter() - start
            untraced = sum(not r.traced for r in reps)
            traced = len(reps) - untraced
            enough = (traced >= MIN_TRACE_REPS and untraced >= MIN_TRACE_REPS if trace
                      else untraced >= MIN_REPS)
            if (enough and elapsed >= seconds) or elapsed >= HARD_LIMIT_S:
                break
            want_traced = trace and traced < untraced
            rep = spawn(workload.argv(seed, str(out)), want_traced, out,
                        max(1.0, HARD_LIMIT_S + 20.0 - elapsed))
            gate(workload, rep, first, first_traced)
            reps.append(rep)
            if rep.failure is None:
                first = first or rep
                if rep.traced:
                    first_traced = first_traced or rep
        return reps


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "process_s": "s", "evals_per_s": "1/s",
                    "peak_rss_mb": "MB", "oracle_digits": "digits", "pass_ratio": "ratio"}

PER_LAYER_UNITS = {
    "quadrature.calls": "count", "quadrature.us_per_call": "us", "quadrature.self_s": "s",
    "quadrature.neval": "count", "quadrature.tolerance_errors": "count",
    "corpus.witness.calls": "count", "corpus.witness.us_per_call": "us",
    "corpus.exact_rl.calls": "count", "corpus.exact_rl.us_per_call": "us",
    "corpus.exact_rl.self_s": "s",
    "bounds.config.us_per_call": "us", "bounds.v.calls": "count",
    "bounds.v.us_per_call": "us", "bounds.coeff.us_per_call": "us",
    "engine.gap.us_per_call": "us", "engine.gap_quad.us_per_call": "us",
    "engine.bound.us_per_call": "us", "engine.verify.us_per_call": "us",
    "engine.corollary_suite_s": "s",
    "cli.self_s": "s", "cli.serialize_s": "s", "cli.report_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def end_to_end(workload: Workload, reps: list) -> dict:
    measured = [r for r in reps if r.ran]
    evaluations = workload.expected_evaluations()
    passed = sum(r.failure is None for r in reps)
    return {
        "setup_s": statistics.median(r.child["setup_s"] * r.speed for r in measured),
        "process_s": statistics.median(r.process_s * r.speed for r in measured),
        "evals_per_s": statistics.median(evaluations / (r.child["main_s"] * r.speed)
                                         for r in measured),
        "peak_rss_mb": statistics.median(r.child["peak_rss_mb"] for r in measured),
        "oracle_digits": statistics.median(
            oracle_digits(workload, r.payload) for r in reps if r.failure is None)
        if passed else 0.0,
        "pass_ratio": passed / len(reps),
    }


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r.ran and r.traced]
    untraced = [r for r in reps if r.ran and not r.traced]

    def scaled(rep, name):
        value = rep.child["layers"][name]
        return value * rep.speed if PER_LAYER_UNITS[name] in ("s", "us") else value

    # median_low keeps counts whole: every value is one repetition's.
    metrics = {name: statistics.median_low(scaled(r, name) for r in traced)
               for name in traced[0].child["layers"]}
    metrics["cli.report_mb"] = statistics.median_low(len(r.payload) / 1e6 for r in traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.child["main_s"] * r.speed for r in traced)
        / statistics.median(r.child["main_s"] * r.speed for r in untraced))
    return metrics


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0))}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload and return the result object the last line prints."""
    reps = repeat(workload, seed, seconds, trace)
    ran = {r.traced for r in reps if r.ran}
    if False not in ran or (trace and True not in ran):
        raise SystemExit(f"perfbench: no repetition of {workload.name} ran: {reps[0].failure}")
    values = per_layer(reps) if trace else end_to_end(workload, reps)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(r.failure is not None for r in reps)
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
            "reps": reps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracbound" / "__init__.py").is_file():
        print(f"perfbench: no fracbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    reps = result.pop("reps")
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} repetitions, {result['failed']} failed "
          f"(fail_ratio {result['failed'] / result['attempted']:.3g})")
    for rep in reps:
        if rep.failure is not None:
            print(f"  FAILED{' traced' if rep.traced else ''}: {rep.failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:>14.6g} {metric['unit']}")
    measured = [r for r in reps if r.ran and not r.traced]
    print("  unscaled medians: process %.4f s, import %.4f s, cli.main %.4f s; "
          "host speed factor %.3f" % tuple(statistics.median(v) for v in (
              [r.process_s for r in measured], [r.child["setup_s"] for r in measured],
              [r.child["main_s"] for r in measured], [r.speed for r in measured])))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
